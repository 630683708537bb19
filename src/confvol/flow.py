"""Volume-constrained conformal gradient flow toward constant v_k.

Explicit Euler with step rejection on the conformal factor omega of
e^{2 omega} g: each step moves omega against sign(n-2k) (v_k - mean v_k)
and then renormalizes the volume exactly by subtracting a constant.  The
variance of v_k must not increase on accepted steps; the caller's step
controller halves dt on rejection and grows it slowly on acceptance.

Discretizations: flat tori on uniform grids with Fourier differentiation
(k = 1, where v_1 follows from the conformal transformation law of scalar
curvature); round spheres restricted to zonal (single-axis) conformal
factors, where fields live on a 1D Gauss-Legendre grid and k up to 3 is
available through the pointwise curvature formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from .errors import InvalidRange, KOutOfRange, NoConvergence, StepRejected
from .models import (
    ConformalDeformation,
    FlatTorus,
    ModelMetric,
    RoundSphere,
    sphere_volume,
    zonal_field,
)
from .spectral import _gegenbauer_coeffs, field_values

_VARIANCE_SLACK = 1e-14


class TorusGrid:
    """Uniform periodic grid with spectral differentiation; k = 1 only."""

    def __init__(self, torus: FlatTorus, shape=None):
        self.base = torus
        n = torus.n
        self.shape = tuple(shape) if shape is not None else (16,) * n
        axes = [np.arange(N) / N * p for N, p in zip(self.shape, torus.periods)]
        grids = np.meshgrid(*axes, indexing="ij")
        self.points = np.stack([g.ravel() for g in grids], axis=1)
        self.freqs = [2.0 * np.pi * np.fft.fftfreq(N, d=p / N)
                      for N, p in zip(self.shape, torus.periods)]
        k2 = np.zeros(self.shape)
        for axis, f in enumerate(self.freqs):
            sh = [1] * n
            sh[axis] = len(f)
            k2 = k2 + (f ** 2).reshape(sh)
        self.k2 = k2
        self.base_volume = torus.volume
        self.max_eigenvalue = float(np.max(k2))

    def _spectral(self, omega):
        om = omega.reshape(self.shape)
        hat = np.fft.fftn(om)
        lap = np.real(np.fft.ifftn(-self.k2 * hat)).ravel()
        grad2 = np.zeros(self.shape)
        for axis, f in enumerate(self.freqs):
            sh = [1] * len(self.shape)
            sh[axis] = len(f)
            d = np.real(np.fft.ifftn(1j * f.reshape(sh) * hat))
            grad2 = grad2 + d ** 2
        return lap, grad2.ravel()

    def vk(self, omega, k):
        if k != 1:
            raise KOutOfRange(
                "torus flow evaluates v_k spectrally for k = 1 only")
        n = self.base.n
        lap, grad2 = self._spectral(omega)
        return np.exp(-2.0 * omega) * (-lap - 0.5 * (n - 2) * grad2)

    def volume(self, omega):
        return self.base_volume * float(np.mean(np.exp(self.base.n * omega)))

    def average(self, values, omega):
        w = np.exp(self.base.n * omega)
        return float(np.sum(values * w) / np.sum(w))

    def project(self, omega):
        return omega

    def sample(self, field):
        return field_values(field, self.points)


class SphereZonal:
    """Zonal fields omega = f(y_axis) on a round sphere, 1D spectral grid."""

    def __init__(self, sphere: RoundSphere, nodes: int = 48, degree: int = 16):
        self.base = sphere
        n, L = sphere.n, sphere.radius
        xs, ws = roots_legendre(nodes)
        self.t = xs
        area = sphere_volume(n - 1)
        self.w = ws * (1.0 - xs ** 2) ** ((n - 2) / 2.0) * area * L ** n
        self.base_volume = sphere_volume(n, L)
        # chart points with y_axis = t on the equatorial slice y_{n+1} = 0
        pts = np.zeros((nodes, n))
        pts[:, 0] = xs
        pts[:, 1] = np.sqrt(1.0 - xs ** 2)
        self.points = L * pts
        # zonal harmonic basis, orthonormal under the node weights
        polys = [_gegenbauer_coeffs(l, n) if l else np.array([1.0])
                 for l in range(degree + 1)]
        B = np.stack([np.polynomial.polynomial.polyval(xs, p) for p in polys],
                     axis=1)
        norms = np.sqrt(np.einsum("jl,jl,j->l", B, B, self.w))
        B = B / norms
        self.synth = B
        self.analysis = (B * self.w[:, None]).T
        lam = np.array([l * (l + n - 1) / L ** 2 for l in range(degree + 1)])
        self.eigs = lam
        self.max_eigenvalue = float(lam[-1])
        dB = np.stack([np.polynomial.polynomial.polyval(
            xs, np.polynomial.polynomial.polyder(p)) for p in polys], axis=1)
        self.dsynth = dB / norms
        self.degree = degree
        self._polys = polys
        self._norms = norms

    def _field(self, omega):
        coef = self.analysis @ omega
        poly = np.zeros(self.degree + 1)
        for c, p, nm in zip(coef, self._polys, self._norms):
            poly[: len(p)] += c * p / nm
        return zonal_field(self.base, poly, 0)

    def vk(self, omega, k):
        n, L = self.base.n, self.base.radius
        coef = self.analysis @ omega
        if k == 1:
            lap = self.synth @ (-self.eigs * coef)
            dval = self.dsynth @ coef
            grad2 = (1.0 - self.t ** 2) / L ** 2 * dval ** 2
            R = n * (n - 1) / L ** 2
            return np.exp(-2.0 * omega) * (
                R / (2.0 * (n - 1)) - lap - 0.5 * (n - 2) * grad2)
        if k in (2, 3):
            from .series import v_direct

            deformed = ConformalDeformation(self.base, self._field(omega))
            return (-2.0) ** k * v_direct(deformed, k, points=self.points)
        raise KOutOfRange(f"flow supports k in {{1, 2, 3}}, got {k}")

    def volume(self, omega):
        return float(np.sum(self.w * np.exp(self.base.n * omega)))

    def average(self, values, omega):
        w = self.w * np.exp(self.base.n * omega)
        return float(np.sum(values * w) / np.sum(w))

    def project(self, omega):
        return self.synth @ (self.analysis @ omega)

    def sample(self, field):
        return field_values(field, self.points)


@dataclass(frozen=True)
class FlowState:
    disc: object
    omega: np.ndarray
    k: int
    step: int
    volume: float
    vk: np.ndarray
    variance: float
    mean_vk: float

    @property
    def sup_deviation(self) -> float:
        return float(np.max(np.abs(self.vk - self.mean_vk)))


def make_state(disc, omega0, k: int) -> FlowState:
    n = disc.base.n
    if n == 2 * k:
        raise InvalidRange(
            f"F_{k} is conformally invariant in dimension {n}; no flow")
    omega = np.asarray(omega0, dtype=float) if not callable(omega0) \
        else disc.sample(omega0)
    omega = disc.project(omega)
    # fix the gauge: exact volume renormalization
    omega = omega - np.log(disc.volume(omega) / disc.base_volume) / n
    vk = disc.vk(omega, k)
    mean = disc.average(vk, omega)
    var = disc.average((vk - mean) ** 2, omega)
    return FlowState(disc=disc, omega=omega, k=k, step=0,
                     volume=disc.volume(omega), vk=vk, variance=var,
                     mean_vk=mean)


def flow_step(state: FlowState, k: int, dt: float) -> FlowState:
    """One explicit Euler step; raises StepRejected if the v_k variance grew."""
    disc = state.disc
    n = disc.base.n
    orient = np.sign(n - 2 * k)
    omega = state.omega - dt * orient * (state.vk - state.mean_vk)
    omega = disc.project(omega)
    omega = omega - np.log(disc.volume(omega) / disc.base_volume) / n
    vk = disc.vk(omega, k)
    mean = disc.average(vk, omega)
    var = disc.average((vk - mean) ** 2, omega)
    if var > state.variance * (1.0 + _VARIANCE_SLACK) + _VARIANCE_SLACK:
        raise StepRejected(
            f"variance grew {state.variance:.6e} -> {var:.6e} at dt = {dt:.3e}")
    return FlowState(disc=disc, omega=omega, k=k, step=state.step + 1,
                     volume=disc.volume(omega), vk=vk, variance=var,
                     mean_vk=mean)


@dataclass(frozen=True)
class FlowReport:
    converged: bool
    steps: int
    accepted: int
    rejected: int
    variance_history: np.ndarray
    sup_history: np.ndarray
    final: FlowState
    final_constant: float
    volume_drift: float


def discretize(m: ModelMetric, **kw):
    if isinstance(m, FlatTorus):
        return TorusGrid(m, shape=kw.get("shape"))
    if isinstance(m, RoundSphere):
        return SphereZonal(m, nodes=kw.get("nodes", 48),
                           degree=kw.get("degree", 16))
    raise InvalidRange(f"no flow discretization for {type(m).__name__}")


def run_flow(m: ModelMetric, k: int, omega0, tol: float = 1e-6,
             max_steps: int = 10000, dt0: float | None = None,
             **disc_kw) -> FlowReport:
    """Iterate flow_step with adaptive dt until sup|v_k - mean| < tol."""
    disc = discretize(m, **disc_kw)
    state = make_state(disc, omega0, k)
    dt = dt0 if dt0 is not None else 0.5 / disc.max_eigenvalue
    dt_cap = 10.0 / disc.max_eigenvalue
    vol0 = state.volume
    variances = [state.variance]
    sups = [state.sup_deviation]
    accepted = rejected = 0
    drift = 0.0
    while state.sup_deviation >= tol and accepted + rejected < max_steps:
        try:
            state = flow_step(state, k, dt)
        except StepRejected:
            rejected += 1
            dt *= 0.5
            if dt < 1e-16:
                break
            continue
        accepted += 1
        dt = min(dt * 1.2, dt_cap)
        variances.append(state.variance)
        sups.append(state.sup_deviation)
        drift = max(drift, abs(state.volume - vol0) / vol0)
    report = FlowReport(
        converged=state.sup_deviation < tol,
        steps=accepted + rejected, accepted=accepted, rejected=rejected,
        variance_history=np.asarray(variances), sup_history=np.asarray(sups),
        final=state, final_constant=state.mean_vk, volume_drift=drift,
    )
    if not report.converged:
        raise NoConvergence(
            f"flow stalled at sup deviation {state.sup_deviation:.3e} "
            f"after {report.steps} steps", report=report)
    return report
