"""Volume-constrained conformal gradient flow toward constant v_k.

Explicit Euler with step rejection on the conformal factor omega of
e^{2 omega} g: each step moves omega by -(v_k - mean v_k), the sigma_k
flow of Guan and Wang (J. Reine Angew. Math. 557, 2003), for every k, and
then renormalizes the volume exactly by subtracting a constant.  The
variance of v_k must stay finite and not increase on accepted steps; the
caller's step controller halves dt on rejection and grows it slowly on
acceptance.  A start whose variance overflows is refused (NonFiniteResult);
a trial step that overflows is rejected.

Discretizations: flat tori on uniform grids with Fourier differentiation
(k = 1, where v_1 follows from the conformal transformation law of scalar
curvature); round spheres restricted to zonal (single-axis) conformal
factors, where fields live on a 1D Gauss-Legendre grid.  The deformed
sphere is conformally flat, so every k <= n is available there through
v_k = sigma_k(g^{-1}P).

A torus start that is constant along x_2..x_n, as a start on a Fourier
mode (m, 0, ..., 0) is and as the flow keeps it, is carried on its x_1 line
when each of those axes has a power-of-two length: make_state decides this
once, and the state then holds one value per x_1 point.  Its sums add the
full grid's values in grid order, so every output is bit for bit the
n-dimensional flow's (see TorusGrid).  The torus flow's convergence rests
on those exact zeros off the x_1 axis: dt_cap is 5x past the explicit Euler
bound, so rounding noise in the other modes would grow (ROADMAP item 2, a
linearly implicit step, removes the cap).
"""

from __future__ import annotations

import copy
from typing import NamedTuple

import numpy as np

from .errors import ConfvolError, NoConvergence, NonFiniteResult, StepRejected
from .models import (
    ConformalDeformation,
    FlatTorus,
    ModelMetric,
    RoundSphere,
    sphere_volume,
    zonal_field,
)
from .series import v_direct
from .spectral import _gegenbauer_coeffs, field_values, gauss_jacobi

_VARIANCE_SLACK = 1e-14


class TorusGrid:
    """Uniform periodic grid with spectral differentiation; k = 1 only.

    on_line carries a field constant along every axis but the first on its
    x_1 line when x_2..x_n all have power-of-two lengths: the line grid's
    points are the N_1 points of the x_1 axis, each standing for `copies`
    grid points, and it takes a complex FFT of the line.  pocketfft
    transforms a constant line of length 2^m by doubling sums and
    differences that are exactly 0, and every 1/N scale is a power of two,
    so rfftn/irfftn return the line's c2c result times exact powers of two
    (the first axis is c2c in rfftn too), with d_2, d_3, ... = +-0.  Other
    lengths leave rounding off the axis, so such grids keep the n-D path.
    `total` sums the grid's own array, each line value repeated `copies`
    times in grid order, in the one pairwise reduction np.sum makes, so
    volume, mean and variance keep the grid's bits; `cells` and
    max_eigenvalue, and with it dt, stay the grid's.
    """

    def __init__(self, torus: FlatTorus, shape=None):
        self.base = torus
        self.n = n = torus.n
        self.shape = tuple(shape) if shape is not None else (16,) * n
        axes = [np.arange(N) / N * p for N, p in zip(self.shape, torus.periods)]
        grids = np.meshgrid(*axes, indexing="ij")
        self.points = np.stack([g.ravel() for g in grids], axis=1)
        self.cells = len(self.points)
        freqs = [2.0 * np.pi * np.fft.fftfreq(N, d=p / N)
                 for N, p in zip(self.shape, torus.periods)]
        self.k2 = sum(k ** 2 for k in np.meshgrid(*freqs, indexing="ij"))
        self.base_volume = torus.volume
        self.max_eigenvalue = float(np.max(self.k2))
        # multipliers on the rfftn half spectrum: -|k|^2, then i k_a with the
        # Nyquist mode zeroed, as the real part of a derivative drops it
        dfreqs = [np.where(np.arange(N) == N / 2, 0.0, f)
                  for N, f in zip(self.shape, freqs)]
        dk = np.meshgrid(*dfreqs, indexing="ij")
        half = self.shape[-1] // 2 + 1
        self._mult = np.stack([-self.k2] + [1j * d for d in dk])[..., :half]
        self._line_mult = None
        self.copies = 1

    def on_line(self, omega):
        """(grid, omega) carried on the x_1 line when omega is constant off
        the x_1 axis and x_2..x_n have power-of-two lengths, else unchanged."""
        if self._line_mult is not None:
            return self, omega
        w = omega.reshape(self.shape[0], -1)
        if any(N & (N - 1) for N in self.shape[1:]) or not np.all(w == w[:, :1]):
            return self, omega
        line = copy.copy(self)
        line.points, line.copies = self.points[:: w.shape[1]], w.shape[1]
        # the -k_1^2 and i k_1 rows on the x_1 axis, where the rest of k is 0
        line._line_mult = self._mult[:2].reshape(2, self.shape[0], -1)[..., 0]
        return line, w[:, 0]

    def _spectral(self, omega):
        if self._line_mult is not None:
            line = np.fft.ifft(self._line_mult * np.fft.fft(omega)).real
            return line[0], line[1] ** 2
        hat = np.fft.rfftn(omega.reshape(self.shape))
        axes = tuple(range(1, len(self.shape) + 1))
        out = np.fft.irfftn(self._mult * hat, s=self.shape, axes=axes)
        return out[0].ravel(), np.sum(out[1:] ** 2, axis=0).ravel()

    def vk(self, omega, k):
        if k != 1:
            raise ConfvolError(
                "torus flow evaluates v_k spectrally for k = 1 only")
        lap, grad2 = self._spectral(omega)
        return np.exp(-2.0 * omega) * (-lap - 0.5 * (self.n - 2) * grad2)

    def density(self, omega):
        return np.exp(self.n * omega)

    def total(self, values):
        return np.add.reduce(values if self.copies == 1
                             else values.repeat(self.copies))

    def volume(self, total):
        return self.base_volume * float(total / self.cells)

    def project(self, omega):
        return omega


class SphereZonal:
    """Zonal fields omega = f(y_axis) on a round sphere, 1D spectral grid."""

    def __init__(self, sphere: RoundSphere, nodes: int = 48, degree: int = 16):
        self.base, self.n = sphere, sphere.n
        n, L = sphere.n, sphere.radius
        xs, ws = gauss_jacobi(nodes, 0.0)
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
        n, L = self.n, self.base.radius
        coef = self.analysis @ omega
        if k == 1:
            lap = self.synth @ (-self.eigs * coef)
            dval = self.dsynth @ coef
            grad2 = (1.0 - self.t ** 2) / L ** 2 * dval ** 2
            R = n * (n - 1) / L ** 2
            return np.exp(-2.0 * omega) * (
                R / (2.0 * (n - 1)) - lap - 0.5 * (n - 2) * grad2)
        deformed = ConformalDeformation(self.base, self._field(omega))
        # v_direct refuses k > 3 before (-2)^k can overflow
        return v_direct(deformed, k, points=self.points) * (-2.0) ** k

    def density(self, omega):
        return self.w * np.exp(self.n * omega)

    def total(self, values):
        return np.add.reduce(values)

    def volume(self, total):
        return float(total)

    def project(self, omega):
        return self.synth @ (self.analysis @ omega)


class FlowState(NamedTuple):
    """omega and vk hold one value per disc.points: N_1 on a torus line;
    sup_deviation is the largest |vk - mean_vk|, computed with the state."""

    disc: object
    omega: np.ndarray
    k: int
    step: int
    volume: float
    vk: np.ndarray
    variance: float
    mean_vk: float
    sup_deviation: float


def _state(disc, omega, k: int, step: int) -> FlowState:
    """Project omega, fix the gauge by exact volume renormalization, and
    evaluate v_k with its mean and variance under one volume density."""
    omega = disc.project(omega)
    ratio = disc.volume(disc.total(disc.density(omega))) / disc.base_volume
    omega = omega - np.log(ratio) / disc.n
    vk = disc.vk(omega, k)
    density = disc.density(omega)
    total = disc.total(density)
    mean = float(disc.total(vk * density) / total)
    dev = vk - mean
    var = float(disc.total(dev ** 2 * density) / total)
    return FlowState(disc, omega, k, step, disc.volume(total), vk, var, mean,
                     float(np.maximum.reduce(np.abs(dev))))


def make_state(disc, omega0, k: int) -> FlowState:
    n = disc.n
    if n < 2:
        raise ConfvolError(f"n = {n} must be at least 2: v_1 = R / (2(n - 1))")
    if n == 2 * k:
        raise ConfvolError(
            f"F_{k} is conformally invariant in dimension {n}; no flow")
    omega = field_values(omega0, disc.points) if callable(omega0) \
        else np.asarray(omega0, dtype=float)
    if isinstance(disc, TorusGrid):
        disc, omega = disc.on_line(omega)
    with np.errstate(all="ignore"):
        state = _state(disc, omega, k, 0)
    if not np.isfinite(state.variance):
        raise NonFiniteResult(
            f"flow start overflows: the v_{k} variance is {state.variance}")
    return state


def flow_step(state: FlowState, dt: float) -> FlowState:
    """One explicit Euler step; raises StepRejected if the v_k variance grew
    or is not finite, or the trial metric overflows."""
    with np.errstate(all="ignore"):
        try:
            nxt = _state(state.disc, state.omega - dt * (state.vk - state.mean_vk),
                         state.k, state.step + 1)
        except NonFiniteResult as exc:      # the trial's metric overflows
            raise StepRejected(f"{exc} at dt = {dt:.3e}") from exc
    # a NaN variance fails this test too, so an overflowing trial is rejected
    if not nxt.variance <= state.variance * (1.0 + _VARIANCE_SLACK) + _VARIANCE_SLACK:
        raise StepRejected(f"variance grew {state.variance:.6e} -> "
                           f"{nxt.variance:.6e} at dt = {dt:.3e}")
    return nxt


class FlowReport(NamedTuple):
    converged: bool
    steps: int
    accepted: int
    rejected: int
    variance_history: np.ndarray
    final: FlowState
    final_constant: float
    volume_drift: float


def discretize(m: ModelMetric, **kw):
    """The flow grid of the model's kind; keywords go to its constructor."""
    if isinstance(m, FlatTorus):
        return TorusGrid(m, **kw)
    if isinstance(m, RoundSphere):
        return SphereZonal(m, **kw)
    raise ConfvolError(f"no flow discretization for {type(m).__name__}")


def run_flow(m: ModelMetric, k: int, omega0, tol: float = 1e-6,
             max_steps: int = 10000, **disc_kw) -> FlowReport:
    """Iterate flow_step with adaptive dt until sup|v_k - mean| < tol."""
    disc = discretize(m, **disc_kw)
    state = make_state(disc, omega0, k)
    dt = 0.5 / disc.max_eigenvalue
    # 5x Euler's 2/max_eigenvalue bound: stable only while unexcited modes stay 0
    dt_cap = 10.0 / disc.max_eigenvalue
    vol0 = state.volume
    variances = [state.variance]
    accepted = rejected = 0
    drift = 0.0
    while state.sup_deviation >= tol and accepted + rejected < max_steps:
        try:
            state = flow_step(state, dt)
        except StepRejected:
            rejected += 1
            dt *= 0.5
            if dt < 1e-16:
                break
            continue
        accepted += 1
        dt = min(dt * 1.2, dt_cap)
        variances.append(state.variance)
        drift = max(drift, abs(state.volume - vol0) / vol0)
    report = FlowReport(
        converged=state.sup_deviation < tol,
        steps=accepted + rejected, accepted=accepted, rejected=rejected,
        variance_history=np.asarray(variances),
        final=state, final_constant=state.mean_vk, volume_drift=drift,
    )
    if not report.converged:
        raise NoConvergence(
            f"flow stalled at sup deviation {state.sup_deviation:.3e} "
            f"after {report.steps} steps", report=report)
    return report
