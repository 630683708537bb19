"""Model Riemannian metrics with jet-evaluable chart components.

Every model exposes its dimension ``n`` and a ``chart`` method mapping a
list of coordinate jets to the (n, n) matrix of metric components as a
single Jet with leading tensor axes.  Structured kinds (spheres, flat
tori, products, warped radial metrics) additionally carry closed-form
data used by fast curvature paths and exact quadrature measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import jets
from .errors import NonPositiveDefinite
from .jets import Jet


class ModelMetric:
    """Base class; concrete kinds are frozen dataclasses below."""

    n: int

    def chart(self, x: Sequence[Jet]) -> Jet:
        raise NotImplementedError

    def sample_points(self, count: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


def _delta_matrix(x: Sequence[Jet], scale=None) -> Jet:
    space = x[0].space
    batch = x[0].c.shape[:-1]
    n = len(x)
    one = Jet.constant(space, np.ones(batch))
    zero = Jet.constant(space, np.zeros(batch))
    diag = one if scale is None else scale
    return jets.stack([[diag if i == j else zero for j in range(n)] for i in range(n)])


@dataclass(frozen=True)
class RoundSphere(ModelMetric):
    """Round n-sphere of given radius, stereographic chart."""

    n: int
    radius: float = 1.0

    def chart(self, x):
        L2 = self.radius ** 2
        s2 = x[0] * x[0]
        for xi in x[1:]:
            s2 = s2 + xi * xi
        conf = (2.0 * L2 / (L2 + s2)) ** 2
        return _delta_matrix(x, scale=conf)

    def sample_points(self, count, rng):
        pts = rng.normal(size=(count, self.n)) * (0.4 * self.radius)
        return pts

    @property
    def volume(self) -> float:
        return sphere_volume(self.n, self.radius)


@dataclass(frozen=True)
class HyperbolicSpace(ModelMetric):
    """Hyperbolic n-space (ball model); noncompact, chart |x| < radius."""

    n: int
    radius: float = 1.0

    def chart(self, x):
        L2 = self.radius ** 2
        s2 = x[0] * x[0]
        for xi in x[1:]:
            s2 = s2 + xi * xi
        conf = (2.0 * L2 / (L2 - s2)) ** 2
        return _delta_matrix(x, scale=conf)

    def sample_points(self, count, rng):
        pts = rng.normal(size=(count, self.n))
        norms = np.linalg.norm(pts, axis=1, keepdims=True)
        radii = 0.5 * self.radius * rng.uniform(0.05, 0.9, size=(count, 1))
        return pts / np.maximum(norms, 1e-12) * radii


@dataclass(frozen=True)
class FlatTorus(ModelMetric):
    """Flat torus with the given period vector; identity chart metric."""

    periods: tuple

    def __post_init__(self):
        object.__setattr__(self, "periods", tuple(float(p) for p in self.periods))

    @property
    def n(self) -> int:
        return len(self.periods)

    def chart(self, x):
        return _delta_matrix(x)

    def sample_points(self, count, rng):
        u = rng.uniform(size=(count, self.n))
        return u * np.asarray(self.periods)

    @property
    def volume(self) -> float:
        return float(np.prod(self.periods))


@dataclass(frozen=True)
class ProductOfSpheres(ModelMetric):
    """Riemannian product of round spheres, factors = ((dim, radius), ...)."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "factors", tuple((int(d), float(r)) for d, r in self.factors)
        )

    @property
    def n(self) -> int:
        return sum(d for d, _ in self.factors)

    def chart(self, x):
        space = x[0].space
        batch = x[0].c.shape[:-1]
        zero = Jet.constant(space, np.zeros(batch))
        n = self.n
        rows = [[zero for _ in range(n)] for _ in range(n)]
        offset = 0
        for d, r in self.factors:
            block = RoundSphere(d, r).chart(x[offset:offset + d])
            for i in range(d):
                for j in range(d):
                    rows[offset + i][offset + j] = block[i, j]
            offset += d
        return jets.stack(rows)

    def sample_points(self, count, rng):
        parts = [
            RoundSphere(d, r).sample_points(count, rng) for d, r in self.factors
        ]
        return np.concatenate(parts, axis=1)

    @property
    def volume(self) -> float:
        return float(np.prod([sphere_volume(d, r) for d, r in self.factors]))


@dataclass(frozen=True)
class WarpedRadial(ModelMetric):
    """Metric dr^2 + f(r)^2 h on (r0, rmax) x fiber, h the fiber metric."""

    warp: Callable
    fiber: ModelMetric
    r_range: tuple

    @property
    def n(self) -> int:
        return 1 + self.fiber.n

    def chart(self, x):
        r = x[0]
        f2 = self.warp(r) ** 2
        fib = self.fiber.chart(x[1:])
        space = r.space
        batch_fib = fib.c.shape[2:-1]
        zero = Jet.constant(space, np.zeros(batch_fib))
        one = Jet.constant(space, np.ones(batch_fib))
        q = self.fiber.n
        rows = [[one] + [zero] * q]
        for i in range(q):
            rows.append([zero] + [f2 * fib[i, j] for j in range(q)])
        return jets.stack(rows)

    def sample_points(self, count, rng):
        r0, rmax = self.r_range
        rs = rng.uniform(r0 + 0.1 * (rmax - r0), r0 + 0.9 * (rmax - r0), size=(count, 1))
        return np.concatenate([rs, self.fiber.sample_points(count, rng)], axis=1)


@dataclass(frozen=True)
class ConformalDeformation(ModelMetric):
    """e^{2 omega} times a base metric; omega is a jet-evaluable field."""

    base: ModelMetric
    omega: Callable

    @property
    def n(self) -> int:
        return self.base.n

    def chart(self, x):
        return jets.exp(2.0 * self.omega(x)) * self.base.chart(x)

    def sample_points(self, count, rng):
        return self.base.sample_points(count, rng)


# -- Einstein bookkeeping -------------------------------------------------


def einstein_constant(m: ModelMetric):
    """Einstein constant a (Ric = 2a(n-1)g) for structured kinds, else None."""
    if isinstance(m, RoundSphere):
        return 1.0 / (2.0 * m.radius ** 2)
    if isinstance(m, HyperbolicSpace):
        return -1.0 / (2.0 * m.radius ** 2)
    if isinstance(m, FlatTorus):
        return 0.0
    if isinstance(m, ProductOfSpheres):
        n = m.n
        ratios = [(d - 1) / r ** 2 for d, r in m.factors]
        if max(ratios) - min(ratios) < 1e-13:
            return ratios[0] / (2.0 * (n - 1))
        return None
    if isinstance(m, ConformalDeformation):
        # only a constant conformal factor preserves the Einstein property
        probe = m.omega([Jet.variable(jets.jet_space(m.n, 1), v, 0.0)
                         for v in range(m.n)])
        if isinstance(probe, Jet):
            grad = probe.gradient_value()
            if np.max(np.abs(grad)) > 1e-13:
                return None
            base_a = einstein_constant(m.base)
            if base_a is None:
                return None
            return base_a * float(np.exp(-2.0 * probe.value))
        return None
    return None


def einstein_model(n: int, a: float) -> ModelMetric:
    """Space form with Ric = 2a(n-1)g; self-checked on construction."""
    if a > 0:
        model = RoundSphere(n, 1.0 / np.sqrt(2.0 * a))
    elif a == 0:
        model = FlatTorus((1.0,) * n)
    else:
        model = HyperbolicSpace(n, 1.0 / np.sqrt(-2.0 * a))
    from .curvature import curvature_pack  # deferred: avoids import cycle

    rng = np.random.default_rng(7)
    pack = curvature_pack(model, model.sample_points(2, rng), want_bach=False,
                          method="chart")
    target = 2.0 * a * (n - 1) * pack.metric
    resid = np.max(np.abs(pack.ricci - target))
    scale = max(1.0, float(np.max(np.abs(pack.metric))))
    if resid > 1e-10 * scale * max(1.0, abs(2 * a * (n - 1))):
        raise NonPositiveDefinite(
            f"einstein self-check failed: residual {resid:.3e}")
    return model


# -- scalar fields ---------------------------------------------------------


def sphere_embedding(m: RoundSphere, x: Sequence[Jet]):
    """Unit-sphere embedding components of the stereographic chart point."""
    L2 = m.radius ** 2
    s2 = x[0] * x[0]
    for xi in x[1:]:
        s2 = s2 + xi * xi
    inv = 1.0 / (L2 + s2)
    comps = [2.0 * m.radius * xi * inv for xi in x]
    comps.append((L2 - s2) * inv)
    return comps


def zonal_field(m: RoundSphere, poly_coeffs: np.ndarray, axis: int):
    """Field sum_p c_p * yhat_axis^p on the sphere (yhat the unit embedding)."""
    coeffs = np.asarray(poly_coeffs, dtype=float)

    def field(x):
        t = sphere_embedding(m, x)[axis]
        out = coeffs[-1] * (t * 0.0 + 1.0) if isinstance(t, Jet) else coeffs[-1]
        for c in coeffs[-2::-1]:
            out = out * t + c
        return out

    return field


def combined_field(fields, weights):
    weights = np.asarray(weights, dtype=float)

    def field(x):
        out = weights[0] * fields[0](x)
        for w, f in zip(weights[1:], fields[1:]):
            out = out + w * f(x)
        return out

    return field


def fourier_field(torus: FlatTorus, mode: Sequence[int], amplitude: float = 1.0,
                  phase: float = 0.0):
    """amplitude * cos(2 pi sum_i m_i x_i / p_i + phase) on a flat torus."""
    mode = tuple(int(v) for v in mode)

    def field(x):
        arg = 0.0
        for mi, xi, pi in zip(mode, x, torus.periods):
            if mi:
                arg = arg + (2.0 * np.pi * mi / pi) * xi
        return amplitude * jets.cos(arg + phase)

    return field


# -- misc -----------------------------------------------------------------


def sphere_volume(n: int, radius: float = 1.0) -> float:
    from math import gamma, pi

    return 2.0 * pi ** ((n + 1) / 2.0) / gamma((n + 1) / 2.0) * radius ** n

