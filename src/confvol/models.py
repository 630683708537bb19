"""Model Riemannian metrics with jet-evaluable chart components.

Every model exposes its dimension ``n`` and a ``chart`` method mapping a
list of coordinate jets to the (n, n) matrix of metric components as a
single Jet with leading tensor axes.  Structured kinds (spheres, flat
tori, products, warped radial metrics) additionally carry closed-form
data used by fast curvature paths and exact quadrature measures.
Coordinate lists from ``jets.coordinates`` carry a memo, so a sphere chart
and its zonal fields on one list form |x|^2 and 1/(L^2 + |x|^2) once per
radius; slices, such as a product factor's block, carry none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import jets
from .jets import Jet


class ModelMetric:
    """Base class; concrete kinds are frozen dataclasses below."""

    n: int

    def chart(self, x: Sequence[Jet]) -> Jet:
        raise NotImplementedError

    def sample_points(self, count: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


def _delta_matrix(x: Sequence[Jet], scale: Jet | None = None) -> Jet:
    """Diagonal chart metric: ``scale`` (1 when None) on the diagonal."""
    n = len(x)
    diag = scale if scale is not None else Jet.constant(
        x[0].space, np.ones(x[0].c.shape[:-1]))
    c = np.zeros((n, n) + diag.c.shape, dtype=diag.c.dtype)
    c[np.arange(n), np.arange(n)] = diag.c
    return Jet(diag.space, c)


@dataclass(frozen=True)
class RoundSphere(ModelMetric):
    """Round n-sphere of given radius, stereographic chart."""

    n: int
    radius: float = 1.0

    def chart(self, x):
        return _delta_matrix(x, scale=self.conformal_factor(x))

    def conformal_factor(self, x):
        """(2 L^2 (1 / (L^2 + |x|^2)))^2 at coordinate jets or arrays x."""
        _, inv = _stereographic(self.radius, x)
        return (2.0 * self.radius ** 2 * inv) ** 2

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
        return _delta_matrix(x, scale=self.conformal_factor(x))

    def conformal_factor(self, x):
        """(1 / (L^2 - |x|^2) (2 L^2))^2 at coordinate jets or arrays x."""
        L2 = self.radius ** 2
        return (1.0 / (L2 - _sum_of_squares(x)) * (2.0 * L2)) ** 2

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
        c = np.zeros((self.n, self.n) + x[0].c.shape)
        offset = 0
        for d, r in self.factors:
            block = slice(offset, offset + d)
            c[block, block] = RoundSphere(d, r).chart(x[block]).c
            offset += d
        return Jet(x[0].space, c)

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
        fib = self.warp(x[0]) ** 2 * self.fiber.chart(x[1:])
        c = np.zeros((self.n, self.n) + fib.c.shape[2:], dtype=fib.c.dtype)
        c[0, 0, ..., 0] = 1.0
        c[1:, 1:] = fib.c
        return Jet(fib.space, c)

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


def metric_values(m: ModelMetric, points) -> np.ndarray:
    """Metric components of ``m`` at chart points (npts, n), shape (npts, n, n):
    from ``metric_diagonal`` where it applies, else the chart on order-0 jets."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    diag = metric_diagonal(m, points)
    if diag is None:
        x = jets.coordinates(jets.jet_space(m.n, 0), points.T)
        return np.moveaxis(m.chart(x).value, -1, 0)
    return diag[:, :, None] * np.eye(m.n)


def metric_diagonal(m: ModelMetric, points: np.ndarray) -> np.ndarray | None:
    """Diagonal (npts, n) of the chart metric of a flat torus, space form,
    product of round spheres or warped product over a round sphere; None
    for any other kind.  Each kind applies its chart's operations, in their
    order, to coordinate arrays, so the two agree to the bit."""
    x = points.T
    if isinstance(m, FlatTorus):
        return np.ones(points.shape)
    if isinstance(m, (RoundSphere, HyperbolicSpace)):
        return np.repeat(m.conformal_factor(x)[:, None], m.n, axis=1)
    if isinstance(m, ProductOfSpheres):
        cuts = np.cumsum([0] + [d for d, _ in m.factors])
        return np.concatenate([metric_diagonal(RoundSphere(d, r), points[:, lo:hi])
                               for (d, r), lo, hi in zip(m.factors, cuts, cuts[1:])],
                              axis=1)
    if isinstance(m, WarpedRadial) and isinstance(m.fiber, RoundSphere):
        fiber = metric_diagonal(m.fiber, points[:, 1:])
        # the warp on an order-0 jet: a jet power is a product chain, where
        # an array power may round differently
        f = m.warp(Jet.variable(jets.jet_space(1, 0), 0, x[0])).value
        return np.concatenate([np.ones((len(points), 1)),
                               (f * f)[:, None] * fiber], axis=1)
    return None


# -- Einstein bookkeeping -------------------------------------------------


def einstein_constant(m: ModelMetric):
    """Einstein constant a (Ric = 2a(n-1)g) of the Einstein kinds, else None.
    Decided by kind, as ``conformally_flat`` is: a conformal deformation is
    never one, even with a constant factor; direct formulas serve it."""
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


_SPACE_FORMS = (RoundSphere, HyperbolicSpace, FlatTorus)


def conformally_flat(m: ModelMetric) -> bool:
    """Whether the kind is locally conformally flat by construction: a space
    form, a conformal deformation of such a kind, or dr^2 + f^2 h over a
    space form h, since that is f^2 (ds^2 + h) with ds = dr / f.  Decided by
    kind only, never by a numerical Weyl test (Weyl vanishes at n = 3)."""
    if isinstance(m, ConformalDeformation):
        return conformally_flat(m.base)
    if isinstance(m, WarpedRadial):
        return isinstance(m.fiber, _SPACE_FORMS)
    return isinstance(m, _SPACE_FORMS)


def einstein_model(n: int, a: float) -> ModelMetric:
    """Space form with Ric = 2a(n-1)g: the round sphere of radius
    1/sqrt(2a) for a > 0, the unit flat torus for a = 0 and hyperbolic
    space of radius 1/sqrt(-2a) for a < 0."""
    if a > 0:
        return RoundSphere(n, 1.0 / np.sqrt(2.0 * a))
    if a == 0:
        return FlatTorus((1.0,) * n)
    return HyperbolicSpace(n, 1.0 / np.sqrt(-2.0 * a))


# -- scalar fields ---------------------------------------------------------


def _sum_of_squares(x):
    """x_0^2 + x_1^2 + ..., added left to right, of jets or arrays."""
    s2 = x[0] * x[0]
    for xi in x[1:]:
        s2 = s2 + xi * xi
    return s2


def _stereographic(radius: float, x: Sequence[Jet]):
    """(|x|^2, 1/(L^2 + |x|^2)) at radius L, once per list with a memo."""
    memo = getattr(x, "memo", {})
    if radius not in memo:
        s2 = _sum_of_squares(x)
        memo[radius] = (s2, 1.0 / (radius ** 2 + s2))
    return memo[radius]


def _embedding_component(m: RoundSphere, x: Sequence[Jet], axis: int):
    """Unit-sphere embedding component ``axis`` of the stereographic chart
    point: 2 L x_axis / (L^2 + |x|^2), at axis n (L^2 - |x|^2) / (L^2 + |x|^2)."""
    s2, inv = _stereographic(m.radius, x)
    if axis == m.n:
        return (m.radius ** 2 - s2) * inv
    return 2.0 * m.radius * x[axis] * inv


def zonal_field(m: RoundSphere, poly_coeffs: np.ndarray, axis: int):
    """Field sum_p c_p * yhat_axis^p on the sphere (yhat the unit embedding,
    axis in 0..n)."""
    coeffs = np.asarray(poly_coeffs, dtype=float)

    def field(x):
        t = _embedding_component(m, x, axis)
        # Horner from the float c_last: its product with t is a plain scale
        out = coeffs[-1] if len(coeffs) > 1 else coeffs[-1] + 0.0 * t
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

