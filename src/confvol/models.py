"""Model Riemannian metrics with jet-evaluable chart components.

Every model exposes its dimension ``n`` and a ``chart`` method mapping a
list of coordinate jets to the (n, n) matrix of metric components as a
single Jet with leading tensor axes.  ``closed_form`` gives the metric
and curvature of the kinds that need no jets: flat tori, space forms,
products of round spheres and warped products over these, recursively.
Coordinate lists from ``jets.coordinates`` carry a memo, so a sphere chart
and its zonal fields on one list form |x|^2 and 1/(L^2 + |x|^2) once per
radius; slices, such as a product factor's block, carry none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import jets
from .errors import InvalidRange, NonPositiveDefinite
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
    """Metric components (npts, n, n) of a closed-form kind at chart points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return closed_form(m, points)[0][:, :, None] * np.eye(m.n)


def closed_form(m: ModelMetric, points: np.ndarray):
    """(metric diagonal (npts, n), block dimensions, terms) at chart points
    for a kind with closed-form curvature, or None for any other kind,
    decided before the metric is evaluated.  The diagonal applies the
    chart's operations, in their order, to arrays, so the two agree to the bit.

    Such a metric has orthogonal blocks h_a of dimension d_a, and its Riemann
    tensor is a sum of terms c * h_a KN h_b, listed as (c, a, b) with a <= b.
    The leaves are flat tori, space forms and products of round spheres; a
    factor of sectional curvature kappa gives (kappa / 2) h KN h.
    dr^2 + f(r)^2 h over any kind h with a closed form composes by O'Neill's
    formulas (Semi-Riemannian Geometry, 1983, ch. 7), with blocks dr^2 and
    f^2 h_a: a term (c, a, b) of h becomes c / f^2, the fiber curvature
    -f'^2 / f^2 adds -f'^2 / (2 f^2) to each pair (a, a) and -f'^2 / f^2 to
    each pair a < b, and the radial curvature -f''/f adds (-f''/f, 0, a).
    """
    x = points.T
    if isinstance(m, FlatTorus):
        return np.ones(points.shape), (m.n,), ()
    if isinstance(m, (RoundSphere, HyperbolicSpace)):
        half_kappa = 0.5 if isinstance(m, RoundSphere) else -0.5
        return (np.repeat(m.conformal_factor(x)[:, None], m.n, axis=1), (m.n,),
                ((half_kappa / m.radius ** 2, 0, 0),))
    if isinstance(m, ProductOfSpheres):
        cuts = np.cumsum([0] + [d for d, _ in m.factors])
        diag = np.concatenate([closed_form(RoundSphere(d, r), points[:, lo:hi])[0]
                               for (d, r), lo, hi in zip(m.factors, cuts, cuts[1:])],
                              axis=1)
        return (diag, tuple(d for d, _ in m.factors),
                tuple((0.5 / r ** 2, a, a) for a, (_, r) in enumerate(m.factors)))
    if not isinstance(m, WarpedRadial):
        return None
    fiber = closed_form(m.fiber, points[:, 1:])
    if fiber is None:
        return None
    diag, dims, terms = fiber
    f = m.warp(Jet.variable(jets.jet_space(1, 2), 0, x[0]))
    f, fp, fpp = f.value, f.diff(0).value, f.diff(0).diff(0).value
    if not np.all(f):              # refused before the terms divide by f^2
        raise NonPositiveDefinite("metric degenerate at a sampled point")
    coeff = {(a, b): c for c, a, b in terms}          # one term per pair
    pairs = [(a, b) for b in range(len(dims)) for a in range(b + 1)]
    # 0.5 (2c - f'^2) / f^2 is the pair's sum to the bit when c is a round
    # sphere's 1 / (2 L^2)
    terms = ([(-fpp / f, 0, a + 1) for a in range(len(dims))]
             + [(0.5 * (2.0 * coeff.get((a, b), 0.0) - (1 + (a < b)) * fp ** 2) / f ** 2,
                 a + 1, b + 1) for a, b in pairs])
    return (np.concatenate([np.ones((len(points), 1)), (f * f)[:, None] * diag], axis=1),
            (1,) + dims, tuple(terms))


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
    axis in 0..n), of the sphere's n chart coordinates."""
    coeffs = np.asarray(poly_coeffs, dtype=float)

    def field(x):
        if len(x) != m.n:
            raise InvalidRange(f"a zonal field of S^{m.n} given {len(x)} coordinates")
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

