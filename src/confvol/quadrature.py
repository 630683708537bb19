"""Integration of scalar fields over model manifolds.

Structured kinds use product grids with exact closed-form measures:
uniform (trapezoidal = spectral) grids on tori, Gauss-Jacobi in the
cosines of the polar angles times uniform azimuth on spheres and their
products, and the base grid reweighted by e^{n omega} on conformal
deformations.  Resolution doubles until two successive estimates agree.
Warped products have no grid here: renorm.bulk_coefficient_integral
reduces them to a radial rule.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .errors import ConfvolError, NumericalFailure, check_size
from .models import (
    ConformalDeformation,
    FlatTorus,
    ModelMetric,
    ProductOfSpheres,
    RoundSphere,
)
from .spectral import field_values, gauss_jacobi

_MAX_DOUBLINGS = 6
_MAX_NODES = 3_000_000


def integrate(m: ModelMetric, f=None, tol: float = 1e-10,
              resolution: int = 8) -> float:
    """Integral of f over (m, dv_g); f = None integrates the volume form.

    f receives the chart points as an array of shape (npts, n).
    """
    if f is None:
        vol = getattr(m, "volume", None)
        if vol is not None:
            return float(vol)
    prev = None
    res = resolution
    for _ in range(_MAX_DOUBLINGS + 1):
        val = _integrate_once(m, f, res)
        if prev is not None and abs(val - prev) < max(tol, tol * abs(val)):
            return val
        prev = val
        res *= 2
    raise NumericalFailure(
        f"quadrature not converged to {tol} (last delta "
        f"{abs(val - prev):.3e})")


def grid_with_weights(m: ModelMetric, resolution: int):
    """Chart nodes (npts, n) and weights summing to the volume of m."""
    if isinstance(m, FlatTorus):
        axes = [np.arange(resolution)[:, None] / resolution * p for p in m.periods]
        pts = _mesh_points(axes)
        w = np.full(pts.shape[0], np.prod(m.periods) / pts.shape[0])
        return pts, w
    if isinstance(m, (RoundSphere, ProductOfSpheres)):
        factors = ((m.n, m.radius),) if isinstance(m, RoundSphere) else m.factors
        # an S^d grid has 2 resolution^d nodes; refuse before exhausting memory
        check_size(f"the node count of the {type(m).__name__} grid at resolution "
                   f"{resolution} in dimension {m.n}",
                   prod(2 * resolution ** d for d, _ in factors), _MAX_NODES)
        parts = [_sphere_grid(d, r, resolution) for d, r in factors]
        pts = _mesh_points([p for p, _ in parts])
        ws = _mesh_points([w[:, None] for _, w in parts])
        return pts, np.prod(ws, axis=1)
    if isinstance(m, ConformalDeformation):
        pts, w = grid_with_weights(m.base, resolution)
        om = field_values(m.omega, pts)
        return pts, w * np.exp(m.n * om)
    raise ConfvolError(f"no quadrature rule for model kind {type(m).__name__}")


def _integrate_once(m: ModelMetric, f, resolution: int) -> float:
    pts, w = grid_with_weights(m, resolution)
    if f is None:
        return float(np.sum(w))
    return float(np.sum(w * np.asarray(f(pts), dtype=float)))


def _mesh_points(parts):
    """Cartesian product of point sets, concatenating coordinates."""
    out = parts[0]
    for nxt in parts[1:]:
        a = np.repeat(out, nxt.shape[0], axis=0)
        b = np.tile(nxt, (out.shape[0], 1))
        out = np.concatenate([a, b], axis=1)
    return out


def _sphere_grid(n: int, radius: float, resolution: int):
    """Product-angle grid on S^n mapped to the stereographic chart.

    Hyperspherical angles: n-1 polar angles and one uniform azimuth.  The
    polar weight sin^k(theta) d theta is (1 - t^2)^((k-1)/2) dt in
    t = cos(theta), so Gauss-Jacobi in t integrates ambient polynomials of
    degree below 2 * resolution exactly.
    """
    polar_nodes = []
    polar_weights = []
    for k in range(n - 1, 0, -1):       # weight sin^k(theta)
        ts, ws = gauss_jacobi(resolution, 0.5 * (k - 1))
        polar_nodes.append(np.arccos(ts))
        polar_weights.append(ws)
    phi = 2.0 * np.pi * np.arange(2 * resolution) / (2 * resolution)
    wphi = np.full(2 * resolution, 2.0 * np.pi / (2 * resolution))
    angles = _mesh_points([a[:, None] for a in polar_nodes + [phi]])
    w = _mesh_points([a[:, None] for a in polar_weights + [wphi]]).prod(axis=1)
    w = w * radius ** n

    # ambient unit coordinates: y_{n+1} = cos t_1; y_n = sin t_1 cos t_2; ...;
    # y_2 = sin t_1 .. sin t_{n-1} cos phi; y_1 = sin t_1 .. sin t_{n-1} sin phi
    npts = angles.shape[0]
    y = np.empty((npts, n + 1))
    sin_prod = np.ones(npts)
    for i in range(n - 1):
        y[:, n - i] = sin_prod * np.cos(angles[:, i])
        sin_prod = sin_prod * np.sin(angles[:, i])
    y[:, 1] = sin_prod * np.cos(angles[:, n - 1])
    y[:, 0] = sin_prod * np.sin(angles[:, n - 1])

    # inverse stereographic chart: x_i = radius * y_i / (1 + y_{n+1})
    denom = 1.0 + y[:, n]
    x = radius * y[:, :n] / denom[:, None]
    return x, w
