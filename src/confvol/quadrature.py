"""Integration of scalar fields over model manifolds.

Structured kinds use product grids with exact closed-form measures:
uniform (trapezoidal = spectral) grids on tori, Gauss-Legendre in the
polar angles times uniform azimuth on spheres, Gauss-Legendre radially on
warped products.  Resolution doubles until two successive estimates agree.
"""

from __future__ import annotations

import numpy as np
from scipy.special import roots_legendre

from .errors import GridResolutionInsufficient
from .models import (
    ConformalDeformation,
    FlatTorus,
    ModelMetric,
    ProductOfSpheres,
    RoundSphere,
    WarpedRadial,
)
from .spectral import field_values

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
    raise GridResolutionInsufficient(
        f"quadrature not converged to {tol} (last delta "
        f"{abs(val - prev):.3e})")


def grid_with_weights(m: ModelMetric, resolution: int):
    """Chart nodes (npts, n) and weights summing to the volume of m."""
    if isinstance(m, FlatTorus):
        axes = [np.arange(resolution) / resolution * p for p in m.periods]
        pts = _mesh(axes)
        w = np.full(pts.shape[0], np.prod(m.periods) / pts.shape[0])
        return pts, w
    if isinstance(m, RoundSphere):
        # node count grows like resolution^(n-1); refuse before exhausting memory
        if 2 * resolution ** m.n > _MAX_NODES:
            raise GridResolutionInsufficient(
                f"sphere grid at resolution {resolution} in dimension {m.n} "
                f"exceeds the node budget")
        return _sphere_grid(m.n, m.radius, resolution)
    if isinstance(m, ProductOfSpheres):
        parts = [_sphere_grid(d, r, resolution) for d, r in m.factors]
        pts = _mesh_points([p for p, _ in parts])
        ws = _mesh_points([w[:, None] for _, w in parts])
        return pts, np.prod(ws, axis=1)
    if isinstance(m, WarpedRadial):
        r0, rmax = m.r_range
        xs, ws = roots_legendre(resolution * 4)
        rs = 0.5 * (rmax - r0) * xs + 0.5 * (rmax + r0)
        wr = 0.5 * (rmax - r0) * ws
        fpts, fw = grid_with_weights(m.fiber, resolution)
        q = m.fiber.n
        warp = np.asarray(m.warp(rs), dtype=float)
        pts = np.concatenate(
            [np.repeat(rs, len(fw))[:, None],
             np.tile(fpts, (len(rs), 1))], axis=1)
        w = (np.repeat(wr * warp ** q, len(fw))
             * np.tile(fw, len(rs)))
        return pts, w
    if isinstance(m, ConformalDeformation):
        pts, w = grid_with_weights(m.base, resolution)
        om = field_values(m.omega, pts)
        return pts, w * np.exp(m.n * om)
    raise GridResolutionInsufficient(
        f"no quadrature rule for model kind {type(m).__name__}")


def _integrate_once(m: ModelMetric, f, resolution: int) -> float:
    pts, w = grid_with_weights(m, resolution)
    if f is None:
        return float(np.sum(w))
    return float(np.sum(w * np.asarray(f(pts), dtype=float)))


def _mesh(axes):
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


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

    Hyperspherical angles: n-1 polar angles with sin^k weights (handled by
    Gauss-Legendre in the angle) and one uniform azimuth.
    """
    polar_nodes = []
    polar_weights = []
    for k in range(n - 1, 0, -1):       # weight sin^k(theta)
        xs, ws = roots_legendre(resolution)
        theta = 0.5 * np.pi * (xs + 1.0)
        w = 0.5 * np.pi * ws * np.sin(theta) ** k
        polar_nodes.append(theta)
        polar_weights.append(w)
    phi = 2.0 * np.pi * np.arange(2 * resolution) / (2 * resolution)
    wphi = np.full(2 * resolution, 2.0 * np.pi / (2 * resolution))
    axes = polar_nodes + [phi]
    waxes = polar_weights + [wphi]
    angles = _mesh(axes)
    w = _mesh([*waxes]).prod(axis=1) * radius ** n

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
