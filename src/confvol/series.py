"""Formal power series in the expansion parameter rho for metric families.

A MetricSeries stores the Taylor coefficients of a one-parameter family of
metrics g(rho) pointwise on a batch of chart points.  Volume coefficients
v_k come from the log-determinant expansion of (det g(rho)/det g)^{1/2};
the associated contravariant tensors L_(k), all computed in one pass, are
the Taylor coefficients of -v(rho) int_0^rho g^{ij}(u) du.

Every series is one family, g(rho) = (g + rho P) g^{-1} (g + rho P) with P
the Schouten tensor.  It is exact at every order on Einstein and on locally
conformally flat metrics, where the expansion terminates (Fefferman and
Graham, The Ambient Metric, ch. 7), and v_k is then sigma_k(g^{-1}P).
Einstein backgrounds (Ric = 2a(n-1)g) have P = a g, so the family is
(1 + a rho)^2 g, every quantity here has a closed form, and that closed
form is the primary oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .curvature import curvature_pack, sigma_k
from .errors import (
    DimensionFour,
    DimensionTooSmall,
    GeneralFGUnavailable,
    InvalidRange,
    KOutOfRange,
    NotEinstein,
)
from .models import ModelMetric, conformally_flat, einstein_constant, metric_values


@dataclass(frozen=True)
class MetricSeries:
    """Taylor coefficients g_0 + g_1 rho + ... + g_K rho^K at fixed points.

    coeffs has shape (K+1, npts, n, n); coeffs[0] is the base metric, and
    g(rho) is quadratic in rho, so coeffs[l] is zero for l > 2.
    einstein_a is the Einstein constant a of an Einstein model, whose
    Schouten tensor is P = a g, so that the closed forms einstein_vk_exact
    and einstein_L_exact apply; it is None on every other kind.  exact
    says that the series is g(rho) itself at every order, as it is on
    Einstein and conformally flat kinds, so that v_k is defined for every
    k, also past n/2 in even n.
    """

    n: int
    points: np.ndarray
    coeffs: np.ndarray
    K: int
    einstein_a: float | None = None
    exact: bool = False

    @property
    def g0(self) -> np.ndarray:
        return self.coeffs[0]


_DEFAULT_POINT_COUNT = 6
_TOP = 2        # degree of g(rho) in rho: g_l = 0 for l > _TOP


def _series_points(m: ModelMetric, points, count: int) -> np.ndarray:
    """The given points, else ``count`` samples of the model from seed 0."""
    if points is not None:
        return np.atleast_2d(np.asarray(points, dtype=float))
    return m.sample_points(count, np.random.default_rng(0))


def metric_series(m: ModelMetric, K: int = 1, points=None,
                  count: int = _DEFAULT_POINT_COUNT) -> MetricSeries:
    """Series of g(rho) = (g + rho P) g^{-1} (g + rho P) to order K:
    g_0 = g, g_1 = 2P, g_2 = P g^{-1} P and zero beyond.

    Exact at every order on Einstein and conformally flat kinds.  On other
    kinds only g_1 = 2P holds, so K > 1 is refused there.
    """
    if K < 0:
        raise InvalidRange(f"truncation order K = {K} must be nonnegative")
    a = einstein_constant(m)
    exact = a is not None or conformally_flat(m)
    if K > 1 and not exact:
        raise GeneralFGUnavailable(
            "general-metric series coefficients beyond order 1 are not constructed")
    pts = _series_points(m, points, count)
    if a is not None:
        # P = a g; no curvature pack, whose n^4 tensors dominate at large n
        g0 = metric_values(m, pts)
        P = a * g0
    else:
        pack = curvature_pack(m, pts)
        g0, P = pack.metric, pack.schouten
    coeffs = np.zeros((K + 1,) + g0.shape)
    coeffs[:_TOP + 1] = np.stack([g0, 2.0 * P, P @ np.linalg.solve(g0, P)])[: K + 1]
    return MetricSeries(n=m.n, points=pts, coeffs=coeffs, K=K, einstein_a=a,
                        exact=exact)


def einstein_series(m: ModelMetric, K: int | None = None, points=None,
                    count: int = _DEFAULT_POINT_COUNT) -> MetricSeries:
    """metric_series of an Einstein model, (1 + a rho)^2 g, to order K
    (default 2n + 2)."""
    if einstein_constant(m) is None:
        raise NotEinstein(f"{type(m).__name__} is not a recognized Einstein model")
    return metric_series(m, 2 * m.n + 2 if K is None else K, points, count)


def inverse_series(s: MetricSeries) -> np.ndarray:
    """Coefficients of g^{ij}(rho), shape (K+1, npts, n, n).

    Neumann recurrence: Ginv_m = -Ginv_0 sum_{j=1}^m g_j Ginv_{m-j}, where
    only g_1 and g_2 can be nonzero.
    """
    inv0 = np.linalg.inv(s.coeffs[0])
    out = np.empty_like(s.coeffs)
    out[0] = inv0
    for m in range(1, s.K + 1):
        acc = np.zeros_like(inv0)
        for j in range(1, min(m, _TOP) + 1):
            acc += s.coeffs[j] @ out[m - j]
        out[m] = -inv0 @ acc
    return out


def _check_order(s: MetricSeries):
    if not s.exact and s.n % 2 == 0 and s.K > s.n // 2:
        raise InvalidRange(
            f"v_k for k > n/2 = {s.n // 2} undefined for general metrics in even dimension")


def vk_from_series(s: MetricSeries) -> np.ndarray:
    """Volume coefficients of (det g(rho)/det g)^{1/2} up to the series
    order K, shape (K+1, npts); row k holds v_k = (-2)^k v^(2k) and reads
    only the coefficients g_0..g_k, so a row does not depend on K.

    Uses d/drho log det g = tr(g^{-1} g') termwise, then the exponential of
    half the log series.
    """
    _check_order(s)
    return _volume_values(s, inverse_series(s), s.K)


def _volume_values(s: MetricSeries, ginv: np.ndarray, kmax: int) -> np.ndarray:
    """v_0..v_kmax, shape (kmax+1, npts), from the inverse series ginv."""
    # derivative series g'(rho): coefficient l is (l+1) g_{l+1}
    npts = s.points.shape[0]
    t = np.zeros((kmax + 1, npts))     # tr(g^{-1} g'), coefficients 0..kmax-1 used
    for mdeg in range(kmax):
        # (l + 1) g_{l+1} is zero past l + 1 = _TOP
        for j in range(max(0, mdeg + 1 - _TOP), mdeg + 1):
            l = mdeg - j
            t[mdeg] += (l + 1) * np.einsum(
                "bij,bji->b", ginv[j], s.coeffs[l + 1])
    # v = (det g(rho) / det g)^{1/2} solves v' = (t / 2) v
    v = np.zeros((kmax + 1, npts))
    v[0] = 1.0
    for mdeg in range(1, kmax + 1):
        acc = np.zeros(npts)
        for j in range(1, mdeg + 1):
            acc += 0.5 * t[j - 1] * v[mdeg - j]
        v[mdeg] = acc / mdeg
    return v


def L_tensors(s: MetricSeries) -> np.ndarray:
    """Contravariant tensors L^{ij}_(k), the Taylor coefficients of
    -v(rho) int_0^rho g^{ij}(u) du, shape (K+1, npts, n, n).

    Row k holds L_(k) for k = 1..K; row 0, the constant term, is zero.
    """
    if s.K < 1:
        raise KOutOfRange(f"series order K = {s.K} must be at least 1")
    _check_order(s)
    ginv = inverse_series(s)
    vk = _volume_values(s, ginv, s.K - 1)
    out = np.zeros((s.K + 1,) + ginv.shape[1:])
    for k in range(1, s.K + 1):
        # coefficient of rho^k in v(rho) * int_0^rho g^{ij}(u) du, where the
        # integral contributes Ginv_l rho^{l+1} / (l+1)
        direct = np.zeros_like(ginv[0])
        for l in range(k):             # integral term rho^{l+1}, v term rho^{k-1-l}
            direct += vk[k - 1 - l][:, None, None] * ginv[l] / (l + 1)
        out[k] = -direct
    return out


def v_direct(m: ModelMetric, k: int, points=None,
             count: int = _DEFAULT_POINT_COUNT) -> np.ndarray:
    """v^(2k) pointwise from curvature; convert to v_k with (-2)^k.

    v^(2) = -R / (4(n-1)), and for k >= 2
    v^(2k) = (-1/2)^k [sigma_k(g^{-1}P) + P^{ij}B_{ij} / (3(n-4))],
    where the Bach term enters at k = 3 only.  On conformally flat kinds
    the expansion terminates, Bach vanishes and the formula holds for every
    k <= n without it; other kinds take Bach and stop at k = 3.
    """
    n = m.n
    if k >= 2 and n < 3:
        raise DimensionTooSmall(
            f"v^({2 * k}) needs the Schouten tensor, undefined at n = {n}")
    flat = conformally_flat(m)
    kmax = n if flat else 3
    if not 1 <= k <= kmax:
        raise KOutOfRange(f"direct formulas cover k in 1..{kmax} for "
                          f"{type(m).__name__}, got {k}")
    want_bach = k == 3 and not flat
    if want_bach and n == 4:
        raise DimensionFour("the sixth-order coefficient formula is singular at n = 4")
    pts = _series_points(m, points, count)
    return _vk_from_pack(curvature_pack(m, pts, want_bach=want_bach), k)


def _vk_from_pack(pack, k: int) -> np.ndarray:
    """v^(2k) of v_direct from a curvature pack; Bach enters at k = 3 if held."""
    n = pack.n
    if k == 1:
        return -pack.scalar / (4.0 * (n - 1))
    vk = sigma_k(pack.schouten, pack.metric, k)
    if k == 3 and pack.bach is not None:
        p_up = np.einsum("bik,bjl,bkl->bij", pack.inverse, pack.inverse, pack.schouten)
        vk = vk + np.einsum("bij,bij->b", p_up, pack.bach) / (3.0 * (n - 4))
    return (-0.5) ** k * vk


def einstein_vk_exact(n: int, a: float, k: int) -> float:
    """Closed-form v_k = a^k binom(n, k) for Einstein backgrounds (0 for k > n)."""
    if k < 0:
        raise KOutOfRange(f"k = {k} must be nonnegative")
    return a ** k * comb(n, k)


def einstein_L_exact(n: int, a: float, k: int) -> float:
    """Closed-form scalar c with L^{ij}_(k) = c g^{ij}: c = -a^{k-1} binom(n-1, k-1)."""
    if k < 1:
        raise KOutOfRange(f"k = {k} must be at least 1")
    return -(a ** (k - 1)) * comb(n - 1, k - 1)
