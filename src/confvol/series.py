"""Formal power series in the expansion parameter rho for metric families.

A MetricSeries stores the Taylor coefficients of a one-parameter family of
metrics g(rho) pointwise on a batch of chart points.  Volume coefficients
v_k come from the log-determinant expansion of (det g(rho)/det g)^{1/2};
the associated contravariant tensors L_(k) are the Taylor coefficients of
-v(rho) int_0^rho g^{ij}(u) du.

Einstein backgrounds (Ric = 2a(n-1)g) have the closed family
g(rho) = (1 + a rho)^2 g, which makes every quantity here available in
closed form and serves as the primary oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .curvature import curvature_pack, sigma_k
from .errors import (
    DimensionFour,
    GeneralFGUnavailable,
    InvalidRange,
    KOutOfRange,
    NotEinstein,
    TruncationTooShort,
)
from .models import ModelMetric, einstein_constant


@dataclass(frozen=True)
class MetricSeries:
    """Taylor coefficients g_0 + g_1 rho + ... + g_K rho^K at fixed points.

    coeffs has shape (K+1, npts, n, n); coeffs[0] is the base metric.
    einstein_a is the Einstein constant when the family is the closed
    Einstein one (the series is then exact at every order), else None.
    """

    n: int
    points: np.ndarray
    coeffs: np.ndarray
    K: int
    einstein_a: float | None = None

    @property
    def g0(self) -> np.ndarray:
        return self.coeffs[0]


@dataclass(frozen=True)
class VolumeCoefficients:
    """v_0..v_K pointwise; v2k(k) gives v^(2k) = v_k / (-2)^k."""

    values: np.ndarray          # shape (K+1, npts)

    def vk(self, k: int) -> np.ndarray:
        if k >= self.values.shape[0]:
            raise TruncationTooShort(f"v_{k} beyond stored order {self.values.shape[0] - 1}")
        return self.values[k]

    def v2k(self, k: int) -> np.ndarray:
        return self.vk(k) / (-2.0) ** k


@dataclass(frozen=True)
class LTensor:
    """Contravariant symmetric 2-tensor L^{ij}_(k), pointwise."""

    k: int
    components: np.ndarray      # shape (npts, n, n)


_DEFAULT_POINT_COUNT = 6


def _series_points(m: ModelMetric, points, count: int, seed: int) -> np.ndarray:
    if points is not None:
        return np.atleast_2d(np.asarray(points, dtype=float))
    rng = np.random.default_rng(seed)
    return m.sample_points(count, rng)


def einstein_series(m: ModelMetric, K: int | None = None, points=None,
                    count: int = _DEFAULT_POINT_COUNT, seed: int = 0) -> MetricSeries:
    """Series of the closed Einstein family g(rho) = (1 + a rho)^2 g.

    Coefficients: g_l = binom(2, l) a^l g for l <= 2, zero beyond.
    """
    a = einstein_constant(m)
    if a is None:
        raise NotEinstein(f"{type(m).__name__} is not a recognized Einstein model")
    n = m.n
    if K is None:
        K = 2 * n + 2
    if K < 0:
        raise InvalidRange(f"truncation order K = {K} must be nonnegative")
    pts = _series_points(m, points, count, seed)
    g0 = curvature_pack(m, pts, want_bach=False).metric
    coeffs = np.zeros((K + 1,) + g0.shape)
    for l in range(min(K, 2) + 1):
        coeffs[l] = comb(2, l) * a ** l * g0
    return MetricSeries(n=n, points=pts, coeffs=coeffs, K=K, einstein_a=a)


def first_order_series(m: ModelMetric, K: int = 1, points=None,
                       count: int = _DEFAULT_POINT_COUNT, seed: int = 0) -> MetricSeries:
    """General-metric series to first order: g_1 = 2P (P the Schouten tensor).

    Higher coefficients for non-Einstein metrics require the full expansion
    recursion, which is out of scope here.
    """
    if K > 1:
        raise GeneralFGUnavailable(
            "general-metric series coefficients beyond order 1 are not constructed")
    a = einstein_constant(m)
    if a is not None:
        return einstein_series(m, K=K, points=points, count=count, seed=seed)
    pts = _series_points(m, points, count, seed)
    pack = curvature_pack(m, pts, want_bach=False)
    coeffs = np.zeros((K + 1,) + pack.metric.shape)
    coeffs[0] = pack.metric
    if K >= 1:
        coeffs[1] = 2.0 * pack.schouten
    return MetricSeries(n=m.n, points=pts, coeffs=coeffs, K=K, einstein_a=None)


def inverse_series(s: MetricSeries) -> np.ndarray:
    """Coefficients of g^{ij}(rho), shape (K+1, npts, n, n).

    Neumann recurrence: Ginv_m = -Ginv_0 sum_{j=1}^m g_j Ginv_{m-j}.
    """
    inv0 = np.linalg.inv(s.coeffs[0])
    out = np.empty_like(s.coeffs)
    out[0] = inv0
    for m in range(1, s.K + 1):
        acc = np.zeros_like(inv0)
        for j in range(1, m + 1):
            acc += s.coeffs[j] @ out[m - j]
        out[m] = -inv0 @ acc
    return out


def _check_order(s: MetricSeries, kmax: int):
    if kmax > s.K:
        raise TruncationTooShort(f"order {kmax} requested, series truncated at {s.K}")
    if (s.einstein_a is None and s.n % 2 == 0 and kmax > s.n // 2):
        raise InvalidRange(
            f"v_k for k > n/2 = {s.n // 2} undefined for general metrics in even dimension")


def vk_from_series(s: MetricSeries, kmax: int | None = None) -> VolumeCoefficients:
    """Volume coefficients v_k of (det g(rho)/det g)^{1/2} up to order kmax.

    Uses d/drho log det g = tr(g^{-1} g') termwise, then the exponential of
    half the log series.
    """
    kmax = s.K if kmax is None else kmax
    _check_order(s, kmax)
    ginv = inverse_series(s)
    # derivative series g'(rho): coefficient l is (l+1) g_{l+1}
    npts = s.points.shape[0]
    t = np.zeros((kmax + 1, npts))     # tr(g^{-1} g'), coefficients 0..kmax-1 used
    for mdeg in range(kmax):
        for j in range(mdeg + 1):
            l = mdeg - j
            t[mdeg] += (l + 1) * np.einsum(
                "bij,bji->b", ginv[j], s.coeffs[l + 1])
    # w = log det ratio: w_0 = 0, w_m = t_{m-1} / m
    w = np.zeros((kmax + 1, npts))
    for mdeg in range(1, kmax + 1):
        w[mdeg] = t[mdeg - 1] / mdeg
    # v = exp(w / 2) via v' = (w/2)' v
    v = np.zeros((kmax + 1, npts))
    v[0] = 1.0
    for mdeg in range(1, kmax + 1):
        acc = np.zeros(npts)
        for j in range(1, mdeg + 1):
            acc += j * 0.5 * w[j] * v[mdeg - j]
        v[mdeg] = acc / mdeg
    return VolumeCoefficients(values=v)


def L_tensor(s: MetricSeries, k: int) -> LTensor:
    """Contravariant tensor L^{ij}_(k), the k-th Taylor coefficient of
    -v(rho) int_0^rho g^{ij}(u) du.
    """
    if k < 1:
        raise KOutOfRange(f"k = {k} must be at least 1")
    if k > s.K:
        raise TruncationTooShort(f"L_({k}) needs series order {k}, have {s.K}")
    if s.einstein_a is None and s.n % 2 == 0 and k > s.n // 2:
        raise InvalidRange(
            f"L_(k) for k > n/2 = {s.n // 2} undefined for general metrics in even dimension")
    ginv = inverse_series(s)
    vk = vk_from_series(s, kmax=k - 1).values

    # coefficient of rho^k in v(rho) * int_0^rho g^{ij}(u) du, where the
    # integral contributes Ginv_{l} rho^{l+1} / (l+1)
    direct = np.zeros_like(ginv[0])
    for l in range(k):                 # integral term rho^{l+1}, v term rho^{k-1-l}
        direct += vk[k - 1 - l][:, None, None] * ginv[l] / (l + 1)
    return LTensor(k=k, components=-direct)


def v_direct(m: ModelMetric, k: int, points=None,
             count: int = _DEFAULT_POINT_COUNT, seed: int = 0) -> np.ndarray:
    """v^(2k) pointwise from curvature, k in {1, 2, 3}.

    v^(2) = -R / (4(n-1)); v^(4) = sigma_2(g^{-1}P) / 4;
    v^(6) = -(sigma_3(g^{-1}P) + P^{ij}B_{ij} / (3(n-4))) / 8.
    Convert to v_k with the factor (-2)^k.
    """
    if k not in (1, 2, 3):
        raise KOutOfRange(f"direct formulas cover k in {{1, 2, 3}}, got {k}")
    n = m.n
    if k == 3 and n == 4:
        raise DimensionFour("the sixth-order coefficient formula is singular at n = 4")
    pts = _series_points(m, points, count, seed)
    pack = curvature_pack(m, pts, want_bach=(k == 3))
    if k == 1:
        return -pack.scalar / (4.0 * (n - 1))
    if k == 2:
        return sigma_k(pack.schouten, pack.metric, 2) / 4.0
    s3 = sigma_k(pack.schouten, pack.metric, 3)
    p_up = np.einsum("bik,bjl,bkl->bij", pack.inverse, pack.inverse, pack.schouten)
    pb = np.einsum("bij,bij->b", p_up, pack.bach)
    return -(s3 + pb / (3.0 * (n - 4))) / 8.0


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
