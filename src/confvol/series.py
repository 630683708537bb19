"""Volume coefficients v_k and tensors L_(k) of the rho-family of metrics.

Every series here is one family, g(rho) = (g + rho P) g^{-1} (g + rho P)
with P the Schouten tensor.  It is exact at every order on Einstein and on
locally conformally flat metrics, where the expansion terminates
(Fefferman and Graham, The Ambient Metric, ch. 7).  A MetricSeries holds
g and P at a batch of chart points.

With lam_i the eigenvalues of A = g^{-1}P and e_i its g-orthonormal
eigenvectors, g(rho) = sum_i (1 + rho lam_i)^2 g e_i (g e_i)^T, so
(det g(rho)/det g)^{1/2} = prod_i (1 + rho lam_i) and v_k = sigma_k(lam).
L_(k), the rho^k coefficient of -v(rho) int_0^rho g^{ij}(u) du, is
-sum_i sigma_{k-1}(lam without lam_i) e_i e_i^T, the Newton tensor
-T_{k-1}(A) g^{-1}.  One kernel serves both: Cholesky g = C C^T, eigh of
C^{-1} P C^{-T}, and the truncated product of the factors (1 + rho lam_i).
Einstein backgrounds (Ric = 2a(n-1)g) have P = a g, so every lam_i is a,
every quantity here has a closed form, and that closed form is the primary
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .curvature import curvature_pack, sigma_k
from .errors import ConfvolError
from .models import ModelMetric, conformally_flat, einstein_constant, metric_values


@dataclass(frozen=True)
class MetricSeries:
    """g(rho) = (g + rho P) g^{-1} (g + rho P) to order K at fixed points.

    g0 and P, shape (npts, n, n), are the base metric and its Schouten
    tensor.  einstein_a is the Einstein constant a of an Einstein model,
    whose Schouten tensor is P = a g, so that the closed forms
    einstein_vk_exact and einstein_L_exact apply; it is None on every other
    kind.  exact says that the family is the expansion itself at every
    order, as it is on Einstein and conformally flat kinds, so that v_k is
    defined for every k, also past n/2 in even n.
    """

    n: int
    points: np.ndarray
    g0: np.ndarray
    P: np.ndarray
    K: int
    einstein_a: float | None = None
    exact: bool = False


_DEFAULT_POINT_COUNT = 6


def _series_points(m: ModelMetric, points, count: int) -> np.ndarray:
    """The given points, else ``count`` samples of the model from seed 0."""
    if points is not None:
        return np.atleast_2d(np.asarray(points, dtype=float))
    return m.sample_points(count, np.random.default_rng(0))


def metric_series(m: ModelMetric, K: int = 1, points=None,
                  count: int = _DEFAULT_POINT_COUNT) -> MetricSeries:
    """The family g(rho) = (g + rho P) g^{-1} (g + rho P) to order K.

    Exact at every order on Einstein and conformally flat kinds.  On other
    kinds only its order-1 term 2P holds, so K > 1 is refused there.
    """
    if K < 0:
        raise ConfvolError(f"truncation order K = {K} must be nonnegative")
    a = einstein_constant(m)
    exact = a is not None or conformally_flat(m)
    if K > 1 and not exact:
        raise ConfvolError(
            "general-metric series coefficients beyond order 1 are not constructed")
    pts = _series_points(m, points, count)
    if a is not None:
        # P = a g; no curvature pack, whose n^4 tensors dominate at large n
        g0 = metric_values(m, pts)
        P = a * g0
    else:
        pack = curvature_pack(m, pts)
        g0, P = pack.metric, pack.schouten
    return MetricSeries(n=m.n, points=pts, g0=g0, P=P, K=K, einstein_a=a,
                        exact=exact)


def einstein_series(m: ModelMetric, K: int | None = None, points=None,
                    count: int = _DEFAULT_POINT_COUNT) -> MetricSeries:
    """metric_series of an Einstein model, (1 + a rho)^2 g, to order K
    (default 2n + 2)."""
    if einstein_constant(m) is None:
        raise ConfvolError(f"{type(m).__name__} is not a recognized Einstein model")
    return metric_series(m, 2 * m.n + 2 if K is None else K, points, count)


def _check_order(s: MetricSeries):
    if not s.exact and s.n % 2 == 0 and s.K > s.n // 2:
        raise ConfvolError(
            f"v_k for k > n/2 = {s.n // 2} undefined for general metrics in even dimension")


def _eigen(s: MetricSeries):
    """Eigenvalues lam (npts, n) of A = g^{-1}P and g-orthonormal
    eigenvectors E (npts, n, n), column i of E the eigenvector e_i:
    with g = C C^T, A e = lam e is the symmetric problem
    (C^{-1} P C^{-T}) q = lam q with e = C^{-T} q."""
    CinvT = np.swapaxes(np.linalg.inv(np.linalg.cholesky(s.g0)), -1, -2)
    lam, q = np.linalg.eigh(np.swapaxes(CinvT, -1, -2) @ s.P @ CinvT)
    return lam, CinvT @ q


def _elementary(lam: np.ndarray, K: int) -> np.ndarray:
    """sigma_0..sigma_K of the last axis of lam, shape (K+1,) + lam.shape[:-1]:
    the coefficients of prod_i (1 + rho lam_i), multiplied in one factor
    at a time and truncated at rho^K."""
    out = np.zeros((K + 1,) + lam.shape[:-1])
    out[0] = 1.0
    for i in range(lam.shape[-1]):
        out[1:] = out[1:] + lam[..., i] * out[:-1]
    return out


def vk_from_series(s: MetricSeries) -> np.ndarray:
    """Volume coefficients of (det g(rho)/det g)^{1/2} up to the series
    order K, shape (K+1, npts); row k holds v_k = (-2)^k v^(2k) =
    sigma_k(g^{-1}P), zero past k = n, and does not depend on K."""
    _check_order(s)
    return _elementary(_eigen(s)[0], s.K)


def L_tensors(s: MetricSeries) -> np.ndarray:
    """Contravariant tensors L^{ij}_(k), the Taylor coefficients of
    -v(rho) int_0^rho g^{ij}(u) du, shape (K+1, npts, n, n):
    L_(k) = -E diag(sigma_{k-1}(lam without lam_i)) E^T.

    Row k holds L_(k) for k = 1..K; row 0, the constant term, is zero.
    """
    if s.K < 1:
        raise ConfvolError(f"series order K = {s.K} must be at least 1")
    _check_order(s)
    lam, E = _eigen(s)
    n = s.n
    # row i of `others` lists every index but i
    others = (np.arange(n)[:, None] + np.arange(1, n)) % n
    sig = _elementary(lam[:, others], s.K - 1)                # (K, npts, n)
    out = np.zeros((s.K + 1,) + s.g0.shape)
    out[1:] = -(E * sig[:, :, None, :]) @ np.swapaxes(E, -1, -2)
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
        raise ConfvolError(
            f"v^({2 * k}) needs the Schouten tensor, undefined at n = {n}")
    flat = conformally_flat(m)
    kmax = n if flat else 3
    if not 1 <= k <= kmax:
        raise ConfvolError(f"direct formulas cover k in 1..{kmax} for "
                           f"{type(m).__name__}, got {k}")
    want_bach = k == 3 and not flat
    if want_bach and n == 4:
        raise ConfvolError("the sixth-order coefficient formula is singular at n = 4")
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
    """Closed-form v_k = a^k binom(n, k) for Einstein backgrounds (0 for
    k > n); infinite where a^k overflows."""
    if k < 0:
        raise ConfvolError(f"k = {k} must be nonnegative")
    return np.float64(a) ** k * comb(n, k) if k <= n else 0.0


def einstein_L_exact(n: int, a: float, k: int) -> float:
    """Closed-form scalar c with L^{ij}_(k) = c g^{ij}: c = -a^{k-1} binom(n-1, k-1)
    (0 for k > n); infinite where a^{k-1} overflows."""
    if k < 1:
        raise ConfvolError(f"k = {k} must be at least 1")
    return -(np.float64(a) ** (k - 1)) * comb(n - 1, k - 1) if k <= n else 0.0
