"""Volume-coefficient series against closed forms and pointwise formulas."""

import numpy as np
import pytest

from confvol.errors import (
    DimensionFour,
    DimensionTooSmall,
    GeneralFGUnavailable,
    InvalidRange,
    KOutOfRange,
    NotEinstein,
)
from confvol.models import (
    ConformalDeformation,
    FlatTorus,
    HyperbolicSpace,
    ProductOfSpheres,
    RoundSphere,
    WarpedRadial,
    sphere_volume,
    zonal_field,
)
from confvol.series import (
    L_tensors,
    MetricSeries,
    einstein_L_exact,
    einstein_series,
    einstein_vk_exact,
    inverse_series,
    metric_series,
    v_direct,
    vk_from_series,
)
from confvol.spectral import gauss_legendre


EINSTEIN_CASES = [
    RoundSphere(3, 1.0),
    RoundSphere(5, 2.0),
    HyperbolicSpace(4, 1.0),
    HyperbolicSpace(6, 0.7),
    FlatTorus((1.0, 2.0, 1.5)),
]


def test_einstein_vk_closed_form():
    from confvol.models import einstein_constant

    for m in EINSTEIN_CASES:
        a = einstein_constant(m)
        s = einstein_series(m)
        v = vk_from_series(s)[: m.n + 3]
        for k in range(m.n + 3):
            expect = einstein_vk_exact(m.n, a, k)
            got = v[k]
            assert np.max(np.abs(got - expect)) <= 1e-12 * max(1.0, abs(expect)), (m, k)


def test_inverse_series_product_identity():
    # sum_j g_j Ginv_{m-j} = delta_{m0} I, checked on the Einstein family
    m = RoundSphere(4, 1.3)
    s = einstein_series(m, K=6)
    inv = inverse_series(s)
    eye = np.eye(4)
    for order in range(7):
        acc = sum(s.coeffs[j] @ inv[order - j] for j in range(order + 1))
        target = eye if order == 0 else 0.0
        assert np.max(np.abs(acc - target)) < 1e-13


def test_L_tensor_routes_and_closed_form():
    from confvol.models import einstein_constant

    for m in EINSTEIN_CASES:
        a = einstein_constant(m)
        s = einstein_series(m)
        ginv0 = inverse_series(s)[0]
        L = L_tensors(s)[: m.n + 1]
        for k in range(1, m.n + 1):
            c = einstein_L_exact(m.n, a, k)
            assert np.max(np.abs(L[k] - c * ginv0)) <= 1e-12 * max(1.0, abs(c))


def test_v_direct_matches_series():
    for m in EINSTEIN_CASES:
        s = einstein_series(m, K=6)
        v = vk_from_series(s)[:4]
        for k in (1, 2, 3):
            direct = v_direct(m, k, points=s.points)
            assert np.max(np.abs((-2.0) ** k * direct - v[k])) < 1e-9, (m, k)


def test_v_direct_sigma3_on_conformally_flat_kinds():
    # v_direct reads sigma_3 from an order-2 pack on these kinds; the order-4
    # chart with the Bach term, the formula for every other kind, must agree
    from confvol.curvature import sigma_k
    from order4_chart import chart_pack_order4

    bump = lambda x: 0.1 * x[0] * x[1] + 0.05 * x[2]
    warped = WarpedRadial(lambda r: 1.0 + 0.3 * r * r, RoundSphere(4, 1.0),
                          (0.0, 1.0))
    for m in (ConformalDeformation(RoundSphere(5, 1.0), bump),
              ConformalDeformation(RoundSphere(7, 1.0), bump),
              ConformalDeformation(warped, bump)):
        pts = m.sample_points(2, np.random.default_rng(4))
        got = v_direct(m, 3, points=pts)
        pack = chart_pack_order4(m, pts, True)
        s3 = sigma_k(pack.schouten, pack.metric, 3)
        pb = np.einsum("bik,bjl,bkl,bij->b", pack.inverse, pack.inverse,
                       pack.schouten, pack.bach)
        chart = -(s3 + pb / (3.0 * (m.n - 4))) / 8.0
        scale = np.max(np.abs(chart))
        assert np.max(np.abs(got + s3 / 8.0)) <= 1e-13 * scale, m
        assert np.max(np.abs(got - chart)) <= 1e-13 * scale, m


def _zonal_on_s2(a):
    """omega = a t + (a/2) t^2 with t the first embedding coordinate of the
    S^2 factor, read from that factor's two chart coordinates only."""
    field = zonal_field(RoundSphere(2), np.array([0.0, a, a / 2.0]), 0)
    return lambda x: field(x[:2])


def test_v6_integral_is_conformally_invariant():
    # in even n the integral of v^(n) over a closed manifold is a conformal
    # invariant (Graham, Rend. Circ. Mat. Palermo Suppl. 63, 2000).  S^2 x S^4
    # is not conformally flat, so v^(6) carries P^{ij}B_{ij} / (3(n - 4)), and
    # the invariance pins that coefficient: 1/(2(n - 4)) moves the integral
    # by 1e-2, and dropping Bach by 3e-2
    t, wt = gauss_legendre(24)
    pts = np.zeros((len(t), 6))
    pts[:, 0] = t / (1.0 + np.sqrt(1.0 - t * t))   # stereographic x_0 at t
    for radius in (1.3, 1.0):
        base = ProductOfSpheres(((2, 1.0), (4, radius)))
        totals = []
        for a in (0.0, 0.1, 0.2):
            m = ConformalDeformation(base, _zonal_on_s2(a))
            density = np.exp(6.0 * a * (t + t * t / 2.0))
            # dt dphi on the unit S^2 (Archimedes), times vol(S^4)
            total = -8.0 * np.sum(wt * density * v_direct(m, 3, points=pts))
            totals.append(2.0 * np.pi * sphere_volume(4, radius) * total)
        assert np.ptp(totals) <= 1e-12 * abs(totals[0]), (radius, totals)


def test_v_direct_nonhomogeneous():
    # first coefficient of a conformally deformed sphere: v_1 = -R / (2(n-1)) * (1/2)
    m = ConformalDeformation(RoundSphere(5, 1.0), lambda x: 0.1 * x[0] * x[1])
    pts = m.sample_points(4, np.random.default_rng(5))
    from confvol.curvature import curvature_pack

    v1 = v_direct(m, 1, points=pts)
    R = curvature_pack(m, pts, want_bach=False).scalar
    assert np.max(np.abs(v1 + R / 16.0)) < 1e-10


def test_first_order_series_general_metric():
    # v_1 = tr_g P = R / (2(n-1)) for any metric, via g_1 = 2P
    m = ProductOfSpheres(((2, 1.0), (2, 2.0)))   # not Einstein
    s = metric_series(m)
    v = vk_from_series(s)
    from confvol.curvature import curvature_pack

    R = curvature_pack(m, s.points, want_bach=False).scalar
    assert np.max(np.abs(v[1] - R / (2.0 * (m.n - 1)))) < 1e-10


_bump = lambda x: 0.1 * x[0] * x[1] + 0.05 * x[2]
_warped = WarpedRadial(lambda r: 1.0 + 0.3 * r * r, RoundSphere(4, 1.0), (0.0, 1.0))

# conformally flat kinds that are not Einstein, with the largest k checked:
# their series is exact, so every k <= n, in odd and even n
CONFORMALLY_FLAT_CASES = [
    (ConformalDeformation(RoundSphere(5, 1.0), _bump), 5),
    (ConformalDeformation(RoundSphere(7, 1.3), _bump), 7),
    (ConformalDeformation(HyperbolicSpace(5, 1.0), _bump), 5),
    (ConformalDeformation(HyperbolicSpace(7, 1.0), _bump), 7),
    (ConformalDeformation(FlatTorus((1.0,) * 5), _bump), 5),
    (_warped, 5),
    (ConformalDeformation(_warped, _bump), 5),
    (ConformalDeformation(RoundSphere(6, 1.0), _bump), 6),
]


def _bounds(s: MetricSeries) -> np.ndarray:
    """2^n r^j for j = 0..n, r the spectral radius of A = g^{-1}P at each
    point, shape (n+1, npts).  The recurrences for v_j and L_(j+1) add terms
    up to about this size (|tr A^i| <= n r^i, |sigma_i(A)| <= C(n, i) r^i),
    so it is the scale of their rounding."""
    A = np.linalg.solve(s.coeffs[0], s.coeffs[1] / 2.0)
    r = np.max(np.abs(np.linalg.eigvals(A)), axis=1)
    return np.stack([2.0 ** s.n * r ** j for j in range(s.n + 1)])


def test_metric_series_matches_sigma_k_on_conformally_flat_kinds():
    # g(rho) = (g + rho P) g^{-1} (g + rho P) is exact there, so the series
    # route's v_k is sigma_k(g^{-1}P), which v_direct reads from Newton's
    # identities; without g_2 the two disagree from k = 2 on
    for m, kmax in CONFORMALLY_FLAT_CASES:
        s = metric_series(m, K=kmax)
        v, size = vk_from_series(s), _bounds(s)
        no_g2 = vk_from_series(MetricSeries(
            n=m.n, points=s.points, K=2,
            coeffs=np.concatenate([s.coeffs[:2], np.zeros_like(s.coeffs[:1])])))
        for k in range(1, kmax + 1):
            direct = (-2.0) ** k * v_direct(m, k, points=s.points)
            assert np.max(np.abs(v[k] - direct) / size[k]) <= 1e-13, (m, k)
            if k == 2:
                assert np.min(np.abs(no_g2[2] - direct) / size[2]) > 1e-3, m


def test_L_tensors_are_newton_tensors_on_conformally_flat_kinds():
    # L_(k) = -T_{k-1}(A) g^{-1}, with A = g^{-1}P and the Newton tensors
    # T_0 = I, T_j = sigma_j(A) I - A T_{j-1}
    from confvol.curvature import sigma_k

    for m, kmax in CONFORMALLY_FLAT_CASES:
        s = metric_series(m, K=kmax)
        L, size = L_tensors(s), _bounds(s)
        g0, P = s.coeffs[0], s.coeffs[1] / 2.0
        ginv = np.linalg.inv(g0)
        A = ginv @ P
        scale = np.max(np.abs(ginv), axis=(1, 2))
        T = np.broadcast_to(np.eye(m.n), A.shape)
        for k in range(1, kmax + 1):
            gap = np.max(np.abs(L[k] + T @ ginv), axis=(1, 2))
            assert np.max(gap / (size[k - 1] * scale)) <= 1e-13, (m, k)
            T = sigma_k(P, g0, k)[:, None, None] * np.eye(m.n) - A @ T


def test_scaling_law():
    # v_k(c^2 g) = c^{-2k} v_k(g), recomputed independently on both sides
    for c in (0.5, 2.0):
        v_base = vk_from_series(einstein_series(RoundSphere(4, 1.0)))[:5]
        v_scaled = vk_from_series(einstein_series(RoundSphere(4, c)))[:5]
        for k in range(5):
            assert np.max(np.abs(
                v_scaled[k] - c ** (-2 * k) * v_base[k])) < 1e-12


def test_error_conditions():
    with pytest.raises(NotEinstein):
        einstein_series(ProductOfSpheres(((2, 1.0), (2, 2.0))))
    with pytest.raises(GeneralFGUnavailable):
        metric_series(ProductOfSpheres(((2, 1.0), (2, 2.0))), K=2)
    se = einstein_series(RoundSphere(4, 1.0), K=4)
    s4 = MetricSeries(n=4, points=se.points, coeffs=se.coeffs, K=4,
                      einstein_a=None)   # same data, flagged as not exact
    with pytest.raises(InvalidRange):
        vk_from_series(s4)   # k > n/2 = 2, general metric, even n
    with pytest.raises(InvalidRange):
        L_tensors(s4)
    # conformally flat kinds have v_k = sigma_k for every k <= n; the Bach
    # route's limits show on products
    with pytest.raises(DimensionFour):
        v_direct(ProductOfSpheres(((2, 1.0), (2, 1.0))), 3)
    with pytest.raises(KOutOfRange):
        v_direct(ProductOfSpheres(((2, 1.0), (3, 1.0))), 4)
    with pytest.raises(KOutOfRange):
        L_tensors(einstein_series(RoundSphere(3, 1.0), K=0))


def test_v_direct_dimension_guard():
    # v^(2) = -R / (4(n-1)) needs only the scalar curvature; v^(4) and v^(6)
    # read the Schouten tensor, which needs n >= 3
    m = RoundSphere(2, 1.0)
    assert v_direct(m, 1, count=2) == pytest.approx(-0.5, rel=1e-12)
    for k in (2, 3):
        with pytest.raises(DimensionTooSmall):
            v_direct(m, k)
    # the Hessian skips the direct criticality check there
    from confvol.spectral import sphere_basis
    from confvol.variation import hessian_Fk

    H = hessian_Fk(m, 2, sphere_basis(m, lmax=2))
    assert H.classification == "negative semi-definite with nullity 3"
