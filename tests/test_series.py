"""Volume-coefficient series against closed forms and pointwise formulas."""

import numpy as np
import pytest

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
from confvol import series
from confvol.series import (
    L_tensors,
    MetricSeries,
    einstein_L_exact,
    einstein_series,
    einstein_vk_exact,
    metric_series,
    v_direct,
    vk_from_series,
)
from confvol.spectral import gauss_jacobi
from conftest import raises_exit


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


def test_L_tensor_routes_and_closed_form():
    from confvol.models import einstein_constant

    for m in EINSTEIN_CASES:
        a = einstein_constant(m)
        s = einstein_series(m)
        ginv0 = np.linalg.inv(s.g0)
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
    t, wt = gauss_jacobi(24, 0.0)
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
    point, shape (n+1, npts).  sigma_j(A) and the Newton tensors T_j(A) sum
    terms up to about this size (|sigma_i(A)| <= C(n, i) r^i), so it is the
    scale of their rounding."""
    A = np.linalg.solve(s.g0, s.P)
    r = np.max(np.abs(np.linalg.eigvals(A)), axis=1)
    return np.stack([2.0 ** s.n * r ** j for j in range(s.n + 1)])


def _general_series(n: int, seed: int) -> MetricSeries:
    """An exact series on a random pair (g, P) at 4 points, g positive
    definite and not diagonal.  Every model kind has a diagonal chart
    metric, whose Cholesky factor is its own transpose; these pairs are not."""
    rng = np.random.default_rng(seed)
    B, Q = rng.standard_normal((2, 4, n, n))
    return MetricSeries(n=n, points=np.zeros((4, n)),
                        g0=B @ np.swapaxes(B, -1, -2) + n * np.eye(n),
                        P=Q + np.swapaxes(Q, -1, -2), K=n, exact=True)


def _series_cases():
    """(series, model) of every conformally flat case, then the random pairs
    with model None."""
    return ([(metric_series(m, K=kmax), m) for m, kmax in CONFORMALLY_FLAT_CASES]
            + [(_general_series(n, n), None) for n in (5, 6)])


def _flip_largest(eigen):
    """The series kernel's spectrum with the sign of each point's eigenvalue
    of largest magnitude flipped."""
    def flipped(s):
        lam, E = eigen(s)
        lam = lam.copy()
        lam[np.arange(len(lam)), np.argmax(np.abs(lam), axis=1)] *= -1.0
        return lam, E
    return flipped


def test_metric_series_matches_sigma_k_on_conformally_flat_kinds(monkeypatch):
    # g(rho) = (g + rho P) g^{-1} (g + rho P) is exact there, so the series
    # route's v_k is sigma_k(g^{-1}P) from the eigenvalues, which v_direct
    # reads from Newton's identities instead (sigma_k itself on the random
    # pairs); a flipped eigenvalue moves v_1 by 2 r, 2^{1-n} of the bound
    from confvol.curvature import sigma_k

    for s, m in _series_cases():
        v, size = vk_from_series(s), _bounds(s)
        with monkeypatch.context() as patch:
            patch.setattr(series, "_eigen", _flip_largest(series._eigen))
            flipped = vk_from_series(s)
        for k in range(1, s.K + 1):
            direct = (sigma_k(s.P, s.g0, k) if m is None
                      else (-2.0) ** k * v_direct(m, k, points=s.points))
            assert np.max(np.abs(v[k] - direct) / size[k]) <= 1e-13, (m, s.n, k)
            if k == 1:
                assert np.min(np.abs(flipped[1] - direct) / size[1]) > 1e-3, (m, s.n)


def test_L_tensors_are_newton_tensors_on_conformally_flat_kinds():
    # L_(k) = -T_{k-1}(A) g^{-1}, with A = g^{-1}P and the Newton tensors
    # T_0 = I, T_j = sigma_j(A) I - A T_{j-1}; the kernel takes sigma_{k-1}
    # of the eigenvalues without lam_i on e_i, and sigma_{k-1} of all of
    # them, -sigma_{k-1}(A) g^{-1}, misses from k = 2 on
    from confvol.curvature import sigma_k

    for s, m in _series_cases():
        L, size = L_tensors(s), _bounds(s)
        g0, P = s.g0, s.P
        ginv = np.linalg.inv(g0)
        A = ginv @ P
        scale = np.max(np.abs(ginv), axis=(1, 2))
        T = np.broadcast_to(np.eye(s.n), A.shape)
        for k in range(1, s.K + 1):
            gap = np.max(np.abs(L[k] + T @ ginv), axis=(1, 2))
            assert np.max(gap / (size[k - 1] * scale)) <= 1e-13, (m, s.n, k)
            if k == 2:
                lam, E = series._eigen(s)
                sig = series._elementary(lam, 1)[1][:, None, None]
                all_of_lam = -(E * sig) @ np.swapaxes(E, -1, -2)
                miss = np.max(np.abs(all_of_lam + T @ ginv), axis=(1, 2))
                assert np.min(miss / (size[1] * scale)) > 1e-3, (m, s.n)
            T = sigma_k(P, g0, k)[:, None, None] * np.eye(s.n) - A @ T


def test_scaling_law():
    # v_k(c^2 g) = c^{-2k} v_k(g), recomputed independently on both sides
    for c in (0.5, 2.0):
        v_base = vk_from_series(einstein_series(RoundSphere(4, 1.0)))[:5]
        v_scaled = vk_from_series(einstein_series(RoundSphere(4, c)))[:5]
        for k in range(5):
            assert np.max(np.abs(
                v_scaled[k] - c ** (-2 * k) * v_base[k])) < 1e-12


def test_error_conditions():
    with raises_exit(1, "ProductOfSpheres is not a recognized Einstein model"):
        einstein_series(ProductOfSpheres(((2, 1.0), (2, 2.0))))
    with raises_exit(1, "beyond order 1 are not constructed"):
        metric_series(ProductOfSpheres(((2, 1.0), (2, 2.0))), K=2)
    se = einstein_series(RoundSphere(4, 1.0), K=4)
    s4 = MetricSeries(n=4, points=se.points, g0=se.g0, P=se.P, K=4,
                      einstein_a=None)   # same data, flagged as not exact
    with raises_exit(1, "v_k for k > n/2 = 2 undefined"):
        vk_from_series(s4)   # general metric, even n
    with raises_exit(1, "v_k for k > n/2 = 2 undefined"):
        L_tensors(s4)
    # conformally flat kinds have v_k = sigma_k for every k <= n; the Bach
    # route's limits show on products
    with raises_exit(1, "singular at n = 4"):
        v_direct(ProductOfSpheres(((2, 1.0), (2, 1.0))), 3)
    with raises_exit(1, r"cover k in 1\.\.3 for ProductOfSpheres, got 4"):
        v_direct(ProductOfSpheres(((2, 1.0), (3, 1.0))), 4)
    with raises_exit(1, "series order K = 0 must be at least 1"):
        L_tensors(einstein_series(RoundSphere(3, 1.0), K=0))


def test_v_direct_dimension_guard():
    # v^(2) = -R / (4(n-1)) needs only the scalar curvature; v^(4) and v^(6)
    # read the Schouten tensor, which needs n >= 3
    m = RoundSphere(2, 1.0)
    assert v_direct(m, 1, count=2) == pytest.approx(-0.5, rel=1e-12)
    for k in (2, 3):
        with raises_exit(1, "needs the Schouten tensor, undefined at n = 2"):
            v_direct(m, k)
    # the Hessian skips the direct criticality check there
    from confvol.spectral import sphere_basis
    from confvol.variation import hessian_Fk

    H = hessian_Fk(m, 2, sphere_basis(m, lmax=2))
    assert H.classification == "negative semi-definite with nullity 3"
