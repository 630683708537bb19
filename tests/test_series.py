"""Volume-coefficient series against closed forms and pointwise formulas."""

import numpy as np
import pytest

from confvol.errors import (
    DimensionFour,
    GeneralFGUnavailable,
    InvalidRange,
    KOutOfRange,
    NotEinstein,
    TruncationTooShort,
)
from confvol.models import (
    ConformalDeformation,
    FlatTorus,
    HyperbolicSpace,
    ProductOfSpheres,
    RoundSphere,
)
from confvol.series import (
    L_tensor,
    einstein_L_exact,
    einstein_series,
    einstein_vk_exact,
    first_order_series,
    inverse_series,
    v_direct,
    vk_from_series,
)


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
        v = vk_from_series(s, kmax=m.n + 2)
        for k in range(m.n + 3):
            expect = einstein_vk_exact(m.n, a, k)
            got = v.vk(k)
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
        for k in range(1, m.n + 1):
            lt = L_tensor(s, k)
            c = einstein_L_exact(m.n, a, k)
            assert np.max(np.abs(lt.components - c * ginv0)) <= 1e-12 * max(1.0, abs(c))


def test_v_direct_matches_series():
    for m in EINSTEIN_CASES:
        s = einstein_series(m, K=6)
        v = vk_from_series(s, kmax=3)
        for k in (1, 2, 3):
            if k == 3 and m.n == 4:
                continue
            direct = v_direct(m, k, points=s.points)
            assert np.max(np.abs((-2.0) ** k * direct - v.vk(k))) < 1e-9, (m, k)


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
    s = first_order_series(m)
    v = vk_from_series(s, kmax=1)
    from confvol.curvature import curvature_pack

    R = curvature_pack(m, s.points, want_bach=False).scalar
    assert np.max(np.abs(v.vk(1) - R / (2.0 * (m.n - 1)))) < 1e-10


def test_scaling_law():
    # v_k(c^2 g) = c^{-2k} v_k(g), recomputed independently on both sides
    for c in (0.5, 2.0):
        v_base = vk_from_series(einstein_series(RoundSphere(4, 1.0)), kmax=4)
        v_scaled = vk_from_series(einstein_series(RoundSphere(4, c)), kmax=4)
        for k in range(5):
            assert np.max(np.abs(
                v_scaled.vk(k) - c ** (-2 * k) * v_base.vk(k))) < 1e-12


def test_error_conditions():
    with pytest.raises(NotEinstein):
        einstein_series(ProductOfSpheres(((2, 1.0), (2, 2.0))))
    with pytest.raises(GeneralFGUnavailable):
        first_order_series(ProductOfSpheres(((2, 1.0), (2, 2.0))), K=2)
    s = einstein_series(RoundSphere(3, 1.0), K=2)
    with pytest.raises(TruncationTooShort):
        vk_from_series(s, kmax=3)
    with pytest.raises(TruncationTooShort):
        L_tensor(s, 3)
    from confvol.series import MetricSeries

    se = einstein_series(RoundSphere(4, 1.0), K=4)
    s4 = MetricSeries(n=4, points=se.points, coeffs=se.coeffs, K=4,
                      einstein_a=None)   # same data, generic-metric flag
    with pytest.raises(InvalidRange):
        vk_from_series(s4, kmax=3)   # k > n/2 = 2, general metric, even n
    with pytest.raises(InvalidRange):
        L_tensor(s4, 3)
    with pytest.raises(DimensionFour):
        v_direct(RoundSphere(4, 1.0), 3)
    with pytest.raises(KOutOfRange):
        v_direct(RoundSphere(5, 1.0), 4)
    with pytest.raises(KOutOfRange):
        L_tensor(s, 0)
