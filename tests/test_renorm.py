"""Renormalized volume: expansions, bulk-integral route, Gauss-Bonnet."""

import numpy as np
import pytest

from confvol import jets
from confvol.curvature import curvature_pack
from conftest import raises_exit
from confvol.models import (
    ConformalDeformation,
    RoundSphere,
    WarpedRadial,
    sphere_volume,
    zonal_field,
)
from confvol.renorm import (
    AHNormalForm,
    boundary_shape_value,
    bulk_coefficient_integral,
    extract_expansion,
    gauss_bonnet_4d,
    geodesic_compactification,
    hyperbolic_normal_form,
    renorm_coefficient,
    renorm_volume_geodcomp,
    truncated_volume,
)
from confvol.series import v_direct

V_H4 = 4.0 * np.pi ** 2 / 3.0   # hyperbolic 4-space, boundary S^3


def test_truncated_volume_analytic_vs_quad():
    a = hyperbolic_normal_form(RoundSphere(3, 1.0))
    # same warp without the polynomial tag forces the quadrature path
    b = AHNormalForm(boundary=a.boundary, warp=a.warp, r_max=a.r_max)
    for eps in (0.1, 0.5, 1.0):
        assert truncated_volume(a, eps) == pytest.approx(
            truncated_volume(b, eps), rel=1e-11)


def test_expansion_analytic_hyperbolic4():
    a = hyperbolic_normal_form(RoundSphere(3, 1.0))
    exp = extract_expansion(a)
    assert exp.method == "analytic"
    assert exp.V == pytest.approx(V_H4, rel=1e-14)
    assert exp.log_coefficient == 0.0       # odd boundary dimension: no log
    # leading divergence c_0 = Vol(S^3)/3
    assert exp.coefficients[0] == pytest.approx(sphere_volume(3) / 3.0, rel=1e-14)


def test_expansion_fit_matches_analytic():
    a = hyperbolic_normal_form(RoundSphere(3, 1.0))
    b = AHNormalForm(boundary=a.boundary, warp=a.warp, r_max=a.r_max)
    exp = extract_expansion(b)
    assert exp.method == "fit"
    assert exp.V == pytest.approx(V_H4, rel=1e-7)
    assert abs(exp.log_coefficient) < 1e-8


def test_divergent_coefficients_vs_density():
    # c_{2k} = Vol(boundary) * b_{2k} / (n - 2k) where b are the ascending
    # coefficients of f(r)^n; checked against an independent polynomial power
    a = hyperbolic_normal_form(RoundSphere(3, 1.0))
    exp = extract_expansion(a)
    n = 3
    b = np.polynomial.polynomial.polypow((1.0, 0.0, -0.25), n)
    for k in range((n - 1) // 2 + 1):
        assert exp.coefficients[k] == pytest.approx(
            sphere_volume(3) * b[2 * k] / (n - 2 * k), rel=1e-12)


def test_geodesic_compactification_route():
    a = hyperbolic_normal_form(RoundSphere(3, 1.0))
    compact = geodesic_compactification(a)
    V = renorm_volume_geodcomp(compact, 3)
    assert V == pytest.approx(V_H4, rel=1e-10)


def test_geodcomp_n5():
    a = hyperbolic_normal_form(RoundSphere(5, 1.0))
    compact = geodesic_compactification(a)
    V = renorm_volume_geodcomp(compact, 5)
    exp = extract_expansion(a)
    assert V == pytest.approx(exp.V, rel=1e-10)


def test_conformal_rescale_invariance():
    # omega = O(r^2) changes the compactification but not V
    a = hyperbolic_normal_form(RoundSphere(3, 1.0))
    compact = geodesic_compactification(a)

    def omega(x):
        return 0.1 * x[0] * x[0]

    V0 = renorm_volume_geodcomp(compact, 3)
    V1 = renorm_volume_geodcomp(compact, 3, omega=omega)
    assert V1 == pytest.approx(V0, rel=1e-9)


def test_cohomogeneity_spot_check_fires():
    # a deformed boundary makes the compactification's curvature vary along
    # the fiber; the bulk route must refuse it rather than integrate one slice
    sphere = RoundSphere(3, 1.0)
    boundary = ConformalDeformation(sphere, zonal_field(sphere, [0.0, 0.2], 0))
    compact = geodesic_compactification(hyperbolic_normal_form(boundary))
    with raises_exit(1, "radius alone"):
        renorm_volume_geodcomp(compact, 3)


def test_boundary_shape_operator():
    assert boundary_shape_value(lambda r: 1.0 - r * r / 4.0) == pytest.approx(0.0)
    # flat-ball compactification dr^2 + (1-r)^2 g is not totally geodesic
    assert boundary_shape_value(lambda r: 1.0 - r) == pytest.approx(-1.0)


def test_not_totally_geodesic_rejected():
    compact = WarpedRadial(lambda r: 1.0 - r, RoundSphere(2, 1.0), (0.0, 1.0))
    with raises_exit(2, "boundary shape value"):
        renorm_volume_geodcomp(compact, 3)
    # conformal factors that fail to vanish to second order are rejected too
    a = hyperbolic_normal_form(RoundSphere(3, 1.0))
    good = geodesic_compactification(a)
    with raises_exit(2, "must vanish to second order at the boundary"):
        renorm_volume_geodcomp(good, 3, omega=lambda x: 0.1 * x[0])


def test_renorm_coefficient_values():
    assert renorm_coefficient(3) == pytest.approx(8.0 / 3.0)
    assert renorm_coefficient(5) == pytest.approx(16.0 / 5.0)
    with raises_exit(1, "coefficient defined for odd n, got 4"):
        renorm_coefficient(4)


def test_range_guards():
    a = hyperbolic_normal_form(RoundSphere(3, 1.0))
    with raises_exit(1, "eps = 0.0 outside"):
        truncated_volume(a, 0.0)
    with raises_exit(1, "eps = 3.0 outside"):
        truncated_volume(a, 3.0)
    compact = geodesic_compactification(a)
    with raises_exit(1, "extraction needs odd n, got 4"):
        renorm_volume_geodcomp(compact, 4)
    with raises_exit(1, "n = 1 below 3"):
        renorm_volume_geodcomp(compact, 1)
    # the compactification is conformally flat, so v^(n+1) is sigma_k at
    # every odd n and the bulk route matches the analytic V
    for n in (7, 9):
        a_n = hyperbolic_normal_form(RoundSphere(n, 1.0))
        V = renorm_volume_geodcomp(geodesic_compactification(a_n), n)
        assert V == pytest.approx(extract_expansion(a_n).V, rel=1e-12, abs=0.0)
    with raises_exit(1, "warp must be even in r"):
        AHNormalForm(boundary=RoundSphere(3, 1.0),
                     warp=lambda r: 1.0 - r, r_max=1.0)   # odd warp term


def test_ill_conditioned_fit():
    a = hyperbolic_normal_form(RoundSphere(5, 1.0))
    b = AHNormalForm(boundary=a.boundary, warp=a.warp, r_max=a.r_max)
    with raises_exit(2, "expansion fit condition number"):
        # too many nuisance columns over too narrow an eps window
        extract_expansion(b, eps0=0.1, ratio=0.95, samples=40, tail_powers=14)


def test_gauss_bonnet_hyperbolic4():
    # H^4 is conformally flat: 8 pi^2 chi = 6 V with chi = 1
    assert gauss_bonnet_4d(V_H4, 0.0, chi=1.0, mode="AHE") < 1e-12


def test_gauss_bonnet_compact_s4():
    m = RoundSphere(4, 1.0)
    pts = m.sample_points(3, np.random.default_rng(0))
    # the round sphere is conformally flat: the |W|^2 term vanishes
    assert np.max(np.abs(curvature_pack(m, pts).weyl)) < 1e-9
    # int v^(4) = sigma_2(P)/4 * Vol = (3/8) Vol(S^4); 16 * that = 8 pi^2 * 2
    v4 = float(v_direct(m, 2, points=pts)[0]) * sphere_volume(4)
    assert gauss_bonnet_4d(v4, 0.0, chi=2.0, mode="compact") < 1e-9


def test_gauss_bonnet_guards():
    with raises_exit(1, "mode 'weird' not in"):
        gauss_bonnet_4d(1.0, 0.0, chi=1.0, mode="weird")
