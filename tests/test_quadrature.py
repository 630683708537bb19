"""Quadrature rules against closed-form volumes and integrals."""

import numpy as np
import pytest

from conftest import raises_exit
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
from confvol.quadrature import grid_with_weights, integrate


def test_volume_shortcut_is_exact():
    m = RoundSphere(4, 2.0)
    assert integrate(m) == sphere_volume(4, 2.0)
    t = FlatTorus((1.0, 2.0, 3.0))
    assert integrate(t) == 6.0
    p = ProductOfSpheres(((2, 1.0), (3, 1.5)))
    assert integrate(p) == pytest.approx(
        sphere_volume(2) * sphere_volume(3, 1.5), rel=1e-15)


def test_grid_weights_sum_to_volume():
    for m, vol in [
        (RoundSphere(3, 1.0), sphere_volume(3)),
        (FlatTorus((1.0, 2.0)), 2.0),
        (ProductOfSpheres(((2, 1.0), (2, 1.0))), sphere_volume(2) ** 2),
    ]:
        pts, w = grid_with_weights(m, 12)
        assert np.sum(w) == pytest.approx(vol, rel=1e-10)


def test_conformal_volume():
    # e^{2w} g scales the measure by e^{n w}; constant w is exact
    base = RoundSphere(3, 1.0)
    m = ConformalDeformation(base, lambda x: 0.25 + 0.0 * x[0])
    expect = np.exp(3 * 0.25) * sphere_volume(3)
    assert integrate(m, tol=1e-12) == pytest.approx(expect, rel=1e-10)


def test_sphere_polynomial_integral():
    # int over S^3 of yhat_0^2 = vol(S^3) / 4 by symmetry
    m = RoundSphere(3, 1.0)
    field = zonal_field(m, np.array([0.0, 0.0, 1.0]), axis=0)
    from confvol.spectral import field_values

    val = integrate(m, f=lambda pts: field_values(field, pts), tol=1e-12)
    assert val == pytest.approx(sphere_volume(3) / 4.0, rel=1e-10)


def test_sphere_grid_exact_for_polynomials():
    # one grid level integrates ambient polynomials of degree < 2 resolution
    from confvol.spectral import field_values, sphere_monomial_integral

    for n in (2, 3, 5):
        m = RoundSphere(n, 1.0)
        pts, w = grid_with_weights(m, 4)
        field = zonal_field(m, np.array([0.0] * 6 + [1.0]), axis=1)
        got = np.sum(w * field_values(field, pts))
        assert got == pytest.approx(sphere_monomial_integral(n, 6), rel=1e-13)


def test_node_budget_guard():
    # a grid over the node budget is a size the input asks for (exit 1),
    # not a quadrature that failed to converge
    with raises_exit(1, "RoundSphere grid at resolution 64 in dimension 8 is "
                        "562949953421312; it must be at most 3000000"):
        grid_with_weights(RoundSphere(8, 1.0), 64)
    # S^3 x S^3 at resolution 16 would mesh 67M nodes
    with raises_exit(1, "ProductOfSpheres grid at resolution 16 in dimension 6 "
                        "is 67108864; it must be at most 3000000"):
        grid_with_weights(ProductOfSpheres(((3, 1.0), (3, 1.0))), 16)
    # S^10 x S^10 at resolution 16 meshes 2^82 nodes, which an int64
    # product wraps to 0; the count is exact
    with raises_exit(1, "is over 10\\^15; it must be at most 3000000"):
        grid_with_weights(ProductOfSpheres(((10, 1.0), (10, 1.0))), 16)


def test_kind_without_rule_is_invalid_input():
    # no grid exists for the kind: invalid input (exit 1), not a quadrature
    # that failed to converge (exit 2)
    warped = WarpedRadial(lambda r: 1.0 + r, RoundSphere(2, 1.0), (0.0, 1.0))
    for m in (HyperbolicSpace(3), warped):
        with raises_exit(1, "no quadrature rule"):
            integrate(m, f=lambda pts: np.ones(pts.shape[0]))


def test_nonconvergent_raises():
    # an integrand too rough for the doubling cap must fail loudly, not
    # return a silently wrong number
    m = FlatTorus((1.0,))
    rng = np.random.default_rng(3)

    def noisy(pts):
        return rng.normal(size=pts.shape[0])

    with raises_exit(2, "quadrature not converged to 1e-12"):
        integrate(m, f=noisy, tol=1e-12, resolution=4)
