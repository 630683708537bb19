"""Quadrature rules against closed-form volumes and integrals."""

import numpy as np
import pytest

from confvol.errors import GridResolutionInsufficient
from confvol.models import (
    ConformalDeformation,
    FlatTorus,
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


def test_warped_radial_volume():
    # dr^2 + r^2 g_{S^2} on (0, 1) is the flat unit ball: volume 4 pi / 3
    m = WarpedRadial(lambda r: r, RoundSphere(2, 1.0), (0.0, 1.0))
    assert integrate(m) == pytest.approx(4.0 * np.pi / 3.0, rel=1e-12)


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


def test_node_budget_guard():
    with pytest.raises(GridResolutionInsufficient):
        grid_with_weights(RoundSphere(8, 1.0), 64)


def test_nonconvergent_raises():
    # an integrand too rough for the doubling cap must fail loudly, not
    # return a silently wrong number
    m = FlatTorus((1.0,))
    rng = np.random.default_rng(3)

    def noisy(pts):
        return rng.normal(size=pts.shape[0])

    with pytest.raises(GridResolutionInsufficient):
        integrate(m, f=noisy, tol=1e-12, resolution=4)
