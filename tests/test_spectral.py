"""Eigenbases: orthonormality, eigenvalues, and exact sphere integrals."""

import numpy as np
import pytest

from confvol.curvature import laplacian
from confvol.errors import InvalidRange
from confvol.models import FlatTorus, ProductOfSpheres, RoundSphere, sphere_volume
from confvol.quadrature import grid_with_weights, integrate
from confvol.spectral import (
    basis_for,
    field_gradients,
    field_values,
    product_basis,
    sphere_basis,
    sphere_monomial_integral,
    sphere_pair_matrices,
    torus_basis,
)


def _quad_gram(m, basis, resolution=16):
    pts, w = grid_with_weights(m, resolution)
    vals = np.stack([field_values(f, pts) for f in basis.members])
    return np.einsum("ip,jp,p->ij", vals, vals, w)


def test_sphere_monomial_integral_vs_quadrature():
    m = RoundSphere(3, 1.0)
    from confvol.models import zonal_field
    from confvol.spectral import field_values

    for p in (2, 4, 6):
        f = zonal_field(m, np.eye(p + 1)[p], axis=1)
        val = integrate(m, f=lambda pts: field_values(f, pts), tol=1e-12)
        assert val == pytest.approx(sphere_monomial_integral(3, p), rel=1e-10)
    assert sphere_monomial_integral(3, 1) == 0.0
    assert sphere_monomial_integral(4, 0) == pytest.approx(sphere_volume(4), rel=1e-14)


def test_sphere_basis_orthonormal_by_quadrature():
    m = RoundSphere(3, 1.5)
    basis = sphere_basis(m, lmax=3)
    gram = _quad_gram(m, basis)
    assert np.max(np.abs(gram - np.eye(basis.size))) < 1e-9


def test_sphere_basis_mean_zero():
    m = RoundSphere(4, 1.0)
    basis = sphere_basis(m, lmax=3)
    pts, w = grid_with_weights(m, 16)
    for f in basis.members:
        assert abs(np.sum(w * field_values(f, pts))) < 1e-9


def test_sphere_eigenfunctions():
    m = RoundSphere(4, 2.0)
    basis = sphere_basis(m, lmax=3)
    pts = m.sample_points(5, np.random.default_rng(1))
    laps = laplacian(m, list(basis.members), pts)
    for lap, lam, f in zip(laps, basis.eigenvalues, basis.members):
        vals = field_values(f, pts)
        assert np.max(np.abs(lap + lam * vals)) < 1e-8 * max(1.0, lam)


def test_degree_one_block_full():
    m = RoundSphere(5, 1.0)
    basis = sphere_basis(m, lmax=2)
    deg1 = [lab for lab in basis.labels if lab[0] == 1]
    assert len(deg1) == 6   # n + 1 ambient coordinates


def test_sphere_pair_matrices_match_exact():
    for n in (3, 4, 6):
        m = RoundSphere(n, 1.3)
        basis = sphere_basis(m, lmax=3)
        dir_, gram = sphere_pair_matrices(m, basis)
        assert np.max(np.abs(gram - np.eye(basis.size))) < 1e-12
        assert np.max(np.abs(dir_ - np.diag(basis.eigenvalues))) < 1e-11 * max(
            1.0, np.max(basis.eigenvalues))


def test_radius_scaling_of_spectrum():
    b1 = sphere_basis(RoundSphere(3, 1.0), lmax=2)
    b2 = sphere_basis(RoundSphere(3, 2.0), lmax=2)
    assert np.allclose(b2.eigenvalues, b1.eigenvalues / 4.0)


def test_torus_basis():
    m = FlatTorus((1.0, 2.0))
    basis = torus_basis(m, mmax=2)
    gram = _quad_gram(m, basis, resolution=16)
    assert np.max(np.abs(gram - np.eye(basis.size))) < 1e-10
    assert basis.first_eigenvalue() == pytest.approx((2 * np.pi / 2.0) ** 2, rel=1e-12)
    pts = m.sample_points(4, np.random.default_rng(2))
    laps = laplacian(m, list(basis.members[:4]), pts)
    for lap, lam, f in zip(laps, basis.eigenvalues[:4], basis.members[:4]):
        assert np.max(np.abs(lap + lam * field_values(f, pts))) < 1e-9 * max(1.0, lam)


def test_product_basis():
    m = ProductOfSpheres(((2, 1.0), (2, 1.0)))
    basis = product_basis(m, lmax=2)
    gram = _quad_gram(m, basis, resolution=12)
    assert np.max(np.abs(gram - np.eye(basis.size))) < 1e-9
    # lowest eigenvalue on each factor is l(l+1)/r^2 = 2
    assert basis.first_eigenvalue() == pytest.approx(2.0, rel=1e-12)


def test_field_gradients_shape_and_value():
    m = FlatTorus((1.0, 1.0))
    from confvol.models import fourier_field

    f = fourier_field(m, (1, 0), amplitude=1.0)
    pts = np.array([[0.25, 0.3], [0.1, 0.9]])
    g = field_gradients(f, pts)
    assert g.shape == (2, 2)
    expect = -2 * np.pi * np.sin(2 * np.pi * pts[:, 0])
    assert np.allclose(g[:, 0], expect)
    assert np.allclose(g[:, 1], 0.0)


def test_basis_for_dispatch_and_guards():
    assert basis_for(RoundSphere(3, 1.0), lmax=1).size == 4
    with pytest.raises(InvalidRange):
        sphere_basis(RoundSphere(3, 1.0), lmax=0)
    with pytest.raises(InvalidRange):
        torus_basis(FlatTorus((1.0,)), mmax=0)
    # the member budget refuses a basis from its size alone, before building
    with pytest.raises(InvalidRange, match="must be at most"):
        sphere_basis(RoundSphere(3, 1.0), lmax=100_000)
    with pytest.raises(InvalidRange, match="must be at most"):
        # each factor has 3 + 299 * 2 = 601 members; the product has 1,202
        product_basis(ProductOfSpheres(((2, 1.0), (2, 1.0))), lmax=300)
    from confvol.models import HyperbolicSpace

    with pytest.raises(InvalidRange):
        basis_for(HyperbolicSpace(3, 1.0))
