"""Eigenbases: orthonormality, eigenvalues, and exact sphere integrals."""

import numpy as np
import pytest

from confvol import spectral
from confvol.curvature import laplacian
from confvol.models import FlatTorus, ProductOfSpheres, RoundSphere, sphere_volume
from confvol.quadrature import grid_with_weights, integrate
from confvol.spectral import (
    SpectralBasis,
    basis_for,
    field_gradients,
    field_values,
    gauss_jacobi,
    product_basis,
    sphere_basis,
    sphere_monomial_integral,
    sphere_pair_matrices,
    torus_basis,
)
from conftest import grid_dir_gram, raises_exit


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
    laps, _ = laplacian(m, list(basis.members), pts)
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


# Raw (unnormalized) pair matrices of the zonal harmonics of degrees 1..8 on
# axes 0 and 1 of S^n(1.3), computed by the 48 x 96 disk rule that preceded
# the Gauss-Jacobi one: (Gram, Dir) entries at the (8, axis 0) diagonal, the
# (8, axis 0)-(8, axis 1) cross entry and the (2, axis 0)-(2, axis 1) one
_DISK_RULE_ENTRIES = {
    2: ((1.2492450787215903, 0.34159045121293635, -2.1237166338267035),
        (53.222275543168266, 14.552965968835132, -7.5398223686155115)),
    3: ((43.367041738386554, 4.818560193154066, -14.45568057946217),
        (2052.877715426583, 228.09752393628713, -68.42925718088607)),
    4: ((534.0993561464451, 29.208558539258796, -48.32327507991642),
        (27811.090734252753, 1520.9190245294458, -285.93653893441666)),
    5: ((3799.0964508613174, 115.12413487458477, -115.12413487458515),
        (215806.66229744747, 6539.5958271953505, -817.4494783994222)),
    6: ((18814.57289950367, 342.9739851471993, -221.72055605475637),
        (1157819.8707386868, 21106.091393673905, -1836.7383341814168)),
    7: ((71513.62925500925, 833.4921824593075, -366.73656028209746),
        (4739364.779030191, 55237.3517369484, -3472.0621091796343)),
    8: ((221326.04563250777, 1729.109731503921, -539.3620522936709),
        (15715458.86147982, 122777.02235531026, -5744.684580642655)),
}


def _raw_zonal_basis(m, lmax=8):
    """Unit weights on the raw harmonics (degree, axis) for axes 0 and 1."""
    structure = tuple(((l, ax, 1.0),) for l in range(1, lmax + 1) for ax in (0, 1))
    return SpectralBasis(model=m, members=(None,) * len(structure),
                         eigenvalues=np.zeros(len(structure)), labels=(),
                         assemble=lambda basis: sphere_pair_matrices(m, basis),
                         zonal_structure=structure)


def test_sphere_pair_matrices_match_the_disk_rule():
    for n, (gram_ref, dir_ref) in _DISK_RULE_ENTRIES.items():
        m = RoundSphere(n, 1.3)
        dir_, gram = sphere_pair_matrices(m, _raw_zonal_basis(m))
        for mat, ref in ((gram, gram_ref), (dir_, dir_ref)):
            got = [mat[14, 14], mat[14, 15], mat[2, 3]]
            assert np.allclose(got, ref, rtol=1e-13, atol=0), (n, got, ref)
            # odd degrees on two axes integrate to zero
            assert abs(mat[12, 13]) <= 1e-13 * np.max(np.abs(mat)), n


def _diagonal_miss(n, lmax):
    m = RoundSphere(n, 1.0)
    basis = sphere_basis(m, lmax=lmax)
    dir_, gram = sphere_pair_matrices(m, basis)
    lam = basis.eigenvalues
    return (np.max(np.abs(gram - np.eye(basis.size))),
            np.max(np.abs(dir_ - np.diag(lam))) / np.max(lam))


def test_sphere_pair_rules_need_lmax_plus_one_nodes(monkeypatch):
    # lmax + 1 nodes make the degree-2 lmax integrands exact; with lmax the
    # s nodes are the zeros of the top Gegenbauer polynomial, whose Gram
    # diagonal then reads 0
    cases = [(n, lmax) for n in range(2, 9) for lmax in (1, 3, 8)]
    assert all(max(_diagonal_miss(n, lmax)) < 1e-11 for n, lmax in cases)
    rule = spectral.gauss_jacobi
    monkeypatch.setattr(spectral, "gauss_jacobi",
                        lambda nodes, alpha: rule(nodes - 1, alpha))
    for n, lmax in cases:
        assert _diagonal_miss(n, lmax)[0] > 0.5, (n, lmax)


def test_sphere_pair_rules_take_their_own_exponents(monkeypatch):
    # (n - 2)/2 in s and (n - 3)/2 in u; swapped, both matrices leave the
    # exact diagonal
    rule = spectral.gauss_jacobi
    for n, lmax in ((2, 3), (3, 8), (4, 2), (5, 5), (7, 3), (8, 8)):
        swap = {0.5 * (n - 2): 0.5 * (n - 3), 0.5 * (n - 3): 0.5 * (n - 2)}
        monkeypatch.setattr(spectral, "gauss_jacobi",
                            lambda nodes, alpha: rule(nodes, swap[alpha]))
        assert min(_diagonal_miss(n, lmax)) > 0.1, (n, lmax)


def test_gauss_jacobi_at_alpha_0_is_gauss_legendre():
    # the flow's and rv's 48-node radial rule, byte for byte
    from scipy.special import roots_legendre

    xs, ws = gauss_jacobi(48, 0.0)
    ref_xs, ref_ws = roots_legendre(48)
    assert xs.tobytes() == ref_xs.tobytes() and ws.tobytes() == ref_ws.tobytes()


def test_gauss_jacobi_is_shared_and_read_only():
    xs, ws = gauss_jacobi(5, 1.5)
    assert gauss_jacobi(5, 1.5)[0] is xs
    assert not (xs.flags.writeable or ws.flags.writeable)
    # the weights integrate (1 - x^2)^alpha: its total is B(1/2, alpha + 1)
    assert np.sum(ws) == pytest.approx(3.0 * np.pi / 8.0, rel=1e-14)


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
    laps, _ = laplacian(m, list(basis.members[:4]), pts)
    for lap, lam, f in zip(laps, basis.eigenvalues[:4], basis.members[:4]):
        assert np.max(np.abs(lap + lam * field_values(f, pts))) < 1e-9 * max(1.0, lam)


def test_torus_pair_is_exact_at_two_mmax_plus_one_points():
    # products of two modes up to mmax reach frequency 2 mmax, which
    # 2 mmax + 1 points per axis integrate exactly (2 mmax points alias)
    for periods, mmax in (((1.0, 1.0, 1.0), 2), ((1.0,) * 5, 1), ((1.0, 2.0), 4)):
        basis = torus_basis(FlatTorus(periods), mmax=mmax)
        dirichlet, gram = basis.dir_gram
        lam = basis.eigenvalues
        assert np.max(np.abs(gram - np.eye(basis.size))) <= 1e-13, periods
        assert np.max(np.abs(dirichlet - np.diag(lam))) <= 1e-13 * np.max(lam), periods


def test_product_basis():
    m = ProductOfSpheres(((2, 1.0), (2, 1.0)))
    basis = product_basis(m, lmax=2)
    gram = _quad_gram(m, basis, resolution=12)
    assert np.max(np.abs(gram - np.eye(basis.size))) < 1e-9
    # lowest eigenvalue on each factor is l(l+1)/r^2 = 2
    assert basis.first_eigenvalue() == pytest.approx(2.0, rel=1e-12)


def test_product_dir_gram_matches_member_closures():
    # each factor's block, scaled by what a lift integrates to over the
    # other factors, against the members on the product grid (exact for
    # degree-2 harmonics at resolution 4); entries across factors vanish
    m = ProductOfSpheres(((2, 1.0), (3, np.sqrt(2.0))))
    basis = product_basis(m, lmax=2)
    for got, ref in zip(basis.dir_gram, grid_dir_gram(m, basis, 4)):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


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
    with raises_exit(1, "lmax = 0 must be at least 1"):
        sphere_basis(RoundSphere(3, 1.0), lmax=0)
    with raises_exit(1, "mmax = 0 must be at least 1"):
        torus_basis(FlatTorus((1.0,)), mmax=0)
    # the member budget refuses a basis from its size alone, before building
    with raises_exit(1, r"basis size at lmax = 100000 on S\^3 is 200002; "
                        "it must be at most 1000"):
        sphere_basis(RoundSphere(3, 1.0), lmax=100_000)
    with raises_exit(1, "basis size at lmax = 300 on 2 sphere factors is 1202; "
                        "it must be at most 1000"):
        # each factor has 3 + 299 * 2 = 601 members; the product has 1,202
        product_basis(ProductOfSpheres(((2, 1.0), (2, 1.0))), lmax=300)
    from confvol.models import HyperbolicSpace

    with raises_exit(1, "no closed-form eigenbasis for HyperbolicSpace"):
        basis_for(HyperbolicSpace(3, 1.0))
