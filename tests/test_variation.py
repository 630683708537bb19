"""First and second conformal variations of the coefficient functionals."""

import numpy as np
import pytest

from confvol.models import (
    ConformalDeformation,
    FlatTorus,
    HyperbolicSpace,
    ProductOfSpheres,
    RoundSphere,
    einstein_constant,
    sphere_volume,
    zonal_field,
)
from confvol import series, spectral, variation
from confvol.cli import cli_dispatch
from confvol.curvature import curvature_pack
from confvol.quadrature import integrate
from confvol.series import einstein_series, einstein_vk_exact, v_direct
from confvol.spectral import (basis_for, field_values, sphere_basis,
                              sphere_pair_matrices, torus_basis)
from conftest import grid_dir_gram, raises_exit
from confvol.variation import (
    classify_sign_Fk,
    classify_sign_V,
    delta_vk,
    first_variation_Fk,
    functional_Fk,
    hessian_Fk,
    hessian_V,
    obata_check,
)

RNG = np.random.default_rng(9)


def test_delta_vk_eigenfunction_closed_form():
    # on an eigenfunction, delta v_k = -(c_L lambda + 2k v_k) omega
    m = RoundSphere(5, 1.0)
    basis = sphere_basis(m, lmax=2)
    pts = m.sample_points(6, RNG)
    from confvol.series import einstein_L_exact

    a = einstein_constant(m)
    for idx in (0, len(basis.members) - 1):
        omega = basis.members[idx]
        lam = basis.eigenvalues[idx]
        got = delta_vk(m, omega, 2, pts)
        cL = einstein_L_exact(5, a, 2)
        vk = einstein_vk_exact(5, a, 2)
        expect = (-cL * lam - 4.0 * vk) * field_values(omega, pts)
        assert np.max(np.abs(got - expect)) < 1e-9 * max(1.0, np.max(np.abs(expect)))


def test_delta_vk_finite_difference():
    # independent oracle: differentiate v_k of e^{2 t omega} g at t = 0
    m = RoundSphere(5, 1.0)
    basis = sphere_basis(m, lmax=2)
    omega = basis.members[3]
    pts = m.sample_points(5, RNG)
    h = 1e-4
    for k in (1, 2, 3):
        def vk_at(t):
            mm = ConformalDeformation(m, lambda x: t * omega(x))
            return (-2.0) ** k * v_direct(mm, k, points=pts)

        fd = (vk_at(h) - vk_at(-h)) / (2 * h)
        lin = delta_vk(m, omega, k, pts)
        scale = max(1.0, np.max(np.abs(lin)))
        assert np.max(np.abs(fd - lin)) < 1e-5 * scale, k


def test_functional_values():
    # F_k = a^k binom(n, k) Vol on Einstein backgrounds
    m = RoundSphere(4, 2.0)
    a = einstein_constant(m)
    for k in (0, 1, 2):
        expect = einstein_vk_exact(4, a, k) * sphere_volume(4, 2.0)
        assert functional_Fk(m, k) == pytest.approx(expect, rel=1e-12)


def test_deformation_with_flat_origin_is_not_einstein():
    # omega = 0.2 y_0^2 has zero gradient at the chart origin, yet
    # e^{2 omega} g is not Einstein: v_1 is not constant, so F_1 must come
    # from the curvature, not from a closed form
    s3 = RoundSphere(3, 1.0)
    m = ConformalDeformation(s3, zonal_field(s3, [0.0, 0.0, 0.2], 0))
    assert einstein_constant(m) is None
    with raises_exit(1, "ConformalDeformation has no recognized Einstein constant"):
        delta_vk(m, lambda x: x[0], 1, np.zeros((1, 3)))
    with raises_exit(1, "ConformalDeformation is not a recognized Einstein model"):
        einstein_series(m)
    # v_1 = R / (2(n-1)) from the chart pack
    chart = integrate(m, f=lambda pts: curvature_pack(m, pts, want_bach=False)
                      .scalar / 4.0, tol=1e-9)
    assert functional_Fk(m, 1) == pytest.approx(chart, rel=1e-9)


def test_first_variation_vanishing_cases():
    m = RoundSphere(4, 1.0)
    basis = sphere_basis(m, lmax=2)
    # mean-zero directions: the first variation of F_k vanishes at Einstein g
    for omega in (basis.members[0], basis.members[-1]):
        assert abs(first_variation_Fk(m, 1, omega)) < 1e-9
    # k = n/2: conformally invariant, so every direction gives zero
    assert abs(first_variation_Fk(m, 2, lambda x: 0.3 + 0.1 * x[0])) < 1e-9


def test_hessian_diagonal_closed_form():
    # S^5, k = 1: diagonal (n-2k) a^{k-1} binom(n-1, k-1) (lambda - 2na)
    m = RoundSphere(5, 1.0)
    basis = sphere_basis(m, lmax=2)
    H = hessian_Fk(m, 1, basis)
    a = 0.5
    diag = 3.0 * (basis.eigenvalues - 10.0 * a)
    assert np.max(np.abs(H.matrix - np.diag(diag))) < 1e-9 * np.max(np.abs(diag))
    # degree-1 block is exactly null (lambda_1 = n/L^2 = 2na)
    assert H.nullity == 6
    assert H.classification.startswith("positive semi-definite")


def test_hessian_matches_sign_table():
    cases = [
        (RoundSphere(5, 1.0), 3, "negative"),     # k > n/2, R > 0
        (RoundSphere(6, 1.0), 1, "positive"),     # k < n/2, R > 0
        (RoundSphere(7, 1.0), 5, "negative"),
    ]
    for m, k, kind in cases:
        basis = sphere_basis(m, lmax=2)
        H = hessian_Fk(m, k, basis)
        expect = classify_sign_Fk(m.n, k, +1.0)
        assert expect.startswith(kind)
        # spheres are the semi-definite borderline case of the table
        assert H.classification == f"{kind} semi-definite with nullity {m.n + 1}"


def test_hessian_negative_curvature_surrogate():
    # noncompact backgrounds are probed through a surrogate spectrum carrying
    # exact Dirichlet/Gram data; definiteness must match the sign table
    for n, k in [(5, 1), (5, 2), (6, 1), (7, 3)]:
        bg = HyperbolicSpace(n, 1.0)
        basis = sphere_basis(RoundSphere(n, 1.0), lmax=2)
        H = hessian_Fk(bg, k, basis)
        assert H.classification == classify_sign_Fk(n, k, -1.0)


def test_hessian_zero_form_label():
    # on a flat torus cL and v_k vanish for k >= 2, so the form is zero
    H = hessian_Fk(FlatTorus((1.0, 1.0, 1.0)), 2,
                   torus_basis(FlatTorus((1.0, 1.0, 1.0)), mmax=1))
    assert not np.any(H.matrix)
    assert H.classification == "zero with nullity 26"
    assert H.nullity == 26


def test_hessian_V_sphere_and_hyperbolic():
    H = hessian_V(RoundSphere(4, 1.0), sphere_basis(RoundSphere(4, 1.0), lmax=2))
    assert H.classification == "positive semi-definite with nullity 5"
    Hh = hessian_V(HyperbolicSpace(4, 1.0), sphere_basis(RoundSphere(4, 1.0), lmax=2))
    assert Hh.classification == "negative definite"
    assert classify_sign_V(4, -1.0) == "negative definite"
    assert classify_sign_V(4, +1.0) == "positive definite"
    assert classify_sign_V(6, +1.0) == "negative definite"


def test_classification_scale_invariant():
    # rescaling the background must not change the verdicts
    for c in (0.5, 2.0):
        m = RoundSphere(5, c)
        basis = sphere_basis(m, lmax=2)
        H = hessian_Fk(m, 1, basis)
        assert H.classification == "positive semi-definite with nullity 6"
        assert H.volume == pytest.approx(sphere_volume(5, c), rel=1e-12)


def test_unit_volume_factor():
    m = RoundSphere(5, 1.0)
    H = hessian_Fk(m, 1, sphere_basis(m, lmax=2))
    assert H.unit_volume_factor == pytest.approx(
        sphere_volume(5) ** (-3.0 / 5.0), rel=1e-12)


def test_obata_bound():
    # equality exactly on the round sphere; strict elsewhere
    s = RoundSphere(5, 1.0)
    chk = obata_check(basis_for(s, lmax=2), R=20.0)
    assert chk["satisfied"] and chk["equality"]
    p = ProductOfSpheres(((2, 1.0), (2, 1.0)))
    chk = obata_check(basis_for(p, lmax=2), R=4.0)
    assert chk["satisfied"] and not chk["equality"]
    assert chk["lambda_1"] == pytest.approx(2.0)
    assert chk["bound"] == pytest.approx(4.0 / 3.0)
    t = FlatTorus((1.0, 1.0, 1.0))
    chk = obata_check(basis_for(t, mmax=1), R=0.0)
    assert chk["satisfied"] and not chk["equality"]


def test_error_conditions():
    m = RoundSphere(4, 1.0)
    basis = sphere_basis(m, lmax=2)
    with raises_exit(1, "F_2 in dimension 4 is conformally invariant"):
        hessian_Fk(m, 2, basis)
    with raises_exit(1, r"k = 5 outside 1\.\.4"):
        hessian_Fk(m, 5, basis)
    with raises_exit(1, "volume Hessian needs even n, got 5"):
        hessian_V(RoundSphere(5, 1.0), sphere_basis(RoundSphere(5, 1.0), lmax=1))
    with raises_exit(1, "ProductOfSpheres has no recognized Einstein constant"):
        delta_vk(ProductOfSpheres(((2, 1.0), (2, 2.0))), lambda x: x[0], 1,
                 np.zeros((1, 4)))
    with raises_exit(1, "k = n/2 = 2 is conformally invariant"):
        classify_sign_Fk(4, 2, +1.0)
    with raises_exit(1, "classification needs R != 0"):
        classify_sign_Fk(4, 1, 0.0)
    with raises_exit(1, "ConformalDeformation has no recognized Einstein constant"):
        # non-constant conformal factor breaks the Einstein property
        bumpy = ConformalDeformation(RoundSphere(5, 1.0),
                                     lambda x: 0.3 * x[0])
        delta_vk(bumpy, lambda x: x[0], 1, np.zeros((1, 5)))


def test_not_critical_gate():
    # an almost-Einstein product whose factor curvatures differ slightly at
    # the last digit the bookkeeping tolerates is still rejected by the
    # pointwise criticality check if v_k disagrees with the closed form
    import confvol.variation as variation

    m = RoundSphere(5, 1.0)
    basis = sphere_basis(m, lmax=1)
    # feed a background whose claimed Einstein constant is wrong by patching
    # the closed-form lookup; the v_direct cross-check must catch it
    orig = variation.einstein_constant
    try:
        variation.einstein_constant = lambda mm: 0.6   # true value is 0.5
        with raises_exit(2, "v_1 deviates from constant by"):
            variation.hessian_Fk(m, 1, basis)
    finally:
        variation.einstein_constant = orig


def test_diagonal_gate(monkeypatch):
    # a Dirichlet matrix off by one part in 10^6 moves the assembled S^5
    # Hessian off its closed-form diagonal past the gate's tolerance
    def skewed(m, basis):
        dir_, gram = sphere_pair_matrices(m, basis)
        return (1.0 + 1e-6) * dir_, gram

    m = RoundSphere(5, 1.0)
    monkeypatch.setattr(spectral, "sphere_pair_matrices", skewed)
    with raises_exit(2, "deviates from exact diagonal"):
        hessian_Fk(m, 1, sphere_basis(m, lmax=3))


def test_product_hessians_meet_the_gate_at_lmax_8():
    # each factor's exact Gauss-Jacobi pair sits on its own diagonal block,
    # so no product grid aliases the degree-8 harmonics
    for factors in (((2, 1.0), (2, 1.0)), ((2, 1.0), (3, np.sqrt(2.0))),
                    ((3, 1.0), (3, 1.0))):
        p = ProductOfSpheres(factors)
        basis = basis_for(p, lmax=8)
        n = p.n
        for k in (1, 2):
            if 2 * k != n:
                H = hessian_Fk(p, k, basis)
                assert H.classification == classify_sign_Fk(n, k, +1.0), (n, k)
        if n % 2 == 0:
            assert hessian_V(p, basis).classification == classify_sign_V(n, +1.0)


def test_torus_hessian_does_not_alias():
    # products of modes up to mmax = 4 reach frequency 8, past an 8-point grid
    t = FlatTorus((1.0, 1.0))
    basis = torus_basis(t, mmax=4)
    assert basis.size == 80
    H = hessian_V(t, basis)
    assert H.classification == "negative definite"


def test_torus_dir_gram_from_labels_matches_members():
    # the torus pair evaluates the modes and phases torus_basis recorded;
    # they must stay the functions the member closures compute
    for periods, mmax in (((1.0, 2.0), 2), ((1, 1, 1), 1)):
        t = FlatTorus(periods)
        basis = torus_basis(t, mmax=mmax)
        for got, ref in zip(basis.dir_gram, grid_dir_gram(t, basis, 8)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_one_dir_gram_assembly_per_basis(monkeypatch, capsys):
    calls = []

    def counted(m, basis):
        calls.append(m.n)
        return sphere_pair_matrices(m, basis)

    monkeypatch.setattr(spectral, "sphere_pair_matrices", counted)
    assert cli_dispatch(["signtable", "--nmin", "3", "--nmax", "5"]) == 0
    capsys.readouterr()
    assert calls == [3, 4, 5]
    # a Hessian from a basis that already holds its matrices is the one a
    # fresh basis gives, bit for bit
    for m, k, make in ((RoundSphere(5, 1.0), 2, lambda m: sphere_basis(m, lmax=4)),
                       (FlatTorus((1, 1, 1)), 1, lambda m: torus_basis(m, 1))):
        reused = make(m)
        hessian_Fk(m, 1, reused)
        a, b = hessian_Fk(m, k, reused), hessian_Fk(m, k, make(m))
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_one_criticality_pack_per_background(monkeypatch, capsys):
    calls = []

    def counted(m, points, want_bach=False):
        calls.append(m)
        return curvature_pack(m, points, want_bach=want_bach)

    for module in (variation, series):
        monkeypatch.setattr(module, "curvature_pack", counted)
    variation._critical_values.cache_clear()
    assert cli_dispatch(["signtable", "--nmin", "3", "--nmax", "8"]) == 0
    capsys.readouterr()
    # 6 spheres and 6 hyperbolic spaces, each packed once for all its k
    assert len(calls) <= 12 and len(set(calls)) == len(calls)
    # the check reads what v_direct gives at its four seed-0 points, bit
    # for bit, for every k it covers; Bach enters at k = 3 on the product
    backgrounds = (RoundSphere(3, 1.0), RoundSphere(6, 2.0), HyperbolicSpace(4, 1.0),
                   HyperbolicSpace(7, 0.5), FlatTorus((1, 2, 3, 1, 1)),
                   ProductOfSpheres(((3, 1.0), (3, 1.0))))
    for m in backgrounds:
        vals = variation._critical_values(m)
        assert sorted(vals) == ([1, 2] if m.n == 4 else [1, 2, 3])
        for k, got in vals.items():
            assert not got.flags.writeable
            assert np.array_equal(got, (-2.0) ** k * v_direct(m, k, count=4)), (m, k)
