"""Acceptance suite: one test and one printed pass/fail line per criterion.

Tolerances are pinned in each test; the summary block at the end of the
pytest run lists every criterion with its measured worst-case error and
runtime where a budget applies.
"""

import time
from math import pi

import numpy as np

from conftest import ACCEPTANCE_LINES
from confvol.errors import NotCritical
from confvol.flow import discretize, make_state, run_flow
from confvol.models import (
    ConformalDeformation,
    FlatTorus,
    HyperbolicSpace,
    ProductOfSpheres,
    RoundSphere,
    einstein_model,
    fourier_field,
    sphere_volume,
)
from confvol.renorm import (
    AHNormalForm,
    extract_expansion,
    gauss_bonnet_4d,
    geodesic_compactification,
    hyperbolic_normal_form,
    renorm_coefficient,
    renorm_volume_geodcomp,
)
from confvol.series import (
    L_tensor,
    einstein_L_exact,
    einstein_series,
    einstein_vk_exact,
    inverse_series,
    v_direct,
    vk_from_series,
)
from confvol.spectral import basis_for, sphere_basis
from confvol.variation import (
    classify_sign_Fk,
    classify_sign_V,
    delta_vk,
    hessian_Fk,
    hessian_V,
    obata_check,
)

SWEEP_N = range(3, 9)
SWEEP_A = (-1.0, -0.5, 0.5, 1.0, 2.0)


def _report(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_01_einstein_coefficient_identity():
    # v_k = a^k binom(n, k) to 1e-12 for n in 3..8, five values of a, k <= n
    tol, budget = 1e-12, 5.0
    t0 = time.perf_counter()
    worst = 0.0
    for n in SWEEP_N:
        for a in SWEEP_A:
            s = einstein_series(einstein_model(n, a), K=n)
            v = vk_from_series(s)
            for k in range(n + 1):
                exact = einstein_vk_exact(n, a, k)
                err = np.max(np.abs(v.vk(k) - exact)) / max(1.0, abs(exact))
                worst = max(worst, err)
    runtime = time.perf_counter() - t0
    _report(1, worst < tol and runtime < budget,
            f"series v_k vs a^k C(n,k), worst rel err {worst:.2e} "
            f"(tol {tol:.0e}), runtime {runtime:.2f}s (budget {budget:.0f}s)")


def test_criterion_02_direct_formula_cross_check():
    # (-2)^k v^(2k) from pointwise curvature equals series v_k to 1e-9
    tol = 1e-9
    worst = 0.0
    for n in SWEEP_N:
        for a in SWEEP_A:
            m = einstein_model(n, a)
            s = einstein_series(m, K=3)
            v = vk_from_series(s)
            for k in (1, 2, 3):
                if k == 3 and n == 4:
                    continue
                direct = (-2.0) ** k * v_direct(m, k, points=s.points)
                err = np.max(np.abs(direct - v.vk(k))) / max(
                    1.0, np.max(np.abs(v.vk(k))))
                worst = max(worst, err)
    _report(2, worst < tol,
            f"(-2)^k v^(2k) vs series v_k, worst rel err {worst:.2e} "
            f"(tol {tol:.0e})")


def test_criterion_03_L_tensor_identities():
    # the Einstein value is -a^{k-1} C(n-1, k-1) g^{ij} to 1e-12
    tol = 1e-12
    worst = 0.0
    for n in SWEEP_N:
        for a in SWEEP_A:
            s = einstein_series(einstein_model(n, a), K=n)
            ginv0 = inverse_series(s)[0]
            for k in range(1, n + 1):
                lt = L_tensor(s, k)
                c = einstein_L_exact(n, a, k)
                err = np.max(np.abs(lt.components - c * ginv0)) / max(1.0, abs(c))
                worst = max(worst, err)
    _report(3, worst < tol,
            f"Einstein closed form worst rel err {worst:.2e} "
            f"(tol {tol:.0e})")


def _basis_direction(m, basis, coef):
    """Random basis combination as one field sharing a single embedding
    evaluation (equivalent to combined_field, but cheap on high-order jets)."""
    from confvol.models import sphere_embedding

    per_axis = {}
    for c, structure in zip(coef, basis.zonal_structure):
        for degree, axis, weight in structure:
            poly = per_axis.setdefault(axis, np.zeros(9))
            from confvol.spectral import _gegenbauer_coeffs

            p = _gegenbauer_coeffs(degree, m.n)
            poly[: len(p)] += c * weight * p

    def field(x):
        emb = sphere_embedding(m, x)
        out = 0.0
        for axis, poly in per_axis.items():
            t = emb[axis]
            acc = poly[-1] * (t * 0.0 + 1.0)
            for cc in poly[-2::-1]:
                acc = acc * t + cc
            out = out + acc
        return out

    return field


def test_criterion_04_variation_oracle():
    # delta_vk matches central finite differences of the direct formulas
    # for k <= 3, n in {5, 7}, 10 random basis directions, rel tol 1e-6
    tol, budget, h = 1e-6, 60.0, 1e-4
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for n in (5, 7):
        m = RoundSphere(n, 1.0)
        basis = sphere_basis(m, lmax=2)
        pts = m.sample_points(2, rng)
        for _ in range(10):
            coef = rng.normal(size=len(basis.members))
            coef /= np.linalg.norm(coef)
            omega = _basis_direction(m, basis, coef)
            for k in (1, 2, 3):
                def vk_at(t):
                    mm = ConformalDeformation(m, lambda x: t * omega(x))
                    return (-2.0) ** k * v_direct(mm, k, points=pts)

                fd = (vk_at(h) - vk_at(-h)) / (2.0 * h)
                lin = delta_vk(m, omega, k, pts)
                err = np.max(np.abs(fd - lin)) / max(1.0, np.max(np.abs(lin)))
                worst = max(worst, err)
    runtime = time.perf_counter() - t0
    _report(4, worst < tol and runtime < budget,
            f"delta_vk vs finite differences (n in {{5,7}}, k <= 3, 10 "
            f"directions), worst rel err {worst:.2e} (tol {tol:.0e}), "
            f"runtime {runtime:.1f}s (budget {budget:.0f}s)")


def test_criterion_05_sign_table():
    # Hessian eigenvalue classification over the degree <= 8 harmonic basis
    # matches the sign table for n in 3..8, admissible k != n/2, both signs;
    # spheres show a nullspace of dimension exactly n + 1
    budget = 600.0
    t0 = time.perf_counter()
    checked = failures = 0
    for n in SWEEP_N:
        sphere = RoundSphere(n, 1.0)
        basis = sphere_basis(sphere, lmax=8)
        for k in range(1, n + 1):
            if n % 2 == 0 and k == n // 2:
                continue
            for sign, background in ((+1.0, sphere),
                                     (-1.0, HyperbolicSpace(n, 1.0))):
                form = hessian_Fk(background, k, basis)
                expected = classify_sign_Fk(n, k, sign)
                if sign > 0:
                    ok = (form.nullity == n + 1
                          and form.classification.startswith(expected.split()[0]))
                else:
                    ok = form.classification == expected
                checked += 1
                failures += not ok
    runtime = time.perf_counter() - t0
    _report(5, failures == 0 and runtime < budget,
            f"sign table: {checked} (n, k, sign) cells checked, "
            f"{failures} failures, sphere nullity n+1 enforced, "
            f"runtime {runtime:.1f}s (budget {budget:.0f}s)")


def test_criterion_06_renormalized_volume_sign_table():
    # V-Hessian signs for n in {2, 4, 6}, including the mod-4 alternation
    # (positive for R > 0 iff n = 0 mod 4)
    rows = []
    ok = True
    for n in (2, 4, 6):
        basis = sphere_basis(RoundSphere(n, 1.0), lmax=3)
        hs = hessian_V(RoundSphere(n, 1.0), basis)
        hh = hessian_V(HyperbolicSpace(n, 1.0), basis)
        kind = classify_sign_V(n, +1.0).split()[0]
        ok &= (hs.nullity == n + 1
               and hs.classification == f"{kind} semi-definite with nullity {n + 1}")
        ok &= hh.classification == classify_sign_V(n, -1.0)
        rows.append(f"n={n}:{kind[:3]}/{hh.classification.split()[0][:3]}")
    # explicit alternation: positive only at n = 4 among {2, 4, 6}
    ok &= classify_sign_V(4, +1.0) == "positive definite"
    ok &= classify_sign_V(2, +1.0) == "negative definite"
    ok &= classify_sign_V(6, +1.0) == "negative definite"
    _report(6, ok, "V-Hessian sign table " + ", ".join(rows)
            + " (sphere semi-definite, nullity n+1)")


def test_criterion_07_renormalized_volume_h4_h6():
    # analytic expansion V(H^4) = 4 pi^2 / 3 to 1e-8; bulk-integral route
    # (8/3) int v^(4) to 1e-6; Gauss-Bonnet residual < 1e-6; n = 5 with
    # C_6 = 16/5 matches to 1e-6
    a3 = hyperbolic_normal_form(RoundSphere(3, 1.0))
    exp3 = extract_expansion(a3)
    V_exact = 4.0 * pi ** 2 / 3.0
    e_analytic = abs(exp3.V - V_exact)
    V_bulk = renorm_volume_geodcomp(geodesic_compactification(a3), 3)
    e_bulk = abs(V_bulk - V_exact)
    e_gb = gauss_bonnet_4d(exp3.V, 0.0, chi=1.0, mode="AHE")
    a5 = hyperbolic_normal_form(RoundSphere(5, 1.0))
    exp5 = extract_expansion(a5)
    V_bulk5 = renorm_volume_geodcomp(geodesic_compactification(a5), 5)
    e_bulk5 = abs(V_bulk5 - exp5.V)
    ok = (e_analytic < 1e-8 and e_bulk < 1e-6 and e_gb < 1e-6
          and e_bulk5 < 1e-6 and renorm_coefficient(5) == 16.0 / 5.0)
    _report(7, ok,
            f"V(H^4): analytic err {e_analytic:.1e} (tol 1e-8), bulk "
            f"(8/3) int v^(4) err {e_bulk:.1e} (tol 1e-6), Gauss-Bonnet "
            f"residual {e_gb:.1e} (tol 1e-6); H^6 bulk (16/5) int v^(6) "
            f"err {e_bulk5:.1e} (tol 1e-6)")


def test_criterion_08_gauss_bonnet_s4():
    # closed S^4: |8 pi^2 * 2 - 16 int v^(4)| < 1e-6, Weyl term zero
    m = RoundSphere(4, 1.0)
    v4 = float(v_direct(m, 2, count=2)[0])
    resid = gauss_bonnet_4d(v4 * sphere_volume(4), 0.0, chi=2.0, mode="compact")
    _report(8, resid < 1e-6,
            f"compact Gauss-Bonnet on S^4: residual {resid:.1e} (tol 1e-6)")


def test_criterion_09_expansion_shape():
    # odd-n least-squares extraction: no log term (< 1e-8) and every c_{2k}
    # matches (1/(n-2k)) int v^(2k) over the boundary to 1e-8
    worst_log = worst_c = 0.0
    for n in (3, 5):
        form = hyperbolic_normal_form(RoundSphere(n, 1.0))
        # drop the polynomial tag to force the numerical fit path
        fit = extract_expansion(AHNormalForm(
            boundary=form.boundary, warp=form.warp, r_max=form.r_max))
        assert fit.method == "fit"
        worst_log = max(worst_log, abs(fit.log_coefficient))
        boundary = RoundSphere(n, 1.0)
        vol = sphere_volume(n)
        for k in range((n - 1) // 2 + 1):
            if k == 0:
                v2k = 1.0
            else:
                vals = v_direct(boundary, k, count=3)
                assert np.ptp(vals) < 1e-12
                v2k = float(vals[0])
            oracle = vol * v2k / (n - 2 * k)
            worst_c = max(worst_c, abs(fit.coefficients[k] - oracle))
    _report(9, worst_log < 1e-8 and worst_c < 1e-8,
            f"odd-n fit: |log coefficient| {worst_log:.1e} (tol 1e-8), "
            f"c_2k vs (1/(n-2k)) int v^(2k) worst err {worst_c:.1e} (tol 1e-8)")


def test_criterion_10_torus_flow():
    # perturbed flat T^3 (amplitude 0.05, k = 1) reaches sup deviation < 1e-6
    # within 1e4 steps with volume drift < 1e-8; the converged state passes
    # the constant-coefficient criticality gate
    torus = FlatTorus((1.0, 1.0, 1.0))
    omega0 = fourier_field(torus, (1, 0, 0), amplitude=0.05)
    report = run_flow(torus, 1, omega0, tol=1e-6, max_steps=10000)
    # criticality gate: re-evaluate v_1 of the converged conformal factor
    # from scratch and require the same constancy the Hessian gate enforces
    disc = report.final.disc
    fresh = make_state(disc, report.final.omega, 1)
    gate_ok = fresh.sup_deviation < 1e-6
    if not gate_ok:
        raise NotCritical(
            f"converged state fails the gate: {fresh.sup_deviation:.3e}")
    ok = (report.converged and report.steps <= 10000
          and report.volume_drift < 1e-8 and gate_ok)
    _report(10, ok,
            f"T^3 flow: converged in {report.steps} steps, final sup "
            f"deviation {report.final.sup_deviation:.1e} (tol 1e-6), volume "
            f"drift {report.volume_drift:.1e} (tol 1e-8), criticality gate "
            f"deviation {fresh.sup_deviation:.1e}")


def test_criterion_11_obata_suite():
    # first-eigenvalue bound with equality exactly on round spheres,
    # strict inequality on S^2 x S^2 and on flat tori
    results = []
    ok = True
    for n in (3, 5):
        m = RoundSphere(n, 1.0)
        chk = obata_check(basis_for(m, lmax=2), R=n * (n - 1))
        ok &= chk["satisfied"] and chk["equality"]
        results.append(f"S^{n}: equality")
    prod = ProductOfSpheres(((2, 1.0), (2, 1.0)))
    chk = obata_check(basis_for(prod, lmax=2), R=4.0)
    ok &= chk["satisfied"] and not chk["equality"]
    ok &= abs(chk["lambda_1"] - 2.0) < 1e-12
    results.append("S^2 x S^2: strict (2 > 4/3)")
    torus = FlatTorus((1.0, 1.0, 1.0))
    chk = obata_check(basis_for(torus, mmax=1), R=0.0)
    ok &= chk["satisfied"] and not chk["equality"]
    results.append("T^3: strict")
    _report(11, ok, "Obata bound: " + "; ".join(results))
