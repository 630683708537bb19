"""Curvature pipeline: symmetries, model closed forms, fast-vs-chart."""

import numpy as np
import pytest

from confvol import models
from confvol.curvature import (
    _chart_pack,
    _closed_form,
    curvature_pack,
    laplacian,
    sigma_k,
)
from confvol.errors import KOutOfRange
from confvol.models import (
    ConformalDeformation,
    FlatTorus,
    HyperbolicSpace,
    ProductOfSpheres,
    RoundSphere,
    WarpedRadial,
)

RNG = np.random.default_rng(42)


def _random_points(m, count):
    return m.sample_points(count, np.random.default_rng(7))


def test_sphere_closed_forms():
    m = RoundSphere(4, 1.0)
    pack = _chart_pack(m, _random_points(m, 6), want_bach=True)
    assert np.max(np.abs(pack.scalar - 12.0)) < 1e-10
    assert np.max(np.abs(pack.ricci - 3.0 * pack.metric)) < 1e-10
    assert np.max(np.abs(pack.schouten - 0.5 * pack.metric)) < 1e-10
    assert np.max(np.abs(pack.weyl)) < 1e-10
    assert np.max(np.abs(pack.bach)) < 1e-9


def test_hyperbolic_scalar():
    m = HyperbolicSpace(3, 1.0)
    pack = _chart_pack(m, _random_points(m, 6), want_bach=True)
    assert np.max(np.abs(pack.scalar + 6.0)) < 1e-9


def test_flat_torus_vanishing():
    m = FlatTorus((1.0, 2.0, 3.0))
    pack = _chart_pack(m, _random_points(m, 4), want_bach=True)
    assert np.max(np.abs(pack.riemann)) < 1e-12
    assert np.max(np.abs(pack.bach)) < 1e-12


def test_riemann_symmetries_random_points():
    # first Bianchi plus the index symmetries, on an inhomogeneous metric
    m = ConformalDeformation(
        RoundSphere(3, 1.0),
        lambda x: 0.2 * x[0] + 0.1 * x[1] * x[2])
    pts = _random_points(m, 200)
    pack = curvature_pack(m, pts, want_bach=False)
    rm = pack.riemann
    assert np.max(np.abs(rm + rm.transpose(0, 2, 1, 3, 4))) < 1e-10
    assert np.max(np.abs(rm + rm.transpose(0, 1, 2, 4, 3))) < 1e-10
    assert np.max(np.abs(rm - rm.transpose(0, 3, 4, 1, 2))) < 1e-10
    bianchi = rm + rm.transpose(0, 1, 3, 4, 2) + rm.transpose(0, 1, 4, 2, 3)
    assert np.max(np.abs(bianchi)) < 1e-10
    # Weyl is trace-free in every pair
    tr = np.einsum("bik,bijkl->bjl", pack.inverse, pack.weyl)
    assert np.max(np.abs(tr)) < 1e-10


def test_fast_paths_match_chart():
    # space forms and flat tori take their Bach tensor from -P^{kl} W_{kijl}
    cases = [
        (RoundSphere(3, 2.0), True),
        (HyperbolicSpace(4, 1.5), True),
        (FlatTorus((1.0, 2.0, 3.0)), True),
        (ProductOfSpheres(((2, 1.0), (2, 1.0))), False),
        (WarpedRadial(lambda r: 1.0 - r * r / 4.0, RoundSphere(3, 1.0),
                      (0.0, 2.0)), False),
    ]
    # warped products over a round sphere are conformally flat, so their
    # Bach tensor -P^{kl} W_{kijl} vanishes; the chart computes it in full
    for q in (2, 3, 5):
        cases.append((WarpedRadial(lambda r: 1.0 - r * r / 4.0,
                                   RoundSphere(q, 1.0), (0.0, 2.0)), True))
        cases.append((WarpedRadial(lambda r: 1.0 + 0.3 * r * r - 0.2 * r ** 4,
                                   RoundSphere(q, 1.3), (0.0, 1.0)), True))
    names = ("riemann", "ricci", "scalar", "schouten", "weyl")
    for m, want_bach in cases:
        pts = _random_points(m, 5)
        assert _closed_form(m, pts) is not None, type(m).__name__
        fast = curvature_pack(m, pts, want_bach=want_bach)
        chart = _chart_pack(m, pts, want_bach)
        for name in names + (("bach",) if want_bach else ()):
            a, b = getattr(fast, name), getattr(chart, name)
            scale = max(1.0, np.max(np.abs(b)))
            assert np.max(np.abs(a - b)) < 1e-9 * scale, (type(m).__name__, m.n, name)
    # every other kind runs the chart jets
    for m in (ConformalDeformation(RoundSphere(3, 1.0), lambda x: 0.1 * x[0]),
              WarpedRadial(lambda r: 1.0 + r * r, FlatTorus((1.0, 1.0)),
                           (0.0, 1.0))):
        assert _closed_form(m, _random_points(m, 2)) is None


def test_product_bach_matches_chart():
    m = ProductOfSpheres(((2, 1.0), (3, 1.0)))
    pts = _random_points(m, 3)
    fast = curvature_pack(m, pts)
    chart = _chart_pack(m, pts, True)
    assert np.max(np.abs(fast.bach - chart.bach)) < 1e-9


def _p_dot_bach(pack):
    return np.einsum("bik,bjl,bkl,bij->b", pack.inverse, pack.inverse,
                     pack.schouten, pack.bach)


def test_conformally_flat_kinds_have_no_bach():
    # v_direct drops P^{ij}B_{ij} on every kind conformally_flat accepts;
    # the order-4 chart, which never consults the predicate, must agree
    warp = lambda r: 1.0 + 0.3 * r * r - 0.2 * r ** 4
    bump = lambda x: 0.1 * x[0] * x[1] + 0.05 * x[2]
    flat = [RoundSphere(5, 1.3), HyperbolicSpace(5, 0.8), FlatTorus((1.0,) * 5)]
    flat += [ConformalDeformation(b, bump) for b in flat]
    warped = [WarpedRadial(warp, b, (0.0, 1.0)) for b in
              (RoundSphere(4, 1.3), HyperbolicSpace(4, 0.8), FlatTorus((1.0,) * 4))]
    flat += warped + [ConformalDeformation(warped[0], bump)]
    for m in flat:
        assert models.conformally_flat(m), m
        pb = _p_dot_bach(_chart_pack(m, _random_points(m, 2), True))
        assert np.max(np.abs(pb)) < 1e-12, m
    # a deformed product is not conformally flat, and its Bach term is not small
    m = ConformalDeformation(ProductOfSpheres(((2, 1.0), (3, 1.0))), bump)
    assert not models.conformally_flat(m)
    assert np.min(np.abs(_p_dot_bach(_chart_pack(m, _random_points(m, 2), True)))) > 1e-2


def test_scaling_covariance():
    # g -> c^2 g: Rm_{ijkl} -> c^2 Rm, R -> R / c^2, P -> P, W -> c^2 W
    base = ConformalDeformation(RoundSphere(3, 1.0), lambda x: 0.3 * x[1])
    scaled = ConformalDeformation(base, lambda x: np.log(2.0) + 0.0 * x[0])
    pts = _random_points(base, 4)
    p1 = curvature_pack(base, pts, want_bach=False)
    p2 = curvature_pack(scaled, pts, want_bach=False)
    c2 = 4.0
    assert np.max(np.abs(p2.riemann - c2 * p1.riemann)) < 1e-9
    assert np.max(np.abs(p2.scalar - p1.scalar / c2)) < 1e-9
    assert np.max(np.abs(p2.schouten - p1.schouten)) < 1e-9


def test_conformal_scalar_linearization():
    # dR/dt at t = 0 along e^{2 t omega} g0 equals -2(n-1) Lap(omega) - 2 R omega
    torus = FlatTorus((1.0, 1.0, 1.0))
    omega = models.fourier_field(torus, (1, 1, 0), amplitude=0.3)
    pts = _random_points(torus, 5)
    h = 1e-4

    def scal(t):
        m = ConformalDeformation(torus, lambda x, t=t: t * omega(x))
        return curvature_pack(m, pts, want_bach=False).scalar

    fd = (scal(h) - scal(-h)) / (2 * h)
    lap = laplacian(torus, [omega], pts)[0]
    n = 3
    assert np.max(np.abs(fd + 2 * (n - 1) * lap)) < 1e-6


def test_laplacian_eigenfunction():
    m = RoundSphere(3, 1.0)
    from confvol.spectral import sphere_basis, field_values

    basis = sphere_basis(m, lmax=2)
    pts = _random_points(m, 6)
    for idx in (0, len(basis.members) - 1):
        lap = laplacian(m, [basis.members[idx]], pts)[0]
        vals = field_values(basis.members[idx], pts)
        assert np.max(np.abs(lap + basis.eigenvalues[idx] * vals)) < 1e-9


def test_sigma_k_values():
    # sigma_k of P = a g is binom(n, k) a^k
    m = RoundSphere(5, 1.0)
    pack = curvature_pack(m, _random_points(m, 3), want_bach=False)
    for k, expect in [(1, 2.5), (2, 2.5), (3, 1.25)]:
        val = sigma_k(pack.schouten, pack.metric, k)
        assert np.max(np.abs(val - expect)) < 1e-12
    with pytest.raises(KOutOfRange):
        sigma_k(pack.schouten, pack.metric, 6)
