"""Curvature pipeline: symmetries, model closed forms, fast-vs-chart."""

import numpy as np
import pytest

from confvol import curvature, jets, models
from confvol.curvature import (
    _christoffel,
    _inverse_jets,
    _kulkarni_nomizu,
    curvature_pack,
    laplacian,
    sigma_k,
)
from confvol.errors import GeneralFGUnavailable, KOutOfRange, NonPositiveDefinite
from confvol.models import (
    ConformalDeformation,
    FlatTorus,
    HyperbolicSpace,
    ProductOfSpheres,
    RoundSphere,
    WarpedRadial,
    zonal_field,
)
from confvol.jets import Jet
from confvol.series import v_direct
import order4_chart
from order4_chart import _MATMUL, chart_pack_order4

RNG = np.random.default_rng(42)


def _random_points(m, count):
    return m.sample_points(count, np.random.default_rng(7))


def test_sphere_closed_forms():
    m = RoundSphere(4, 1.0)
    pack = chart_pack_order4(m, _random_points(m, 6), want_bach=True)
    assert np.max(np.abs(pack.scalar - 12.0)) < 1e-10
    assert np.max(np.abs(pack.ricci - 3.0 * pack.metric)) < 1e-10
    assert np.max(np.abs(pack.schouten - 0.5 * pack.metric)) < 1e-10
    assert np.max(np.abs(pack.weyl)) < 1e-10
    assert np.max(np.abs(pack.bach)) < 1e-9


def test_hyperbolic_scalar():
    m = HyperbolicSpace(3, 1.0)
    pack = chart_pack_order4(m, _random_points(m, 6), want_bach=True)
    assert np.max(np.abs(pack.scalar + 6.0)) < 1e-9


def test_flat_torus_vanishing():
    m = FlatTorus((1.0, 2.0, 3.0))
    pack = chart_pack_order4(m, _random_points(m, 4), want_bach=True)
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


_WARP = lambda r: 1.0 + 0.3 * r * r - 0.2 * r ** 4


def _warped(fiber, warp=_WARP, r_range=(0.0, 1.0)):
    return WarpedRadial(warp, fiber, r_range)


# warped products over every closed-form fiber: a flat torus, a space form,
# a product of spheres, and warped products over a sphere and a product
_WARPED_KINDS = (
    _warped(FlatTorus((1.0, 2.0))),
    _warped(HyperbolicSpace(4, 0.8)),
    _warped(ProductOfSpheres(((2, 1.0), (3, 1.3)))),
    _warped(_warped(RoundSphere(3, 1.0), lambda r: 1.0 - r * r / 4.0, (0.0, 2.0))),
    _warped(_warped(ProductOfSpheres(((2, 1.0), (2, 1.5))))),
)


def test_fast_paths_match_chart(monkeypatch):
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
    # Bach tensor vanishes; the chart computes it in full
    for q in (2, 3, 5):
        cases.append((WarpedRadial(lambda r: 1.0 - r * r / 4.0,
                                   RoundSphere(q, 1.0), (0.0, 2.0)), True))
        cases.append((WarpedRadial(lambda r: 1.0 + 0.3 * r * r - 0.2 * r ** 4,
                                   RoundSphere(q, 1.3), (0.0, 1.0)), True))
    # Bach over a warped fiber is refused (test_bach_refuses_a_base_with_cotton)
    cases += [(m, not isinstance(m.fiber, WarpedRadial)) for m in _WARPED_KINDS]

    def no_chart(m, points):
        raise AssertionError(f"{type(m).__name__} ran the chart jets")

    names = ("riemann", "ricci", "scalar", "schouten", "weyl")
    for m, want_bach in cases:
        pts = _random_points(m, 5)
        assert models.closed_form(m, pts) is not None, type(m).__name__
        with monkeypatch.context() as patch:
            patch.setattr(curvature, "_chart_pack", no_chart)
            fast = curvature_pack(m, pts, want_bach=want_bach)
        chart = chart_pack_order4(m, pts, want_bach)
        for name in names + (("bach",) if want_bach else ()):
            a, b = getattr(fast, name), getattr(chart, name)
            scale = max(1.0, np.max(np.abs(b)))
            assert np.max(np.abs(a - b)) < 1e-9 * scale, (m, name)
    # every other kind runs the chart jets
    for m in (ConformalDeformation(RoundSphere(3, 1.0), lambda x: 0.1 * x[0]),
              _warped(ConformalDeformation(FlatTorus((1.0, 1.0)),
                                           lambda x: 0.1 * x[0]))):
        assert models.closed_form(m, _random_points(m, 2)) is None


def test_closed_form_refuses_a_vanishing_warp():
    # as the chart route does: dr^2 + f^2 h is degenerate where f = 0
    m = _warped(FlatTorus((1.0, 1.0)), lambda r: r - 0.5)
    pts = np.array([[0.5, 0.1, 0.2], [0.7, 0.3, 0.4]])
    with pytest.raises(NonPositiveDefinite, match="degenerate"):
        curvature_pack(m, pts)


def test_product_bach_matches_chart():
    m = ProductOfSpheres(((2, 1.0), (3, 1.0)))
    pts = _random_points(m, 3)
    fast = curvature_pack(m, pts, want_bach=True)
    chart = chart_pack_order4(m, pts, True)
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
        pb = _p_dot_bach(chart_pack_order4(m, _random_points(m, 2), True))
        assert np.max(np.abs(pb)) < 1e-12, m
    # a deformed product is not conformally flat, and its Bach term is not small
    m = ConformalDeformation(ProductOfSpheres(((2, 1.0), (3, 1.0))), bump)
    assert not models.conformally_flat(m)
    assert np.min(np.abs(_p_dot_bach(chart_pack_order4(m, _random_points(m, 2), True)))) > 1e-2


_BUMP = lambda x: 0.1 * x[0] * x[1] + 0.05 * x[2] - 0.07 * x[3] * x[3] + 0.04 * x[-1]


def _spheres(*factors):
    return ProductOfSpheres(factors)


# every route of the conformal Bach law: deformed products (n = 5..7), a
# second deformation whose omega is a plain number, a warped product over a
# product (w = log f), the same under a deformation, and a closed-form pack
_BACH_KINDS = (
    ConformalDeformation(_spheres((2, 1.0), (4, 1.3)), _BUMP),
    ConformalDeformation(_spheres((3, 1.0), (3, 1.0)), _BUMP),
    ConformalDeformation(_spheres((2, 1.0), (5, 1.0)), _BUMP),
    ConformalDeformation(_spheres((3, 1.2), (4, 1.0)), _BUMP),
    ConformalDeformation(ConformalDeformation(_spheres((2, 1.0), (3, 1.0)), _BUMP),
                         lambda x: 0.3),
    WarpedRadial(_WARP, _spheres((2, 1.0), (3, 1.3)), (0.0, 1.0)),
    ConformalDeformation(WarpedRadial(_WARP, _spheres((2, 1.0), (2, 1.5)), (0.0, 1.0)),
                         _BUMP),
    _spheres((2, 1.0), (3, 1.0)),
)


def test_bach_law_matches_order4_chart():
    # the law reads omega to first order; the reference runs order-4 chart
    # jets through covariant derivatives of P and shares no Bach formula
    for m in _BACH_KINDS:
        pts = _random_points(m, 6)
        law = curvature_pack(m, pts, want_bach=True).bach
        chart = chart_pack_order4(m, pts, True).bach
        bound = 1e-12 * max(1.0, np.max(np.abs(chart)))
        assert np.max(np.abs(law - chart)) <= bound, m


def test_bach_refuses_a_base_with_cotton():
    # over a warped fiber, dr^2 / f^2 + h has a Cotton tensor and the law
    # misses the chart; such a kind is refused, exit code 1
    m = WarpedRadial(_WARP, WarpedRadial(_WARP, RoundSphere(3), (0.0, 1.0)), (0.0, 1.0))
    with pytest.raises(GeneralFGUnavailable) as err:
        v_direct(m, 3, count=2)
    assert err.value.exit_code == 1


def test_bach_builds_no_jets_above_order_2(monkeypatch):
    from confvol import renorm

    orders = []
    build = jets.jet_space

    def recording(nvars, order):
        orders.append(order)
        return build(nvars, order)

    monkeypatch.setattr(jets, "jet_space", recording)
    field = zonal_field(RoundSphere(2), np.array([0.0, 0.1, 0.05]), 0)
    m = ConformalDeformation(_spheres((2, 1.0), (4, 1.3)), lambda x: field(x[:2]))
    v_direct(m, 3, count=24)
    boundary = _spheres((2, 1.0), (3, 1.0))
    V = renorm.renorm_volume_geodcomp(
        renorm.geodesic_compactification(renorm.hyperbolic_normal_form(boundary)), 5)
    assert orders and max(orders) <= 2
    # the order-4 chart gave -32.494027913941245
    assert abs(V + 32.494027913941245) <= 1e-13 * 32.5


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


# -- shared stereographic jets ------------------------------------------------
# The sphere chart and zonal fields share |x|^2 and 1/(L^2 + |x|^2) through
# the coordinate list's memo; the reference formulas below form them afresh
# for every component, as the code did before the memo, and must agree to
# the bit.


def _sum_of_squares(x):
    s2 = x[0] * x[0]
    for xi in x[1:]:
        s2 = s2 + xi * xi
    return s2


def _ref_sphere_chart(m, x):
    L2 = m.radius ** 2
    conf = (2.0 * L2 / (L2 + _sum_of_squares(x))) ** 2
    return models._delta_matrix(x, scale=conf)


def _ref_zonal(m, coeffs, axis):
    def field(x):
        L2 = m.radius ** 2
        s2 = _sum_of_squares(x)
        inv = 1.0 / (L2 + s2)
        comps = [2.0 * m.radius * xi * inv for xi in x]
        comps.append((L2 - s2) * inv)
        t = comps[axis]
        out = coeffs[-1] * (t * 0.0 + 1.0)
        for c in coeffs[-2::-1]:
            out = out * t + c
        return out

    return field


def _ref_inverse(G, g0, order):
    space = G.space
    inv0 = np.moveaxis(np.linalg.inv(g0), 0, -1)
    inv0_c = Jet.constant(space, inv0).c
    delta = G.c.copy()
    delta[..., 0] = 0.0
    E = space.mul(inv0_c, delta, order, _MATMUL)
    acc = Jet.constant(space, np.broadcast_to(np.eye(G.c.shape[0])[:, :, None],
                                              inv0.shape).copy()).c
    total = acc.copy()
    for _ in range(order):
        acc = -space.mul(acc, E, order, _MATMUL)
        total = total + acc
    return space.mul(total, inv0_c, order, _MATMUL)


_MIX = ((0, [0.1, -0.3, 0.2]), (2, [0.0, 0.25, -0.4]), (5, [-0.05, 0.0, 0.3]))


def _mix(m, make):
    return models.combined_field([make(m, np.array(c), a) for a, c in _MIX],
                                 [1.0, 0.7, -0.6])


def _coords(m, order, pts):
    return jets.coordinates(jets.jet_space(m.n, order), pts.T)


def test_shared_stereographic_jets_are_bitwise_unchanged():
    m = RoundSphere(5, 1.3)
    pts = _random_points(m, 4)
    for order in (2, 4):
        assert np.array_equal(m.chart(_coords(m, order, pts)).c,
                              _ref_sphere_chart(m, _coords(m, order, pts)).c)
        for axis in range(m.n + 1):
            coeffs = np.array([0.2, -0.5, 0.3, 0.7])
            new = zonal_field(m, coeffs, axis)(_coords(m, order, pts))
            ref = _ref_zonal(m, coeffs, axis)(_coords(m, order, pts))
            assert np.array_equal(new.c, ref.c), (order, axis)
        # omega and the base chart read one memo entry
        G = ConformalDeformation(m, _mix(m, zonal_field)).chart(
            _coords(m, order, pts))
        x = _coords(m, order, pts)
        ref = jets.exp(2.0 * _mix(m, _ref_zonal)(x)) * _ref_sphere_chart(m, x)
        assert np.array_equal(G.c, ref.c), order


def _assert_bitwise(got, ref):
    assert got.shape == ref.shape
    assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))


def test_inverse_jets_bitwise_unchanged():
    # the library's order-1 inverse and Christoffel jets are the oracle's
    # Neumann series and order-2 Christoffel step truncated to order 1, bit
    # for bit with signed zeros; the oracle's series is the pair kernel's
    # (to the sign of a zero) at every order it runs
    m = RoundSphere(5, 1.3)
    pts = _random_points(m, 4)
    for order in (2, 4):
        x = _coords(m, order, pts)
        G = ConformalDeformation(m, _mix(m, zonal_field)).chart(x)
        # off-diagonal terms exercise every entry of the matrix products
        G = G + 0.1 * Jet(G.space, np.stack([np.stack([(xi * xj).c for xj in x])
                                             for xi in x]))
        g0 = np.moveaxis(G.value, -1, 0)
        inv0 = np.ascontiguousarray(np.moveaxis(np.linalg.inv(g0), 0, -1))
        ref = order4_chart._inverse_jets(G, inv0, order)
        assert np.array_equal(ref, _ref_inverse(G, g0, order)), order
        Ginv = _inverse_jets(G, inv0)
        _assert_bitwise(Ginv, ref[..., :m.n + 1])
        _assert_bitwise(_christoffel(G, Ginv), order4_chart._christoffel(G, ref, 2))


def test_order4_oracle_shares_only_the_pack_type_with_curvature():
    # a fault in the library's inverse or Christoffel jets must not reach
    # both sides of a law-against-chart check
    shared = [name for name, obj in vars(order4_chart).items()
              if obj is curvature or getattr(obj, "__module__", None) == curvature.__name__]
    assert shared == ["CurvaturePack"]


def test_stereographic_memo_scope():
    # the memo is keyed by radius: spheres of radius 1 and 2 on one list
    # must match each on a list of its own
    pts = _random_points(RoundSphere(4, 1.0), 3)
    spheres = (RoundSphere(4, 1.0), RoundSphere(4, 2.0))
    fields = [zonal_field(s, np.array([0.1, 0.5, -0.2]), a)
              for s in spheres for a in (1, 4)]
    shared = _coords(spheres[0], 2, pts)
    for f in fields:
        assert np.array_equal(f(shared).c, f(_coords(spheres[0], 2, pts)).c)
    for s in spheres:
        assert np.array_equal(s.chart(shared).c, s.chart(_coords(s, 2, pts)).c)
    # a slice, such as a product factor's block, carries no memo
    assert hasattr(shared, "memo") and not hasattr(shared[1:], "memo")


def test_zonal_field_refuses_a_product_coordinate_list():
    # on the six coordinates of S^2 x S^4 the S^2 field would form |x|^2
    # over all six, so it is refused: a validation error, exit code 1
    from confvol.errors import InvalidRange

    field = zonal_field(RoundSphere(2), np.array([0.0, 0.1, 0.05]), 0)
    product = _spheres((2, 1.0), (4, 1.3))
    pts = _random_points(product, 3)
    with pytest.raises(InvalidRange) as err:
        field(_coords(product, 2, pts))
    assert err.value.exit_code == 1
    # the S^2 block of the same list is accepted
    block = _coords(product, 2, pts)[:2]
    assert np.array_equal(field(block).value, field(pts[:, :2].T))


def test_deformed_sphere_product_count(monkeypatch):
    # one order-2 chart pack of e^{2 omega} g_{S^5}, omega a 3-axis zonal
    # mix of degree 2: |x|^2 (5) and its reciprocal (1) once; per field
    # one embedding component (1) and Horner (1); exp (1); the squared
    # conformal factor (1) and its product with exp (1); Christoffel (1);
    # Riemann, scalar and Schouten (3).  Products with a constant factor
    # (the first Horner step of a composition or a field, the first factor
    # of a power, and both products by g0^{-1} in the order-1 inverse) are
    # scales, not kernel calls
    m = RoundSphere(5)
    omega = _mix(m, zonal_field)
    counted = jets.JetSpace.mul
    calls = []

    def mul(self, *args, **kwargs):
        calls.append(1)
        return counted(self, *args, **kwargs)

    monkeypatch.setattr(jets.JetSpace, "mul", mul)
    v_direct(ConformalDeformation(m, omega), 2, _random_points(m, 3))
    assert len(calls) == 6 + 3 * 2 + 1 + 1 + 1 + 1 + 3


def test_kulkarni_nomizu_bitwise_unchanged():
    # the four-einsum formula, written out; signed zeros in both factors
    rng = np.random.default_rng(7)
    for n in (3, 5, 8):
        P, g = rng.standard_normal((2, 4, n, n))
        P[0, 0, :] = 0.0
        P[1, :, 1] = -0.0
        g[2, 1, :] = -0.0
        g[3, :, 0] = 0.0
        P[3, 2, 2], g[0, 1, 1] = -0.0, -0.0
        ref = (np.einsum("...ik,...jl->...ijkl", P, g)
               + np.einsum("...jl,...ik->...ijkl", P, g)
               - np.einsum("...il,...jk->...ijkl", P, g)
               - np.einsum("...jk,...il->...ijkl", P, g))
        got = _kulkarni_nomizu(P, g)
        assert np.array_equal(got, ref), n
        assert np.array_equal(np.signbit(got), np.signbit(ref)), n


class _ChartOnly(models.ModelMetric):
    """A metric given only by its chart function, so it takes the chart route."""

    def __init__(self, n, chart):
        self.n, self.chart = n, chart


def test_chart_pack_rejects_degenerate_and_asymmetric_metrics():
    pts = np.array([[0.0, 0.3, -0.2]])
    degenerate = _ChartOnly(3, lambda x: models._delta_matrix(x, scale=x[0] * x[0]))
    with pytest.raises(NonPositiveDefinite, match="degenerate"):
        curvature_pack(degenerate, pts)

    def asymmetric(x):
        G = models._delta_matrix(x)
        G.c[0, 1, ..., 0] = 0.1
        return G

    with pytest.raises(NonPositiveDefinite, match="not symmetric"):
        curvature_pack(_ChartOnly(3, asymmetric), pts)


# -- closed-form metrics and on-demand Riemann and Weyl -----------------------

_CLOSED_KINDS = (
    FlatTorus((1.0, 2.0, 3.0)),
    RoundSphere(5, 1.3),
    HyperbolicSpace(4, 0.8),
    ProductOfSpheres(((2, 1.0), (3, 1.7))),
    WarpedRadial(lambda r: 1.0 + 0.3 * r * r - 0.2 * r ** 4, RoundSphere(3, 1.3),
                 (0.0, 1.0)),
)


def test_direct_metric_matches_chart_bitwise():
    # closed-form kinds write their metric without jets, in the chart's
    # order of operations, so both agree to the bit, signed zeros included
    for m in _CLOSED_KINDS + _WARPED_KINDS + (
            _warped(RoundSphere(2, 0.7), lambda r: jets.exp(0.3 * r)),):
        pts = _random_points(m, 16)
        x = jets.coordinates(jets.jet_space(m.n, 0), pts.T)
        chart = np.moveaxis(m.chart(x).value, -1, 0)
        direct = models.metric_values(m, pts)
        assert np.array_equal(direct, chart), m
        assert np.array_equal(np.signbit(direct), np.signbit(chart)), m
    for m in (ConformalDeformation(RoundSphere(3), lambda x: x[0]),
              _warped(ConformalDeformation(FlatTorus((1.0, 1.0)), lambda x: x[0]))):
        assert models.closed_form(m, _random_points(m, 2)) is None


def test_v_k_path_forms_no_riemann_or_weyl(monkeypatch):
    # v_k reads g, g^{-1} and P only: the packs of v_direct, of rv's bulk
    # integral and of the criticality values form Riemann and Weyl on
    # neither route, unless they hold Bach
    from confvol import renorm, series, variation

    packs = []

    def recording(m, points, want_bach=False):
        packs.append(curvature_pack(m, points, want_bach))
        return packs[-1]

    for module in (series, variation):
        monkeypatch.setattr(module, "curvature_pack", recording)
    bump = lambda x: 0.1 * x[0] * x[1] + 0.05 * x[2]
    for m in _CLOSED_KINDS + (ConformalDeformation(RoundSphere(5, 1.0), bump),):
        for k in range(1, 3 + (m.n >= 5)):
            v_direct(m, k, count=3)
    compact = renorm.geodesic_compactification(
        renorm.hyperbolic_normal_form(RoundSphere(5)))
    renorm.renorm_volume_geodcomp(compact, 5)
    variation._critical_values.__wrapped__(RoundSphere(5, 0.9))
    plain = [pack for pack in packs if pack.bach is None]
    assert len(plain) == len(packs) - 1       # v_3 on the product takes Bach
    for pack in plain:
        assert "riemann" not in vars(pack) and "weyl" not in vars(pack)
    # Bach reads Weyl, which reads Riemann, once
    pack = curvature_pack(ProductOfSpheres(((2, 1.0), (3, 1.0))),
                          _random_points(RoundSphere(5), 2), want_bach=True)
    assert "riemann" in vars(pack) and "weyl" in vars(pack)


def test_closed_form_v_k_allocates_no_n4_array():
    # at n = 12 and batch 48 one (B, n, n, n, n) array takes 8 MB; the
    # closed-form v_k path must stay far below that
    import tracemalloc

    for m in (RoundSphere(12, 1.0), ProductOfSpheres(((5, 1.0), (7, 1.4))),
              WarpedRadial(lambda r: 1.0 - r * r / 4.0, RoundSphere(11, 1.0),
                           (0.0, 2.0)),
              _warped(ProductOfSpheres(((5, 1.0), (6, 1.4))))):
        pts = _random_points(m, 48)
        v_direct(m, 2, points=pts)            # warm caches outside the trace
        tracemalloc.start()
        try:
            v_direct(m, 2, points=pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 12 ** 4 * 8 / 10, (m, peak)
