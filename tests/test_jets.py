"""Truncated Taylor arithmetic against hand-computed derivatives."""

import math

import numpy as np
import pytest

from confvol import jets
from confvol.jets import Jet


def _space(nvars=2, order=4):
    return jets.jet_space(nvars, order)


def test_variable_seeding():
    sp = _space()
    x = Jet.variable(sp, 0, 1.5)
    assert x.value == 1.5
    assert x.c[sp.index[(1, 0)]] == 1.0
    assert np.sum(np.abs(x.c)) == 2.5


def test_product_rule():
    sp = _space()
    x, y = jets.coordinates(sp, np.array([2.0, 3.0]))
    f = x * x * y + y
    # f = x^2 y + y at (2, 3): f_x = 2xy = 12, f_y = x^2 + 1 = 5, f_xx = 2y = 6
    assert f.value == pytest.approx(15.0)
    assert f.diff(0).value == pytest.approx(12.0)
    assert f.diff(1).value == pytest.approx(5.0)
    assert f.diff(0).diff(0).value == pytest.approx(6.0)
    assert f.diff(0).diff(1).value == pytest.approx(4.0)


def test_reciprocal_and_power():
    sp = jets.jet_space(1, 4)
    x = Jet.variable(sp, 0, 2.0)
    inv = 1.0 / x
    # d^k (1/x) = (-1)^k k! / x^{k+1}
    d = inv
    for k in range(1, 5):
        d = d.diff(0)
        assert d.value == pytest.approx((-1) ** k * math.factorial(k) / 2.0 ** (k + 1))
    cube = x ** 3
    assert cube.diff(0).value == pytest.approx(12.0)
    assert (x ** -2).value == pytest.approx(0.25)
    # only integer exponents have a jet power
    with pytest.raises(TypeError):
        x ** 0.5


def test_elementary_functions():
    sp = jets.jet_space(1, 4)
    x = Jet.variable(sp, 0, 0.7)
    for fn, deriv in [
        (jets.exp, np.exp(0.7)),
        (jets.cos, -np.sin(0.7)),
    ]:
        assert fn(x).diff(0).value == pytest.approx(deriv, rel=1e-12)


def test_composition_chain():
    # exp(cos(x^2)) fourth derivative via jets vs central differences
    sp = jets.jet_space(1, 4)
    x0 = 0.4
    x = Jet.variable(sp, 0, x0)
    f = jets.exp(jets.cos(x * x))
    d4 = f.diff(0).diff(0).diff(0).diff(0).value

    def g(t):
        return np.exp(np.cos(t * t))

    def stencil(h):
        return (g(x0 + 2 * h) - 4 * g(x0 + h) + 6 * g(x0)
                - 4 * g(x0 - h) + g(x0 - 2 * h)) / h ** 4

    # Richardson-extrapolated central stencil; the oracle itself is only
    # accurate to ~1e-6 relative before roundoff in h^4 takes over
    h = 2e-2
    rich = (4 * stencil(h / 2) - stencil(h)) / 3
    assert d4 == pytest.approx(rich, rel=1e-5)


def test_batched_coefficients():
    sp = _space()
    vals = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    x, y = jets.coordinates(sp, vals)
    f = x * y
    assert f.value == pytest.approx(vals[0] * vals[1])
    assert f.diff(0).value == pytest.approx(vals[1])


def test_mul_order_cut():
    # a product cut at order o holds exactly the ncoef_at(o) leading
    # coefficients of the full product, to the bit, elementwise or contracted
    rng = np.random.default_rng(5)
    for nvars, order in ((2, 3), (5, 2), (3, 4)):
        sp = jets.jet_space(nvars, order)
        cases = [
            ("...p,...p->...", (3, 1, 2), (4, 1)),
            ("ik...p,kj...p->ij...", (2, 4, 3), (4, 3, 3)),
            ("rml...p,lsn...p->rsmn...", (nvars,) * 3 + (2,), (nvars,) * 3 + (2,)),
        ]
        for subscripts, sa, sb in cases:
            a = rng.standard_normal(sa + (sp.ncoef,))
            b = rng.standard_normal(sb + (sp.ncoef,))
            full = sp.mul(a, b, None, subscripts)
            assert full.shape[-1] == sp.ncoef
            for o in range(order + 1):
                cut = sp.mul(a, b, o, subscripts)
                assert cut.shape == full.shape[:-1] + (sp.ncoef_at(o),)
                assert np.array_equal(cut, full[..., :sp.ncoef_at(o)]), (
                    nvars, order, subscripts, o)


def _mul_per_coefficient(sp, a, b, out_order, subscripts):
    # one einsum per output coefficient over its pairs, the plain definition;
    # like mul, it returns the coefficients up to out_order only
    nout = sp.ncoef_at(sp.order if out_order is None else out_order)
    terms = [np.einsum(subscripts, a[..., i], b[..., j])
             for i, j in sp._pairs[:nout]]
    return np.stack(terms, axis=-1)


def test_grouped_mul_matches_per_coefficient_loop():
    rng = np.random.default_rng(11)
    for nvars, order in ((5, 2), (3, 4)):
        sp = jets.jet_space(nvars, order)
        nc = (sp.ncoef,)
        cases = [
            ("...p,...p->...", (3, 1, 2), (4, 1)),
            ("ik...p,kj...p->ij...", (2, 4, 3), (4, 3, 3)),
            ("kl...p,lij...p->kij...", (nvars, nvars, 2), (nvars,) * 3 + (2,)),
        ]
        for subscripts, sa, sb in cases:
            a = rng.standard_normal(sa + nc)
            b = rng.standard_normal(sb + nc)
            for x, y in ((a, b), (a + 1j * rng.standard_normal(a.shape), b)):
                for o in (None, *range(order)):
                    got = sp.mul(x, y, o, subscripts)
                    want = _mul_per_coefficient(sp, x, y, o, subscripts)
                    assert got.shape == want.shape and got.dtype == want.dtype
                    err = np.max(np.abs(got - want))
                    assert err <= 1e-15 * np.max(np.abs(want)), (
                        nvars, order, subscripts, o)


def test_contracted_mul_matches_explicit_sum():
    # the matrix-jet product spec against the sum of elementwise products
    sp = jets.jet_space(3, 4)
    rng = np.random.default_rng(7)
    for batch_a, batch_b in [((2,), (2,)), ((3, 1), (1, 2))]:
        A = rng.standard_normal((2, 4) + batch_a + (sp.ncoef,))
        B = rng.standard_normal((4, 3) + batch_b + (sp.ncoef,))
        for o in (None, 2):
            got = sp.mul(A, B, o, "ik...p,kj...p->ij...")
            want = sum(sp.mul(A[:, l][:, None], B[l][None, :], o) for l in range(4))
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


TABLE_SPACES = ((1, 2), (3, 2), (5, 4), (7, 4))


@pytest.mark.parametrize("nvars, order", TABLE_SPACES)
def test_pair_tables_list_each_product_once_in_row_major_order(nvars, order):
    # the pairs of one output coefficient are the einsum's summation order,
    # so they must come in lexicographic (i, j) order
    sp = jets.JetSpace(nvars, order)
    monos = sp.monomials
    seen = set()
    for k, (idx_i, idx_j) in enumerate(sp._pairs):
        pairs = list(zip(idx_i.tolist(), idx_j.tolist()))
        assert pairs == sorted(set(pairs)), k
        for i, j in pairs:
            assert tuple(a + b for a, b in zip(monos[i], monos[j])) == monos[k]
        seen.update(pairs)
    assert seen == {(i, j) for i, mi in enumerate(monos)
                    for j, mj in enumerate(monos) if sum(mi) + sum(mj) <= order}


@pytest.mark.parametrize("nvars, order", TABLE_SPACES)
def test_diff_out_order_keeps_the_leading_coefficients(nvars, order):
    sp = jets.JetSpace(nvars, order)
    c = np.random.default_rng(nvars).standard_normal((2, 3, sp.ncoef))
    for v in range(nvars):
        full = sp.diff(c, v)
        # d/dx_v of x^m has coefficient (m_v + 1) c[m + e_v]
        for k, m in enumerate(sp.monomials):
            up = tuple(a + (u == v) for u, a in enumerate(m))
            want = (m[v] + 1) * c[..., sp.index[up]] if sum(m) < order else 0.0
            assert np.array_equal(full[..., k], np.broadcast_to(want, (2, 3)))
        for o in range(order + 1):
            assert np.array_equal(sp.diff(c, v, o), full[..., :sp.ncoef_at(o)])


def _constant(sp, values):
    return Jet.constant(sp, values).c


def _ref_compose(u, derivs):
    # Horner from the constant jet f^(order)(u0)/order!, every step a product
    sp = u.space
    h = u.c.copy()
    h[..., 0] = 0.0
    res = _constant(sp, derivs[sp.order] / math.factorial(sp.order))
    for m in range(sp.order - 1, -1, -1):
        res = sp.mul(res, h)
        res[..., 0] += derivs[m] / math.factorial(m)
    return res


@pytest.mark.parametrize("n", (3, 5, 7))
@pytest.mark.parametrize("order", (0, 2, 4))
def test_constant_factor_routes_match_the_pair_kernel(n, order):
    # a product with a constant factor is a scale of coefficient arrays; it
    # must give the pair kernel's values, with the constant written as a
    # jet, on either side.  Only the sign of a zero may differ, which
    # np.array_equal ignores
    sp = jets.jet_space(n, order)
    rng = np.random.default_rng(100 * n + order)
    for batch in (1, 2, 48):
        c = rng.standard_normal(batch)
        for zero_constant in (False, True):
            a = rng.standard_normal((batch, sp.ncoef))
            if zero_constant:
                a[..., 0] = 0.0
            scaled = (Jet(sp, a) * c).c
            assert np.array_equal(scaled, sp.mul(a, _constant(sp, c)))
            assert np.array_equal(scaled, sp.mul(_constant(sp, c), a))
            assert np.array_equal((c[0] * Jet(sp, a)).c,
                                  sp.mul(_constant(sp, np.full(batch, c[0])), a))
        # compositions and powers start from the scale
        u = Jet(sp, rng.uniform(0.5, 1.5, (batch, sp.ncoef)))
        u0 = u.value
        e0, s0, c0 = np.exp(u0), np.sin(u0), np.cos(u0)
        for got, derivs in (
                (jets.exp(u), [e0] * (order + 1)),
                (jets.cos(u), [[c0, -s0, -c0, s0][m % 4] for m in range(order + 1)]),
                (jets.reciprocal(u), [(-1.0) ** m * math.factorial(m) / u0 ** (m + 1)
                                      for m in range(order + 1)])):
            assert np.array_equal(got.c, _ref_compose(u, derivs))
        ref = _constant(sp, np.ones(batch))
        for p in range(4):
            assert np.array_equal((u ** p).c, ref), p
            ref = sp.mul(ref, u.c)


@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("n", range(1, 8))
def test_sum_of_squares_is_the_kernels_bit_for_bit(order, n):
    # the closed-form |x|^2 of a coordinate list against the pair kernel's
    # x_v * x_v added left to right, signed zeros included, on whole lists
    # and on slices, whose seeds keep their variables
    sp = jets.jet_space(n, order)
    rng = np.random.default_rng(10 * n + order)
    for batch in (1, 2, 48):
        values = rng.standard_normal((n, batch))
        values[:, ::3] = 0.0
        values[0, 1::4] = -0.0
        values[-1, 2::5] = -values[-1, 2::5]
        x = jets.coordinates(sp, values)
        for part in (slice(None), slice(1, None), slice(0, n - 1), slice(n // 2, n)):
            seeds = x[part]
            if not seeds:
                continue
            ref = sp.mul(seeds[0].c, seeds[0].c)
            for xv in seeds[1:]:
                ref = ref + sp.mul(xv.c, xv.c)
            assert seeds.variables == tuple(range(n))[part]
            got = seeds.sum_of_squares().c
            assert got.shape == ref.shape
            assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))
