"""Truncated multivariate Taylor (jet) arithmetic.

Forward-mode propagation of derivatives through chart component functions.
A jet holds the Taylor coefficients of a scalar quantity in the chart
coordinates around a base point, truncated at a fixed total degree.  The
coefficient array carries arbitrary leading batch axes, so whole tensors
and whole batches of evaluation points propagate in one vectorized sweep.
A tensor of jets is one ``Jet`` whose array leads with the tensor axes: a
chart metric's diagonal is one (n, ..., ncoef) coefficient array.

``JetSpace.mul`` is the one product kernel.  Output coefficients of one
degree with the same number of contributing coefficient pairs form a group;
for each group it gathers those pairs and combines them with one
``np.einsum`` call, so the same loop gives the elementwise product of
``Jet`` arithmetic and tensor contractions of jets, such as the
Christoffel product of the curvature pipeline.
The pair tables are built with array operations on monomial codes, and the
pairs of each output coefficient are kept in row-major ``(i, j)`` order.
That order and the operand layout fix the output bits (see ``JetSpace.mul``).

A product with a constant factor does not call the kernel: multiplying a
jet by a number or an array scales its coefficients, ``_compose`` starts
Horner with the scale ``h f^(order)(u0)/order!``, and a power starts from
the jet itself, not from the constant 1.  These give the kernel's values
bit for bit: of the kernel's pairs for one output coefficient only the one
with the constant coefficient is nonzero, and the others add exact zeros
(tested on orders 0-4, n = 3-7, batches 1-48).  Only the sign of a zero
coefficient can differ.

Besides ring arithmetic and integer powers, jets compose with ``exp``,
``cos`` and ``reciprocal``, the functions the model charts and fields use.
``coordinates`` returns the seed jets in a list whose ``memo`` keeps jets
formed from the whole list; a slice is again such a list, of its seeds'
variables, with a memo of its own.  The list writes |x|^2 in closed form,
and that is the kernel's sum x_0 x_0 + x_1 x_1 + ... bit for bit: no output
coefficient of x_v x_v has more than two nonzero pair terms (the value
x_v^2, the gradient x_v + x_v and the coefficient 1 of x_v^2), so each is
exact, and einsum adds them to a +0 accumulator, so its zeros are +0.

Curvature needs exact metric derivatives to second order, which is why
charts are evaluated on jets instead of being finite-differenced.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def jet_space(nvars: int, order: int) -> "JetSpace":
    return JetSpace(nvars, order)


class JetSpace:
    """Monomial bookkeeping for jets in ``nvars`` variables up to ``order``."""

    def __init__(self, nvars: int, order: int):
        monos = []
        for deg in range(order + 1):
            for combo in itertools.combinations_with_replacement(range(nvars), deg):
                alpha = [0] * nvars
                for v in combo:
                    alpha[v] += 1
                monos.append(tuple(alpha))
        self.nvars = nvars
        self.order = order
        self.monomials = monos
        self.ncoef = len(monos)
        self.index = {m: i for i, m in enumerate(monos)}
        self.degree = np.array([sum(m) for m in monos])
        # boundaries of the degree blocks: monomials of degree <= d occupy
        # indices [0, self._cut[d])
        self._cut = [int(np.searchsorted(self.degree, d + 1)) for d in range(order + 1)]
        # monomial codes in base order + 1: exponents of a product within
        # the order never carry, so the code of a product is the sum of codes
        alpha = np.array(monos, dtype=np.int64)              # (ncoef, nvars)
        code = alpha @ (order + 1) ** np.arange(nvars, dtype=np.int64)
        by_code = np.argsort(code)

        def lookup(codes):
            return by_code[np.searchsorted(code, codes, sorter=by_code)]

        # multiplication pairs grouped by output coefficient, each group in
        # row-major (i, j) order
        left, right = np.nonzero(self.degree[:, None] + self.degree <= order)
        product = lookup(code[left] + code[right])
        grouped = np.argsort(product, kind="stable")
        bounds = np.cumsum(np.bincount(product, minlength=self.ncoef))[:-1]
        self._pairs = list(zip(np.split(left[grouped], bounds),
                               np.split(right[grouped], bounds)))
        # the same pairs grouped by (degree, pair count) and sorted by degree:
        # (degree, ks, idx_i, idx_j), idx_i and idx_j of shape (len(ks), count)
        groups = {}
        for k, (idx_i, _) in enumerate(self._pairs):
            groups.setdefault((int(self.degree[k]), len(idx_i)), []).append(k)
        # a group whose output coefficients are contiguous (every group of
        # degree 0 and 1) is written through a slice, not a fancy index
        self._groups = [
            (deg, slice(ks[0], ks[-1] + 1) if ks[-1] - ks[0] == len(ks) - 1
             else np.array(ks), np.stack([self._pairs[k][0] for k in ks]),
             np.stack([self._pairs[k][1] for k in ks]))
            for (deg, _), ks in sorted(groups.items())
        ]
        # partial derivative maps: coefficient i of d/dx_v, for the monomials
        # i of degree below the order, is coefficient src[i] times fac[i]
        nlow = self._cut[order - 1] if order else 0
        self._dmaps = [
            (lookup(code[:nlow] + (order + 1) ** v), alpha[:nlow, v] + 1.0)
            for v in range(nvars)
        ]

    def ncoef_at(self, order: int) -> int:
        return self._cut[min(order, self.order)]

    def mul(self, a: np.ndarray, b: np.ndarray, out_order: int | None = None,
            subscripts: str = "...p,...p->...") -> np.ndarray:
        """Coefficient-array product, truncated at ``out_order``.

        ``subscripts`` is an ``np.einsum`` spec over the leading axes, with
        ``p`` the axis of coefficient pairs of one output coefficient; the
        ellipsis also carries the axis of the output coefficients of one
        group.  The default is the broadcast elementwise product; a tensor
        letter both operands share contracts, e.g. ``"ik...p,kj...p->ij..."``
        multiplies matrix jets.  The result holds the ``ncoef_at(out_order)``
        coefficients up to ``out_order``, which read only input coefficients
        of degree <= ``out_order``.

        Each group's pairs are summed by one einsum call; on numpy 2.4 that
        call adds a group of 3-7 pairs in two interleaved lanes and a larger
        group in neither row-major nor lane order.  The pair order and the
        operand layout therefore fix the output bits, and any change to this
        kernel must be checked against the benchmark's task digests.

        Products with a constant factor do not come here: they are scales
        with the same values (see the module docstring).
        """
        top = self.order if out_order is None else min(out_order, self.order)
        out = None
        for deg, ks, idx_i, idx_j in self._groups:
            if deg > top:
                break
            term = np.einsum(subscripts, a[..., idx_i], b[..., idx_j])
            if out is None:
                # the groups up to degree top fill every coefficient below the cut
                out = np.empty(term.shape[:-1] + (self._cut[top],), dtype=term.dtype)
            out[..., ks] = term
        return out

    def diff(self, c: np.ndarray, v: int, out_order: int | None = None) -> np.ndarray:
        """Partial derivative in variable ``v``, as its coefficients up to
        ``out_order`` (all ``ncoef`` by default; those of the top degree
        are zero)."""
        src, fac = self._dmaps[v]
        nc = self.ncoef if out_order is None else self.ncoef_at(out_order)
        if nc <= len(src):
            return c[..., src[:nc]] * fac[:nc]
        out = np.zeros(c.shape[:-1] + (nc,), dtype=c.dtype)
        out[..., :len(src)] = c[..., src] * fac
        return out


def _as_inexact(a) -> np.ndarray:
    """Coerce to a float array, preserving complex inputs."""
    arr = np.asarray(a)
    if arr.dtype.kind not in "fc":
        arr = arr.astype(float)
    return arr


class Jet:
    """A batch of truncated Taylor expansions sharing one JetSpace."""

    __slots__ = ("space", "c")

    def __init__(self, space: JetSpace, c: np.ndarray):
        self.space = space
        self.c = _as_inexact(c)

    # -- construction -----------------------------------------------------

    @staticmethod
    def constant(space: JetSpace, value) -> "Jet":
        value = _as_inexact(value)
        c = np.zeros(value.shape + (space.ncoef,), dtype=value.dtype)
        c[..., 0] = value
        return Jet(space, c)

    @staticmethod
    def variable(space: JetSpace, v: int, value) -> "Jet":
        jet = Jet.constant(space, value)
        if space.order >= 1:
            unit = tuple(1 if i == v else 0 for i in range(space.nvars))
            jet.c[..., space.index[unit]] = 1.0
        return jet

    # -- views ------------------------------------------------------------

    @property
    def value(self) -> np.ndarray:
        return self.c[..., 0]

    def diff(self, v: int) -> "Jet":
        return Jet(self.space, self.space.diff(self.c, v))

    def gradient_value(self) -> np.ndarray:
        """Values of all first partials, stacked along a new leading axis."""
        return np.stack([self.diff(v).value for v in range(self.space.nvars)])

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, Jet):
            return other.c
        arr = _as_inexact(other)
        c = np.zeros(arr.shape + (self.space.ncoef,), dtype=arr.dtype)
        c[..., 0] = arr
        return c

    def __add__(self, other):
        return Jet(self.space, self.c + self._coerce(other))

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.c)

    def __sub__(self, other):
        return Jet(self.space, self.c - self._coerce(other))

    def __rsub__(self, other):
        return Jet(self.space, self._coerce(other) - self.c)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(self.space, self.space.mul(self.c, other.c))
        arr = _as_inexact(other)
        return Jet(self.space, self.c * arr[..., None])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * reciprocal(other)
        arr = _as_inexact(other)
        return Jet(self.space, self.c / arr[..., None])

    def __rtruediv__(self, other):
        return reciprocal(self) * other

    def __pow__(self, p):
        """Integer powers only; any other exponent raises TypeError."""
        p = operator.index(p)
        if p < 0:
            return reciprocal(self) ** (-p)
        if p == 0:
            return Jet.constant(self.space, np.ones(self.c.shape[:-1]))
        out = self
        for _ in range(p - 1):
            out = out * self
        return out


# -- analytic functions of jets ------------------------------------------


def _compose(u: Jet, derivs: list[np.ndarray]) -> Jet:
    """Taylor composition f(u) given f^(m)(u0) for m = 0..order (Horner)."""
    space = u.space
    order = space.order
    if order == 0:
        return Jet.constant(space, derivs[0])
    h = u.c.copy()
    h[..., 0] = 0.0
    # the innermost Horner step is a constant times h, a plain scale
    res = h * np.asarray(derivs[order] / math.factorial(order))[..., None]
    for m in range(order - 1, 0, -1):
        res[..., 0] += derivs[m] / math.factorial(m)
        res = space.mul(res, h)
    res[..., 0] += derivs[0]
    return Jet(space, res)


def reciprocal(u: Jet) -> Jet:
    u0 = u.value
    derivs = [((-1.0) ** m) * math.factorial(m) / u0 ** (m + 1)
              for m in range(u.space.order + 1)]
    return _compose(u, derivs)


def exp(x):
    if isinstance(x, Jet):
        e0 = np.exp(x.value)
        return _compose(x, [e0] * (x.space.order + 1))
    return np.exp(x)


def cos(x):
    if isinstance(x, Jet):
        s0, c0 = np.sin(x.value), np.cos(x.value)
        cycle = [c0, -s0, -c0, s0]
        return _compose(x, [cycle[m % 4] for m in range(x.space.order + 1)])
    return np.cos(x)


# -- structural helpers ---------------------------------------------------


class Coordinates(list):
    """Seed jets of the variables ``variables``; ``memo`` keeps jets formed
    from all of them.  A slice, such as a product factor's block, is again
    a ``Coordinates``, of its seeds' variables and with a memo of its own."""

    def __init__(self, seeds, variables):
        super().__init__(seeds)
        self.variables = variables
        self.memo = {}

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Coordinates(list.__getitem__(self, key), self.variables[key])
        return list.__getitem__(self, key)

    def sum_of_squares(self) -> Jet:
        """x_0^2 + x_1^2 + ... over the list, in closed form: the squared
        values added left to right, the gradient 2 x_v and 1 at each x_v^2,
        every other coefficient +0 (see the module docstring)."""
        space = self[0].space
        values = [xv.value for xv in self]
        c = np.zeros(values[0].shape + (space.ncoef,))
        for a in values:
            c[..., 0] += a * a
        for v, a in zip(self.variables, values):
            if space.order >= 1:
                c[..., 1 + v] = 2.0 * a + 0.0      # +0 where a is -0
            if space.order >= 2:
                c[..., space.index[tuple(2 * (u == v) for u in range(space.nvars))]] = 1.0
        return Jet(space, c)


def coordinates(space: JetSpace, values: np.ndarray) -> Coordinates:
    """Coordinate seed jets at base point(s) ``values`` (shape (nvars, ...))."""
    values = np.asarray(values, dtype=float)
    return Coordinates((Jet.variable(space, v, values[v]) for v in range(space.nvars)),
                       tuple(range(space.nvars)))
