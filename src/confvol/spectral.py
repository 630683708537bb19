"""Laplacian eigenbases on model manifolds with exact spectra.

Spheres use zonal harmonics: restrictions of Gegenbauer polynomials in a
single ambient coordinate, eigenvalue l(l+n-1)/L^2 at degree l.  Gram and
Dirichlet matrices of the raw zonal family reduce to one- and two-variable
sphere monomial integrals, which have a closed Gamma-function form, so the
orthonormalization is exact.  Tori use Fourier modes; products of spheres
lift factor harmonics.  Each constructor gives its basis the assembler of
its quadrature Dirichlet/Gram pair: Gauss-Jacobi rules of lmax + 1 nodes on
spheres, exact for these polynomials, a uniform grid of 2 mmax + 1 points
per axis on tori (at most 1,001 nodes for 1,000 members), and each
factor's pair as a diagonal block on products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gamma, pi
from typing import Callable

import numpy as np

from . import jets
from .errors import ConfvolError, NumericalFailure, check_size
from .models import (
    FlatTorus,
    ModelMetric,
    ProductOfSpheres,
    RoundSphere,
    combined_field,
    fourier_field,
    sphere_volume,
    zonal_field,
)


@dataclass(frozen=True)
class SpectralBasis:
    """Orthonormal mean-zero eigenfunctions of -Delta on a model manifold,
    so its Gram matrix is the identity and its Dirichlet matrix is
    diag(eigenvalues) by construction."""

    model: ModelMetric
    members: tuple
    eigenvalues: np.ndarray
    labels: tuple
    assemble: Callable[[SpectralBasis], tuple] = field(repr=False, compare=False)
    # for sphere bases: per member, ((degree, axis, weight), ...) expressing
    # it as a combination of raw zonal harmonics
    zonal_structure: tuple | None = None

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def dir_gram(self) -> tuple:
        """(Dirichlet, Gram) by quadrature on the model, built by ``assemble``
        on first read and kept read-only, so a k sweep assembles once."""
        pair = self.assemble(self)
        for mat in pair:
            mat.flags.writeable = False
        return pair

    def first_eigenvalue(self) -> float:
        return float(np.min(self.eigenvalues))


_MAX_MEMBERS = 1000      # Dir/Gram assembly costs members^2 x nodes
_AXES_PER_DEGREE = 2     # zonal axes of each sphere basis degree above 1


def _zonal_size(n: int, lmax: int) -> int:
    """Members of a sphere basis: the full degree-1 block, then a few axes."""
    return (n + 1) + (lmax - 1) * min(_AXES_PER_DEGREE, n + 1)


def basis_for(m: ModelMetric, *args, **kw) -> SpectralBasis:
    """Eigenbasis of the model's kind; a positional size argument is lmax
    on spheres and products and mmax on tori."""
    if isinstance(m, RoundSphere):
        return sphere_basis(m, *args, **kw)
    if isinstance(m, FlatTorus):
        return torus_basis(m, *args, **kw)
    if isinstance(m, ProductOfSpheres):
        return product_basis(m, *args, **kw)
    raise ConfvolError(f"no closed-form eigenbasis for {type(m).__name__}")


# -- exact sphere integrals -------------------------------------------------


def sphere_monomial_integral(n: int, p: int, q: int = 0) -> float:
    """Integral of y_i^p y_j^q (i != j) over the unit n-sphere."""
    if p % 2 or q % 2:
        return 0.0
    num = 2.0 * gamma((p + 1) / 2.0) * gamma((q + 1) / 2.0) * pi ** ((n - 1) / 2.0)
    return num / gamma((p + q + n + 1) / 2.0)


def _poly_pair_integral(n: int, f: np.ndarray, g: np.ndarray, same_axis: bool) -> float:
    """Integral of f(y_i) g(y_j) over the unit n-sphere, coefficients ascending."""
    if same_axis:
        h = np.convolve(f, g)
        return sum(c * sphere_monomial_integral(n, p) for p, c in enumerate(h) if c)
    return sum(
        cf * cg * sphere_monomial_integral(n, p, q)
        for p, cf in enumerate(f) if cf
        for q, cg in enumerate(g) if cg
    )


@lru_cache(maxsize=None)
def _gegenbauer_coeffs(l: int, n: int) -> np.ndarray:
    """Ascending coefficients of the degree-l zonal harmonic polynomial
    (read-only: the array is shared between callers)."""
    from scipy.special import gegenbauer

    try:
        with np.errstate(all="raise"):
            coeffs = np.asarray(gegenbauer(l, (n - 1) / 2.0).coeffs[::-1])
        # scipy.special.gamma overflows to inf without a floating-point error
        finite = np.all(np.isfinite(coeffs))
    except FloatingPointError:
        finite = False
    if not finite:
        raise ConfvolError(f"the degree-{l} Gegenbauer coefficients on S^{n} "
                           f"leave the float range")
    coeffs.flags.writeable = False
    return coeffs


@lru_cache(maxsize=None)
def gauss_jacobi(nodes: int, alpha: float):
    """Gauss-Jacobi nodes and weights on [-1, 1] for the weight
    (1 - x^2)^alpha; alpha = 0 is Gauss-Legendre (read-only: the arrays are
    shared between callers).  Kept here, below ``quadrature``, so that every
    module reaches it without an import cycle."""
    from scipy.special import roots_jacobi

    xs, ws = roots_jacobi(nodes, alpha, alpha)
    for arr in (xs, ws):
        arr.flags.writeable = False
    return xs, ws


# -- sphere basis -----------------------------------------------------------


def sphere_basis(m: RoundSphere, lmax: int = 8) -> SpectralBasis:
    """Zonal harmonics to degree lmax, orthonormalized degree by degree.

    Degree 1 always carries the full (n+1)-dimensional block of ambient
    coordinate functions; higher degrees take ``_AXES_PER_DEGREE`` axes.
    """
    n, L = m.n, m.radius
    if n < 2:
        # the Gegenbauer index (n-1)/2 is 0 on the circle: no zonal family
        raise ConfvolError(f"n = {n} must be at least 2 for zonal harmonics")
    if lmax < 1:
        raise ConfvolError(f"lmax = {lmax} must be at least 1")
    check_size(f"the basis size at lmax = {lmax} on S^{n}", _zonal_size(n, lmax),
               _MAX_MEMBERS)
    members, eigenvalues, labels, structure = [], [], [], []
    for l in range(1, lmax + 1):
        naxes = n + 1 if l == 1 else min(_AXES_PER_DEGREE, n + 1)
        coeffs = _gegenbauer_coeffs(l, n)
        axes = list(range(naxes))
        # exact Gram of the raw zonal block on the radius-L sphere
        same, cross = (_poly_pair_integral(n, coeffs, coeffs, same_axis) * L ** n
                       for same_axis in (True, False))
        raw = np.where(np.eye(naxes, dtype=bool), same, cross)
        # rows of inv(chol) give orthonormal combinations; the monomial
        # coefficients cancel catastrophically at high degree
        try:
            chol = np.linalg.cholesky(raw)
        except np.linalg.LinAlgError:
            raise NumericalFailure(
                f"the raw zonal Gram of degree {l} on S^{n} is not positive "
                f"definite; lower lmax") from None
        trans = np.linalg.inv(chol)
        fields = [zonal_field(m, coeffs, axis) for axis in axes]
        lam = l * (l + n - 1) / L ** 2
        for r in range(naxes):
            members.append(combined_field(fields[: r + 1], trans[r, : r + 1]))
            eigenvalues.append(lam)
            labels.append((l, axes[r]))
            structure.append(tuple(
                (l, axes[i], float(trans[r, i])) for i in range(r + 1)))
    return SpectralBasis(
        model=m,
        members=tuple(members),
        eigenvalues=np.asarray(eigenvalues),
        labels=tuple(labels),
        # looked up at call time, so that a wrapper of it sees every call
        assemble=lambda basis: sphere_pair_matrices(m, basis),
        zonal_structure=tuple(structure),
    )


def sphere_pair_matrices(m: RoundSphere, basis: SpectralBasis):
    """Dirichlet and Gram matrices of a sphere basis by exact Gauss-Jacobi
    quadrature.

    Every basis member is a combination of raw zonal harmonics, each a
    polynomial of degree at most lmax in one ambient coordinate.  On one
    axis an entry is an integral in s with weight
    area(S^{n-1}) (1 - s^2)^{(n-2)/2}; across two axes (s, t) it is an
    integral over the unit disk with weight
    area(S^{n-2}) (1 - s^2 - t^2)^{(n-3)/2}, which t = sqrt(1 - s^2) u
    factors into (1 - s^2)^{(n-2)/2} (1 - u^2)^{(n-3)/2}.  Odd powers of t
    vanish in u and t^q becomes (1 - s^2)^{q/2} times the q-th moment of
    the u rule, so every integrand is a polynomial of degree at most
    2 lmax in s, and rules of lmax + 1 nodes in s and u are exact.  The
    member weights W of ``zonal_structure`` give Dir = W D W^T and
    Gram = W G W^T from the (degree, degree) tables D and G.  Independent
    of the closed-form Gamma-function route used to orthonormalize the
    basis.
    """
    if basis.zonal_structure is None:
        raise ConfvolError("basis carries no zonal structure")
    n, L = m.n, m.radius

    # raw harmonics (degree, axis), and the members as rows of weights on them
    raw = sorted({(d, ax) for st in basis.zonal_structure for d, ax, _ in st})
    column = {key: c for c, key in enumerate(raw)}
    W = np.zeros((basis.size, len(raw)))
    for a, st in enumerate(basis.zonal_structure):
        for d, ax, weight in st:
            W[a, column[(d, ax)]] += weight

    degrees = sorted({d for d, _ in raw})
    nodes = degrees[-1] + 1
    # one zero-padded (power, degree) coefficient matrix evaluates every
    # degree at once
    C = np.zeros((nodes, len(degrees)))
    for c, d in enumerate(degrees):
        C[: d + 1, c] = _gegenbauer_coeffs(d, n)
    s, ws = gauss_jacobi(nodes, 0.5 * (n - 2))
    u, wu = gauss_jacobi(nodes, 0.5 * (n - 3))
    q = np.arange(nodes)
    dC = q[:, None] * C                 # coefficients of t f'(t)
    # (node, degree) values of f(s) and f'(s)
    powers = s[:, None] ** q
    vs, dvs = powers @ C, powers[:, :-1] @ dC[1:]
    # t^q integrated over u at each s node: (1 - s^2)^{q/2} times the q-th
    # moment of the u rule, which vanishes at odd q
    moments = np.where(q % 2 == 0, wu @ u[:, None] ** q, 0.0)
    tpow = moments * (1.0 - s * s)[:, None] ** (q // 2)
    vt, tdvt = tpow @ C, tpow @ dC
    same_w, cross_w = ws * sphere_volume(n - 1), ws * sphere_volume(n - 2)
    # (degree, degree) tables on one axis and across two
    gram_same, gram_cross = (vs.T * same_w) @ vs, (vs.T * cross_w) @ vt
    dir_same = (dvs.T * ((1.0 - s * s) * same_w)) @ dvs
    dir_cross = -((dvs.T * (s * cross_w)) @ tdvt)

    deg = np.searchsorted(degrees, [d for d, _ in raw])
    ax = np.array([a for _, a in raw])
    same = ax[:, None] == ax[None, :]
    i, j = deg[:, None], deg[None, :]
    D = np.where(same, dir_same[i, j], dir_cross[i, j])
    G = np.where(same, gram_same[i, j], gram_cross[i, j])
    return W @ D @ W.T * L ** (n - 2), W @ G @ W.T * L ** n


# -- torus basis ------------------------------------------------------------


def _half_lattice(n: int, mmax: int):
    """One representative of each +-m pair of nonzero integer modes."""
    grids = np.meshgrid(*[np.arange(-mmax, mmax + 1)] * n, indexing="ij")
    modes = np.stack([g.ravel() for g in grids], axis=1)
    keep = []
    for mode in modes:
        nz = mode[mode != 0]
        if nz.size and nz[0] > 0:
            keep.append(tuple(int(v) for v in mode))
    return keep


def torus_basis(m: FlatTorus, mmax: int = 4) -> SpectralBasis:
    """Real Fourier modes (cos and sin per half-lattice mode), orthonormal."""
    if mmax < 1:
        raise ConfvolError(f"mmax = {mmax} must be at least 1")
    check_size(f"the basis size at mmax = {mmax} in dimension {m.n}",
               (2 * mmax + 1) ** m.n - 1, _MAX_MEMBERS)
    amp = np.sqrt(2.0 / m.volume)
    members, eigenvalues, labels, phases = [], [], [], []
    modes = _half_lattice(m.n, mmax)
    modes.sort(key=lambda mo: sum((2 * pi * mi / p) ** 2 for mi, p in zip(mo, m.periods)))
    for mode in modes:
        lam = sum((2.0 * pi * mi / p) ** 2 for mi, p in zip(mode, m.periods))
        for phase, tag in ((0.0, "cos"), (-pi / 2.0, "sin")):
            members.append(fourier_field(m, mode, amplitude=amp, phase=phase))
            eigenvalues.append(lam)
            labels.append((mode, tag))
            phases.append(phase)

    def assemble(basis):
        # member i is amp cos(kappa_i . x + phase_i); a product of two modes
        # up to mmax has frequencies up to 2 mmax, which a uniform grid
        # integrates exactly with more than 2 mmax points per axis
        from .quadrature import grid_with_weights    # quadrature imports spectral

        pts, w = grid_with_weights(m, 2 * mmax + 1)
        wavenumbers = np.array([mode for mode, _ in labels], dtype=float)
        kappa = 2.0 * np.pi * wavenumbers / np.asarray(m.periods)
        arg = kappa @ pts.T + np.array(phases)[:, None]
        vals, dvals = amp * np.cos(arg), -amp * np.sin(arg)
        # the flat metric is the identity: Dir = (kappa kappa^T) * (d d^T)
        return (kappa @ kappa.T) * ((dvals * w) @ dvals.T), (vals * w) @ vals.T

    return SpectralBasis(
        model=m,
        members=tuple(members),
        eigenvalues=np.asarray(eigenvalues),
        labels=tuple(labels),
        assemble=assemble,
    )


# -- products ---------------------------------------------------------------


def product_basis(m: ProductOfSpheres, lmax: int = 4) -> SpectralBasis:
    """Factor harmonics lifted to the product (constant on the other factors),
    from each factor's sphere basis."""
    check_size(f"the basis size at lmax = {lmax} on {len(m.factors)} sphere factors",
               sum(_zonal_size(d, lmax) for d, _ in m.factors), _MAX_MEMBERS)
    members, eigenvalues, labels, blocks = [], [], [], []
    offset = 0
    for fi, (d, r) in enumerate(m.factors):
        sub_basis = sphere_basis(RoundSphere(d, r), lmax=lmax)
        other_vol = m.volume / sphere_volume(d, r)
        norm = 1.0 / np.sqrt(other_vol)
        for member, lam, lab in zip(sub_basis.members, sub_basis.eigenvalues,
                                    sub_basis.labels):
            members.append(_lifted_field(member, offset, d, norm))
            eigenvalues.append(lam)
            labels.append((fi,) + lab)
        # a lifted pair integrates over the other factors to norm^2 times
        # their volume
        blocks.append((sub_basis, norm ** 2 * other_vol))
        offset += d
    order = np.argsort(eigenvalues, kind="stable")

    def assemble(basis):
        # gradients on different factors are orthogonal and every factor
        # harmonic has mean zero, so entries across factors vanish
        from scipy.linalg import block_diag

        pair = [block_diag(*(scale * sub.dir_gram[i] for sub, scale in blocks))
                for i in (0, 1)]
        return tuple(mat[np.ix_(order, order)] for mat in pair)

    return SpectralBasis(
        model=m,
        members=tuple(members[i] for i in order),
        eigenvalues=np.asarray(eigenvalues)[order],
        labels=tuple(labels[i] for i in order),
        assemble=assemble,
    )


def _lifted_field(field, offset: int, d: int, norm: float):
    def lifted(x):
        return norm * field(x[offset:offset + d])

    return lifted


# -- pointwise evaluation helpers -------------------------------------------


def field_values(field, pts: np.ndarray) -> np.ndarray:
    """Values of a jet-style field at chart points pts of shape (npts, n)."""
    space = jets.jet_space(pts.shape[1], 0)
    x = jets.coordinates(space, pts.T)
    out = field(x)
    return out.value if isinstance(out, jets.Jet) else np.asarray(out)


def field_gradients(field, pts: np.ndarray) -> np.ndarray:
    """Chart partial derivatives at each point, shape (npts, n)."""
    space = jets.jet_space(pts.shape[1], 1)
    x = jets.coordinates(space, pts.T)
    out = field(x)
    if not isinstance(out, jets.Jet):
        return np.zeros_like(pts)
    return out.gradient_value().T
