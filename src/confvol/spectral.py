"""Laplacian eigenbases on model manifolds with exact spectra.

Spheres use zonal harmonics: restrictions of Gegenbauer polynomials in a
single ambient coordinate, eigenvalue l(l+n-1)/L^2 at degree l.  Gram and
Dirichlet matrices of the raw zonal family reduce to one- and two-variable
sphere monomial integrals, which have a closed Gamma-function form, so the
orthonormalization is exact.  Tori use Fourier modes; products of spheres
lift factor harmonics.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma, pi

import numpy as np
from scipy.special import gegenbauer

from . import jets
from .errors import InvalidRange
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
    """Orthonormal mean-zero eigenfunctions of -Delta on a model manifold.

    gram is the identity and dirichlet = diag(eigenvalues) by construction;
    both are stored so consumers can cross-check them by quadrature.
    """

    model: ModelMetric
    members: tuple
    eigenvalues: np.ndarray
    gram: np.ndarray
    dirichlet: np.ndarray
    labels: tuple
    # for sphere bases: per member, ((degree, axis, weight), ...) expressing
    # it as a combination of raw zonal harmonics
    zonal_structure: tuple | None = None

    @property
    def size(self) -> int:
        return len(self.members)

    def first_eigenvalue(self) -> float:
        return float(np.min(self.eigenvalues))


def basis_for(m: ModelMetric, *args, **kw) -> SpectralBasis:
    """Eigenbasis of the model's kind; a positional size argument is lmax
    on spheres and products and mmax on tori."""
    if isinstance(m, RoundSphere):
        return sphere_basis(m, *args, **kw)
    if isinstance(m, FlatTorus):
        return torus_basis(m, *args, **kw)
    if isinstance(m, ProductOfSpheres):
        return product_basis(m, *args, **kw)
    raise InvalidRange(f"no closed-form eigenbasis for {type(m).__name__}")


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


def _poly_dirichlet_integral(n: int, f: np.ndarray, g: np.ndarray,
                             same_axis: bool) -> float:
    """Integral of grad f(y_i) . grad g(y_j) over the unit n-sphere.

    Tangential gradients of functions of single ambient coordinates satisfy
    grad F . grad G = f'(y_i) g'(y_j) (delta_ij - y_i y_j).
    """
    df = np.polynomial.polynomial.polyder(f)
    dg = np.polynomial.polynomial.polyder(g)
    if same_axis:
        # f'(s) g'(s) (1 - s^2)
        h = np.convolve(df, dg)
        h = np.concatenate([h, [0.0, 0.0]]) - np.concatenate([[0.0, 0.0], h])
        return sum(c * sphere_monomial_integral(n, p) for p, c in enumerate(h) if c)
    # -f'(s) g'(t) s t
    fs = np.concatenate([[0.0], df])
    gt = np.concatenate([[0.0], dg])
    return -_poly_pair_integral(n, fs, gt, same_axis=False)


def _gegenbauer_coeffs(l: int, n: int) -> np.ndarray:
    """Ascending coefficients of the degree-l zonal harmonic polynomial."""
    return np.asarray(gegenbauer(l, (n - 1) / 2.0).coeffs[::-1])


# -- sphere basis -----------------------------------------------------------


def sphere_basis(m: RoundSphere, lmax: int = 8, axes_per_degree: int = 2) -> SpectralBasis:
    """Zonal harmonics to degree lmax, orthonormalized degree by degree.

    Degree 1 always carries the full (n+1)-dimensional block of ambient
    coordinate functions; higher degrees take ``axes_per_degree`` axes.
    """
    n, L = m.n, m.radius
    if lmax < 1:
        raise InvalidRange(f"lmax = {lmax} must be at least 1")
    members, eigenvalues, labels, structure = [], [], [], []
    for l in range(1, lmax + 1):
        naxes = n + 1 if l == 1 else min(axes_per_degree, n + 1)
        coeffs = _gegenbauer_coeffs(l, n)
        axes = list(range(naxes))
        # exact Gram of the raw zonal block on the radius-L sphere
        raw = np.empty((naxes, naxes))
        for i in range(naxes):
            for j in range(naxes):
                raw[i, j] = _poly_pair_integral(n, coeffs, coeffs, i == j) * L ** n
        # rows of inv(chol) give orthonormal combinations
        trans = np.linalg.inv(np.linalg.cholesky(raw))
        fields = [zonal_field(m, coeffs, axis) for axis in axes]
        lam = l * (l + n - 1) / L ** 2
        for r in range(naxes):
            members.append(combined_field(fields[: r + 1], trans[r, : r + 1]))
            eigenvalues.append(lam)
            labels.append((l, axes[r]))
            structure.append(tuple(
                (l, axes[i], float(trans[r, i])) for i in range(r + 1)))
    eigenvalues = np.asarray(eigenvalues)
    return SpectralBasis(
        model=m,
        members=tuple(members),
        eigenvalues=eigenvalues,
        gram=np.eye(len(members)),
        dirichlet=np.diag(eigenvalues),
        labels=tuple(labels),
        zonal_structure=tuple(structure),
    )


def sphere_pair_matrices(m: RoundSphere, basis: SpectralBasis, nodes: int = 48):
    """Dirichlet and Gram matrices of a sphere basis by numeric quadrature.

    Every basis member is a function of at most a few ambient coordinates,
    and any product of two zonal harmonics depends on two coordinates
    (y_i, y_j), so each entry reduces to a weighted integral over the unit
    disk: the slice measure is area(S^{n-2}) (1 - s^2 - t^2)^{(n-3)/2} ds dt.
    The substitution (s, t) = sin(psi) (cos phi, sin phi) makes the weight a
    smooth trigonometric density, so Gauss-Legendre in psi converges at
    spectral rate in every dimension.  Independent of the closed-form
    Gamma-function route used to orthonormalize the basis.
    """
    if basis.zonal_structure is None:
        raise InvalidRange("basis carries no zonal structure")
    n, L = m.n, m.radius
    from scipy.special import roots_legendre

    xs, ws = roots_legendre(nodes)
    psi = 0.25 * np.pi * (xs + 1.0)
    wpsi = 0.25 * np.pi * ws * np.sin(psi) * np.cos(psi) ** (n - 2)
    phi = 2.0 * np.pi * (np.arange(2 * nodes) + 0.5) / (2 * nodes)
    wphi = np.full(2 * nodes, np.pi / nodes)
    r = np.sin(psi)[:, None]
    s = (r * np.cos(phi)).ravel()
    t = (r * np.sin(phi)).ravel()
    w = (wpsi[:, None] * wphi).ravel() * sphere_volume(n - 2)

    degrees = sorted({d for st in basis.zonal_structure for d, _, _ in st})
    polys = {d: _gegenbauer_coeffs(d, n) for d in degrees}
    vs = {d: np.polynomial.polynomial.polyval(s, polys[d]) for d in degrees}
    vt = {d: np.polynomial.polynomial.polyval(t, polys[d]) for d in degrees}
    dvs = {d: np.polynomial.polynomial.polyval(
        s, np.polynomial.polynomial.polyder(polys[d])) for d in degrees}
    dvt = {d: np.polynomial.polynomial.polyval(
        t, np.polynomial.polynomial.polyder(polys[d])) for d in degrees}

    def prim_entries(d1, ax1, d2, ax2):
        if ax1 == ax2:
            g = float(np.sum(vs[d1] * vs[d2] * w))
            dd = float(np.sum(dvs[d1] * dvs[d2] * (1.0 - s * s) * w))
        else:
            g = float(np.sum(vs[d1] * vt[d2] * w))
            dd = -float(np.sum(dvs[d1] * dvt[d2] * s * t * w))
        return dd, g

    size = basis.size
    dir_ = np.zeros((size, size))
    gram = np.zeros((size, size))
    cache = {}
    for a in range(size):
        for b in range(a, size):
            dsum = gsum = 0.0
            for d1, ax1, w1 in basis.zonal_structure[a]:
                for d2, ax2, w2 in basis.zonal_structure[b]:
                    key = (d1, d2, ax1 == ax2)
                    if key not in cache:
                        cache[key] = prim_entries(d1, ax1, d2, ax2)
                    dd, g = cache[key]
                    dsum += w1 * w2 * dd
                    gsum += w1 * w2 * g
            dir_[a, b] = dir_[b, a] = dsum
            gram[a, b] = gram[b, a] = gsum
    return dir_ * L ** (n - 2), gram * L ** n


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


def torus_basis(m: FlatTorus, mmax: int = 4, max_members: int | None = None) -> SpectralBasis:
    """Real Fourier modes (cos and sin per half-lattice mode), orthonormal."""
    if mmax < 1:
        raise InvalidRange(f"mmax = {mmax} must be at least 1")
    vol = m.volume
    amp = np.sqrt(2.0 / vol)
    members, eigenvalues, labels = [], [], []
    modes = _half_lattice(m.n, mmax)
    modes.sort(key=lambda mo: sum((2 * pi * mi / p) ** 2 for mi, p in zip(mo, m.periods)))
    for mode in modes:
        lam = sum((2.0 * pi * mi / p) ** 2 for mi, p in zip(mode, m.periods))
        for phase, tag in ((0.0, "cos"), (-pi / 2.0, "sin")):
            members.append(fourier_field(m, mode, amplitude=amp, phase=phase))
            eigenvalues.append(lam)
            labels.append((mode, tag))
        if max_members is not None and len(members) >= max_members:
            break
    eigenvalues = np.asarray(eigenvalues)
    return SpectralBasis(
        model=m,
        members=tuple(members),
        eigenvalues=eigenvalues,
        gram=np.eye(len(members)),
        dirichlet=np.diag(eigenvalues),
        labels=tuple(labels),
    )


# -- products ---------------------------------------------------------------


def product_basis(m: ProductOfSpheres, lmax: int = 4,
                  axes_per_degree: int = 2) -> SpectralBasis:
    """Factor harmonics lifted to the product (constant on the other factors)."""
    members, eigenvalues, labels = [], [], []
    offset = 0
    total_vol = m.volume
    for fi, (d, r) in enumerate(m.factors):
        sub = RoundSphere(d, r)
        sub_basis = sphere_basis(sub, lmax=lmax, axes_per_degree=axes_per_degree)
        other_vol = total_vol / sphere_volume(d, r)
        norm = 1.0 / np.sqrt(other_vol)
        for field, lam, lab in zip(sub_basis.members, sub_basis.eigenvalues,
                                   sub_basis.labels):
            members.append(_lifted_field(field, offset, d, norm))
            eigenvalues.append(lam)
            labels.append((fi,) + lab)
        offset += d
    order = np.argsort(eigenvalues, kind="stable")
    members = tuple(members[i] for i in order)
    labels = tuple(labels[i] for i in order)
    eigenvalues = np.asarray(eigenvalues)[order]
    return SpectralBasis(
        model=m,
        members=members,
        eigenvalues=eigenvalues,
        gram=np.eye(len(members)),
        dirichlet=np.diag(eigenvalues),
        labels=labels,
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
