"""Conformal variations of the volume-coefficient functionals.

First variation: the functional F_k(g) = integral of v_k over M changes
along conformal directions 2*omega*g by (n-2k) * integral of v_k omega.
Second variation at a critical (Einstein) metric is the quadratic form

    H(omega, omega) = -(n-2k) * integral of [L^{ij} d_i omega d_j omega
                                             + 2k v_k omega^2]

assembled here over a Laplacian eigenbasis, where it diagonalizes with
entries proportional to (lambda - R/(n-1)).  The sign pattern depends only
on the signs of n-2k and of the scalar curvature, which classify_sign_Fk
tabulates; hessian_V handles the conformally invariant k = n/2 slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .curvature import laplacian
from .errors import (
    HalfDimension,
    InvalidRange,
    KOutOfRange,
    NotCritical,
    NotEinstein,
    OddDimension,
)
from .models import ModelMetric, einstein_constant
from .quadrature import grid_with_weights, integrate
from .series import einstein_L_exact, einstein_vk_exact, v_direct
from .spectral import SpectralBasis, field_gradients, field_values

_NULL_THRESHOLD = 1e-8
_CRITICAL_TOL = 1e-8
_DIAGONAL_TOL = 1e-9


@dataclass(frozen=True)
class HessianForm:
    """Second-variation quadratic form over a spectral basis."""

    matrix: np.ndarray
    functional: str             # "F_k" or "V"
    k: int
    eigenvalues: np.ndarray
    classification: str
    nullity: int
    volume: float
    unit_volume_factor: float   # multiply matrix by this to renormalize vol=1

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def _classify(eigs: np.ndarray):
    scale = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    thresh = _NULL_THRESHOLD * max(scale, 1e-300)
    null = int(np.sum(np.abs(eigs) < thresh))
    pos = int(np.sum(eigs >= thresh))
    neg = int(np.sum(eigs <= -thresh))
    if pos and neg:
        return "indefinite", null
    if not (pos or neg):
        return f"zero with nullity {null}", null
    if null:
        kind = "positive" if pos else "negative"
        return f"{kind} semi-definite with nullity {null}", null
    return ("positive definite" if pos else "negative definite"), 0


def _require_einstein(m: ModelMetric) -> float:
    a = einstein_constant(m)
    if a is None:
        raise NotEinstein(f"{type(m).__name__} has no recognized Einstein constant")
    return a


def delta_vk(background: ModelMetric, omega, k: int, points: np.ndarray) -> np.ndarray:
    """Linearization of v_k in the conformal direction 2*omega*g, pointwise.

    Evaluates div(L^{ij} d_j omega) - 2k v_k omega on the background; on the
    Einstein backgrounds handled here L_(k) is a constant multiple of the
    inverse metric, so the divergence reduces to a Laplacian.
    """
    if k < 1:
        raise KOutOfRange(f"k = {k} must be at least 1")
    a = _require_einstein(background)
    n = background.n
    cL = einstein_L_exact(n, a, k)
    vk = einstein_vk_exact(n, a, k)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lap = laplacian(background, [omega], points)[0]
    om = field_values(omega, points)
    return cL * lap - 2.0 * k * vk * om


def vk_pointwise(m: ModelMetric, k: int, points: np.ndarray) -> np.ndarray:
    """v_k at the given points: Einstein closed form, else the direct
    curvature formulas (k <= 3)."""
    a = einstein_constant(m)
    if a is not None:
        return np.full(np.atleast_2d(points).shape[0], einstein_vk_exact(m.n, a, k))
    return (-2.0) ** k * v_direct(m, k, points=points)


def functional_Fk(m: ModelMetric, k: int, tol: float = 1e-9,
                  resolution: int = 8) -> float:
    """F_k(g) = integral of v_k over (M, g)."""
    if k == 0:
        return integrate(m, tol=tol, resolution=resolution)
    a = einstein_constant(m)
    if a is not None:
        return einstein_vk_exact(m.n, a, k) * integrate(m, tol=tol, resolution=resolution)
    return integrate(m, f=lambda pts: vk_pointwise(m, k, pts), tol=tol,
                     resolution=resolution)


def first_variation_Fk(m: ModelMetric, k: int, omega, tol: float = 1e-9,
                       resolution: int = 8) -> float:
    """dF_k in the direction 2*omega*g: (n - 2k) * integral of v_k omega."""
    n = m.n

    def integrand(pts):
        return vk_pointwise(m, k, pts) * field_values(omega, pts)

    return (n - 2 * k) * integrate(m, f=integrand, tol=tol, resolution=resolution)


def _basis_dir_gram(m: ModelMetric, basis: SpectralBasis, resolution: int):
    """Dirichlet and Gram matrices of the basis by quadrature on m."""
    from .curvature import curvature_pack
    from .models import RoundSphere
    from .spectral import sphere_pair_matrices

    if isinstance(m, RoundSphere) and basis.zonal_structure is not None:
        # pair products depend on two ambient coordinates only, so the
        # integrals reduce to cheap 2D quadrature in any dimension
        return sphere_pair_matrices(m, basis)
    pts, w = grid_with_weights(m, resolution)
    vals = np.stack([field_values(f, pts) for f in basis.members])
    grads = np.stack([field_gradients(f, pts) for f in basis.members])
    ginv = curvature_pack(m, pts, want_bach=False).inverse
    gram = np.einsum("ip,jp,p->ij", vals, vals, w)
    dir_ = np.einsum("ipa,jpb,pab,p->ij", grads, grads, ginv, w)
    return dir_, gram


def hessian_Fk(background: ModelMetric, k: int, basis: SpectralBasis,
               resolution: int = 8) -> HessianForm:
    """Second conformal variation of F_k at an Einstein metric over a basis.

    H[l][m] = -(n-2k)(cL * Dir[l][m] + 2k v_k * Gram[l][m]) with
    cL = -a^{k-1} binom(n-1, k-1) and v_k = a^k binom(n, k); on the
    background itself the exact diagonal is
    (n-2k) a^{k-1} binom(n-1, k-1) (lambda_l - 2na).
    """
    n = background.n
    if not 1 <= k <= n:
        raise KOutOfRange(f"k = {k} outside 1..{n}")
    if n % 2 == 0 and k == n // 2:
        raise HalfDimension(
            f"F_{k} in dimension {n} is conformally invariant; use hessian_V")
    return _second_variation(
        background, k, basis, resolution, "F_k", -(n - 2 * k),
        lambda a: (n - 2 * k) * a ** (k - 1) * comb(n - 1, k - 1))


def hessian_V(background: ModelMetric, basis: SpectralBasis,
              resolution: int = 8) -> HessianForm:
    """Second conformal variation of the renormalized volume (n even).

    H[l][m] = (-1)^{n/2+1} 2^{-n/2} (cL * Dir + n v_{n/2} * Gram) with the
    k = n/2 tensors; on Einstein backgrounds this equals
    -(-a)^{n/2-1} 2^{-n/2} binom(n-1, n/2-1) (lambda_l - 2na) delta_{lm}.
    """
    n = background.n
    if n % 2:
        raise OddDimension(f"renormalized volume Hessian needs even n, got {n}")
    k = n // 2
    return _second_variation(
        background, k, basis, resolution, "V", (-1.0) ** (k + 1) * 2.0 ** (-k),
        lambda a: -((-a) ** (k - 1)) * 2.0 ** (-k) * comb(n - 1, k - 1))


def _second_variation(background: ModelMetric, k: int, basis: SpectralBasis,
                      resolution: int, functional: str, pref: float,
                      exact_diag) -> HessianForm:
    """H = pref * (cL * Dir + 2k v_k * Gram) at an Einstein background.

    When the basis lives on the background itself, Dir and Gram are
    assembled by quadrature and H is checked against the closed-form
    diagonal exact_diag(a) * (lambda_l - 2na); otherwise (noncompact
    backgrounds probed through a surrogate spectrum) the basis's exact
    matrices are used directly.
    """
    a = _require_einstein(background)
    n = background.n
    vk = einstein_vk_exact(n, a, k)
    cL = einstein_L_exact(n, a, k)
    # criticality: v_k must be constant; exact for the Einstein closed form,
    # but verify the direct curvature value agrees where available
    if k <= 3 and not (k == 3 and n == 4):
        vals = (-2.0) ** k * v_direct(background, k, count=4)
        if np.max(np.abs(vals - vk)) > _CRITICAL_TOL * max(1.0, abs(vk)):
            raise NotCritical(f"v_{k} deviates from constant by "
                              f"{np.max(np.abs(vals - vk)):.3e}")

    on_model = basis.model == background
    if on_model:
        dir_, gram = _basis_dir_gram(background, basis, resolution)
    else:
        dir_, gram = basis.dirichlet, basis.gram
    H = pref * (cL * dir_ + 2.0 * k * vk * gram)
    H = 0.5 * (H + H.T)

    if on_model:
        diag = exact_diag(a) * (basis.eigenvalues - 2.0 * n * a)
        gap = np.max(np.abs(H - np.diag(diag)))
        scale = max(1.0, float(np.max(np.abs(diag))))
        if gap > _DIAGONAL_TOL * scale:
            raise NotCritical(
                f"assembled Hessian deviates from exact diagonal by {gap:.3e}")
        vol = integrate(background)
    else:
        vol = 1.0

    eigs = np.linalg.eigvalsh(H)
    classification, nullity = _classify(eigs)
    return HessianForm(
        matrix=H, functional=functional, k=k, eigenvalues=eigs,
        classification=classification, nullity=nullity, volume=vol,
        unit_volume_factor=vol ** ((2.0 * k - n) / n),
    )


def classify_sign_Fk(n: int, k: int, sign_R: float) -> str:
    """Expected definiteness of the second variation of F_k at an Einstein
    metric (excluding the round sphere, which is semi-definite)."""
    if not 1 <= k <= n:
        raise InvalidRange(f"k = {k} outside 1..{n}")
    if n % 2 == 0 and k == n // 2:
        raise InvalidRange(f"k = n/2 = {k} is conformally invariant")
    if sign_R == 0:
        raise InvalidRange("classification needs R != 0")
    below = k < n / 2
    if sign_R > 0:
        return "positive definite" if below else "negative definite"
    positive = (k % 2 == 1) if below else (k % 2 == 0)
    return "positive definite" if positive else "negative definite"


def classify_sign_V(n: int, sign_R: float) -> str:
    """Expected definiteness of the renormalized-volume Hessian (n even,
    excluding the round sphere)."""
    if n % 2:
        raise OddDimension(f"needs even n, got {n}")
    if sign_R == 0:
        raise InvalidRange("classification needs R != 0")
    if sign_R < 0:
        return "negative definite"
    return "positive definite" if n % 4 == 0 else "negative definite"


def obata_check(basis: SpectralBasis, R: float, tol: float = 1e-9) -> dict:
    """First-eigenvalue bound lambda_1(-Delta) >= R/(n-1) for Einstein g."""
    n = basis.model.n
    lam1 = basis.first_eigenvalue()
    bound = R / (n - 1)
    return {
        "lambda_1": lam1,
        "bound": bound,
        "satisfied": lam1 >= bound - tol,
        "equality": abs(lam1 - bound) <= tol,
    }
