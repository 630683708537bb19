"""Renormalized volume of asymptotically hyperbolic warped metrics.

The metrics handled here have the normal form g_+ = r^{-2}(dr^2 + g_r)
with g_r = f(r)^2 g for a boundary metric g and an even warp f.  The
truncated volume Vol({r > eps}) expands in powers of 1/eps with constant
term V, the renormalized volume.  V is recovered three ways: from the
exact antiderivative when f is polynomial, from a least-squares fit in
the expansion monomials, and from the bulk integral
C_{n+1} * integral of v^(n+1) over the geodesic compactification
dr^2 + g_r.  Over a space-form boundary the compactification is
conformally flat, before and after a conformal change, so v^(n+1) is
(-1/2)^k sigma_k(g^{-1}P) with k = (n+1)/2 for every odd n.  Over any
other boundary v^(n+1) exists only for n <= 5, and at n = 5 only over a
parallel-P boundary, whose compactification has Bach by the conformal law.
Over a boundary with a closed form (models.closed_form) the
compactification has one too, so its curvature takes no jets.  Dimension
four also ties V to the Euler characteristic through Gauss-Bonnet.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, log, pi
from typing import Callable

import numpy as np

from . import jets
from .errors import ConfvolError, NumericalFailure
from .jets import Jet
from .models import ConformalDeformation, ModelMetric, WarpedRadial
from .quadrature import integrate
from .series import v_direct
from .spectral import field_values, gauss_jacobi

# conditioning of the weighted monomial fit grows quickly with the number of
# divergent terms; beyond this the analytic path is the only reliable route
_COND_LIMIT = 1e11
_GEODESIC_TOL = 1e-10
_RADIAL_NODES = 48      # Gauss-Legendre nodes of the bulk integral in r


@dataclass(frozen=True)
class AHNormalForm:
    """Normal form r^{-2}(dr^2 + f(r)^2 g) on (0, r_max] x boundary.

    poly, when given, holds the ascending coefficients of a polynomial
    warp and unlocks the exact antiderivative paths.
    """

    boundary: ModelMetric
    warp: Callable
    r_max: float
    poly: tuple | None = None

    @property
    def n(self) -> int:
        return self.boundary.n

    def __post_init__(self):
        d1 = _warp_derivative(self.warp)
        if abs(self.warp(0.0) - 1.0) > 1e-12:
            raise ConfvolError(f"warp(0) = {self.warp(0.0)}, expected 1")
        if abs(d1) > _GEODESIC_TOL:
            raise ConfvolError(
                f"warp must be even in r: f'(0) = {d1:.3e}")


def hyperbolic_normal_form(boundary: ModelMetric) -> AHNormalForm:
    """The hyperbolic-space family g_r = (1 - r^2/4)^2 g, collapsing at r = 2."""
    return AHNormalForm(
        boundary=boundary,
        warp=lambda r: 1.0 - r * r / 4.0,
        r_max=2.0,
        poly=(1.0, 0.0, -0.25),
    )


def _warp_derivative(warp: Callable) -> float:
    """f'(0) of the warp."""
    f = warp(Jet.variable(jets.jet_space(1, 2), 0, 0.0))
    return float(f.c[1]) if isinstance(f, Jet) else 0.0


def _density_poly(a: AHNormalForm) -> np.ndarray:
    """Ascending coefficients of f(r)^n = (det g_r / det g)^{1/2}."""
    p = np.asarray(a.poly, dtype=float)
    out = np.array([1.0])
    for _ in range(a.n):
        out = np.convolve(out, p)
    return out


def truncated_volume(a: AHNormalForm, eps: float) -> float:
    """Vol_{g_+}({r > eps}) = Vol(M, g) * int_eps^{r_max} f(r)^n r^{-(n+1)} dr."""
    if not 0.0 < eps <= a.r_max:
        raise ConfvolError(f"eps = {eps} outside (0, {a.r_max}]")
    n = a.n
    vol = integrate(a.boundary)
    if a.poly is not None:
        b = _density_poly(a)
        total = 0.0
        for j, bj in enumerate(b):
            if not bj:
                continue
            if j == n:
                total += bj * (log(a.r_max) - log(eps))
            else:
                total += bj * (a.r_max ** (j - n) - eps ** (j - n)) / (j - n)
        return vol * total
    from scipy.integrate import quad

    val, _ = quad(lambda r: a.warp(r) ** n / r ** (n + 1), eps, a.r_max,
                  limit=200, epsabs=0.0, epsrel=1e-12)
    return vol * val


@dataclass(frozen=True)
class VolumeExpansion:
    """Divergent coefficients, log coefficient, and constant term of the
    truncated-volume expansion in eps."""

    n: int
    coefficients: np.ndarray    # c_{2k} multiplying eps^{2k-n}, k = 0..kmax
    V: float
    log_coefficient: float
    residual: float
    method: str


def extract_expansion(a: AHNormalForm, eps0: float = 0.5, ratio: float = 0.75,
                      samples: int = 16, tail_powers: int = 3) -> VolumeExpansion:
    """Expansion of truncated_volume: exact termwise for polynomial warps,
    least-squares over geometrically spaced eps otherwise."""
    n = a.n
    kmax = (n - 1) // 2
    if a.poly is not None:
        vol = integrate(a.boundary)
        b = _density_poly(a)
        coeffs = np.zeros(kmax + 1)
        for k in range(kmax + 1):
            if 2 * k < len(b):
                coeffs[k] = vol * b[2 * k] / (n - 2 * k)
        logc = vol * b[n] if (n % 2 == 0 and n < len(b)) else 0.0
        V = 0.0
        for j, bj in enumerate(b):
            if j != n and bj:
                V += vol * bj * a.r_max ** (j - n) / (j - n)
        return VolumeExpansion(n=n, coefficients=coeffs, V=V,
                               log_coefficient=logc, residual=0.0,
                               method="analytic")

    eps = eps0 * ratio ** np.arange(samples)
    y = np.array([truncated_volume(a, e) for e in eps])
    # the warp is even in r, so only powers eps^{2k-n} occur; the positive
    # ones are nuisance columns absorbing the smooth o(1) tail
    powers = [2 * k - n for k in range(kmax + 1 + tail_powers) if 2 * k != n]
    cols = [eps ** p for p in powers]
    cols.append(np.log(1.0 / eps))
    cols.append(np.ones_like(eps))
    A = np.stack(cols, axis=1)
    # row weights eps^n flatten the eps^{-n} blow-up so the quadrature noise
    # floor stays uniform; column norms then balance the conditioning
    rw = (eps ** n)[:, None]
    Aw, yw = A * rw, y * rw[:, 0]
    scale = np.linalg.norm(Aw, axis=0)
    cond = np.linalg.cond(Aw / scale)
    if cond > _COND_LIMIT:
        raise NumericalFailure(
            f"expansion fit condition number {cond:.3e}; shrink eps0")
    sol, *_ = np.linalg.lstsq(Aw / scale, yw, rcond=None)
    sol = sol / scale
    resid = float(np.max(np.abs(Aw @ sol - yw)))
    return VolumeExpansion(n=n, coefficients=sol[: kmax + 1],
                           V=float(sol[-1]),
                           log_coefficient=float(sol[-2]), residual=resid,
                           method="fit")


def geodesic_compactification(a: AHNormalForm) -> WarpedRadial:
    """The compact metric dr^2 + f(r)^2 g on [0, r_max] x boundary."""
    return WarpedRadial(warp=a.warp, fiber=a.boundary, r_range=(0.0, a.r_max))


def boundary_shape_value(warp: Callable) -> float:
    """Common eigenvalue of the boundary shape operator of {r = 0} for the
    metric dr^2 + f(r)^2 g (inward normal): f'(0) / f(0)."""
    return _warp_derivative(warp) / float(warp(0.0))


def renorm_coefficient(n: int) -> float:
    """C_{n+1} = 2^{n-1} (n+1) ((n-1)/2)!^2 / n! for odd n."""
    if n % 2 == 0:
        raise ConfvolError(f"coefficient defined for odd n, got {n}")
    half = (n - 1) // 2
    return 2.0 ** (n - 1) * (n + 1) * factorial(half) ** 2 / factorial(n)


def bulk_coefficient_integral(compact: WarpedRadial, k: int, omega=None) -> float:
    """Integral of v^(2k) over the compactification, reduced to the radial
    direction (the warped models are cohomogeneity one, so curvature
    depends on r alone; verified on a second fiber point)."""
    r0, rmax = compact.r_range
    xs, ws = gauss_jacobi(_RADIAL_NODES, 0.0)
    rs = 0.5 * (rmax - r0) * xs + 0.5 * (rmax + r0)
    wr = 0.5 * (rmax - r0) * ws
    q = compact.fiber.n
    rng = np.random.default_rng(11)
    fiber_pts = compact.fiber.sample_points(2, rng)
    model = compact if omega is None else ConformalDeformation(compact, omega)

    def density(r):
        base = np.asarray(compact.warp(r), dtype=float) ** q
        if omega is None:
            return base
        return base * np.exp((q + 1) * field_values(omega, r[:, None]))

    pts = np.concatenate([rs[:, None], np.tile(fiber_pts[0], (len(rs), 1))], axis=1)
    vals = v_direct(model, k, points=pts)
    # cohomogeneity-one spot check at a second fiber point
    probe = np.concatenate([rs[:1, None], fiber_pts[1:2]], axis=1)
    v2 = v_direct(model, k, points=probe)
    if abs(v2[0] - vals[0]) > 1e-8 * max(1.0, abs(vals[0])):
        raise ConfvolError("integrand is not a function of the radius alone")
    fiber_vol = integrate(compact.fiber)
    return fiber_vol * float(np.sum(wr * density(rs) * vals))


def renorm_volume_geodcomp(compact: WarpedRadial, n: int, omega=None) -> float:
    """V = C_{n+1} * integral of v^(n+1) over the compactification.

    omega, if given, is a radial field with omega = O(r^2); the rescaled
    compactification e^{2 omega} (dr^2 + g_r) must give the same V.
    """
    if n % 2 == 0:
        raise ConfvolError(f"renormalized volume extraction needs odd n, got {n}")
    if n < 3:
        raise ConfvolError(f"n = {n} below 3")
    if abs(boundary_shape_value(compact.warp)) > _GEODESIC_TOL:
        raise NumericalFailure(
            f"boundary shape value {boundary_shape_value(compact.warp):.3e}")
    if omega is not None:
        space = jets.jet_space(1, 2)
        om = omega([Jet.variable(space, 0, 0.0)])
        if isinstance(om, Jet) and (abs(om.value) > _GEODESIC_TOL
                                    or abs(om.c[1]) > _GEODESIC_TOL):
            raise NumericalFailure(
                "conformal factor must vanish to second order at the boundary")
    k = (n + 1) // 2
    return renorm_coefficient(n) * bulk_coefficient_integral(compact, k, omega)


def gauss_bonnet_4d(V: float, weyl_integral: float, chi: float,
                    mode: str = "AHE") -> float:
    """Residual of the four-dimensional Gauss-Bonnet identity.

    AHE mode:      8 pi^2 chi = (1/4) int |W|^2 + 6 V,  V renormalized volume.
    compact mode:  8 pi^2 chi = (1/4) int |W|^2 + 16 int v^(4);  pass the
                   v^(4) integral in the V slot.
    """
    if mode == "AHE":
        rhs = 0.25 * weyl_integral + 6.0 * V
    elif mode == "compact":
        rhs = 0.25 * weyl_integral + 16.0 * V
    else:
        raise ConfvolError(f"mode {mode!r} not in {{'AHE', 'compact'}}")
    return abs(8.0 * pi ** 2 * chi - rhs)
