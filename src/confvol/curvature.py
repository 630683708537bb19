"""Pointwise curvature of model metrics.

The chart path propagates metric component jets through the Christoffel /
Riemann / Schouten / Bach pipeline; all derivatives are exact Taylor
coefficients, never finite differences.  Structured kinds also have
closed-form fast paths which must agree with the chart path.

Conventions: lowered Riemann tensor satisfies Rm[i,j,i,j] > 0 on round
spheres (unit sphere sectional curvature +1), and the Laplacian is the
trace of the covariant Hessian (negative spectrum on compact manifolds).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import (
    DimensionTooSmall,
    KOutOfRange,
    NonPositiveDefinite,
)
from .jets import Jet
from .models import (
    FlatTorus,
    HyperbolicSpace,
    ModelMetric,
    ProductOfSpheres,
    RoundSphere,
    WarpedRadial,
)


@dataclass
class CurvaturePack:
    """Curvature tensors at a batch of chart points (batch axis first)."""

    points: np.ndarray          # (B, n)
    metric: np.ndarray          # (B, n, n)
    inverse: np.ndarray         # (B, n, n)
    riemann: np.ndarray         # (B, n, n, n, n), fully lowered
    ricci: np.ndarray           # (B, n, n)
    scalar: np.ndarray          # (B,)
    schouten: np.ndarray        # (B, n, n)
    weyl: np.ndarray            # (B, n, n, n, n)
    bach: np.ndarray | None     # (B, n, n) when requested

    @property
    def n(self) -> int:
        return self.metric.shape[-1]


def curvature_pack(m: ModelMetric, points, want_bach=None,
                   method: str = "auto") -> CurvaturePack:
    """Curvature tensors of ``m`` at the given chart points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if want_bach is None:
        want_bach = m.n >= 3
    if method == "auto":
        method = "fast" if _has_fast_path(m) else "chart"
    if method == "fast":
        pack = _fast_pack(m, points, want_bach)
        if pack is not None:
            return pack
        method = "chart"
    return _chart_pack(m, points, want_bach)


def schouten_weyl_bach(m: ModelMetric, points, method: str = "auto"):
    """(Schouten, Weyl, Bach) at the given points; n >= 3 required."""
    if m.n < 3:
        raise DimensionTooSmall("Schouten tensor undefined for n = 2 here")
    pack = curvature_pack(m, points, want_bach=True, method=method)
    return pack.schouten, pack.weyl, pack.bach


def sigma_k(schouten: np.ndarray, metric: np.ndarray, k: int) -> np.ndarray:
    """k-th elementary symmetric function of eigenvalues of g^{-1}P.

    Computed from power-sum traces via Newton's identities; no explicit
    eigendecomposition.
    """
    schouten = np.asarray(schouten)
    metric = np.asarray(metric)
    n = metric.shape[-1]
    if k < 0 or k > n:
        raise KOutOfRange(f"k = {k} outside 0..{n}")
    if k == 0:
        return np.ones(schouten.shape[:-2])
    endo = np.linalg.solve(metric, schouten)
    powers = endo
    ps = [np.trace(endo, axis1=-2, axis2=-1)]
    for _ in range(k - 1):
        powers = powers @ endo
        ps.append(np.trace(powers, axis1=-2, axis2=-1))
    elem = [np.ones(schouten.shape[:-2])]
    for j in range(1, k + 1):
        acc = 0.0
        for i in range(1, j + 1):
            acc = acc + ((-1.0) ** (i - 1)) * elem[j - i] * ps[i - 1]
        elem.append(acc / j)
    return elem[k]


def laplacian(m: ModelMetric, fields, points) -> np.ndarray:
    """Laplace-Beltrami of scalar field(s) at chart points, shape (F, B)."""
    single = not isinstance(fields, (list, tuple))
    if single:
        fields = [fields]
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = m.n
    space = jets.jet_space(n, 2)
    x = jets.coordinates(space, points.T)
    gam, ginv0 = _christoffel_values(m, x)
    out = []
    for f in fields:
        w = f(x)
        hess = np.stack([
            np.stack([w.diff(i).diff(j).value for j in range(n)]) for i in range(n)
        ])                                                    # (n, n, B)
        grad = w.gradient_value()                             # (n, B)
        cov = hess - np.einsum("kij...,k...->ij...", gam, grad)
        out.append(np.einsum("...ij,ij...->...", ginv0, cov))
    res = np.stack(out)
    return res[0] if single else res


# -- chart pipeline --------------------------------------------------------


def _chart_pack(m: ModelMetric, points: np.ndarray, want_bach: bool) -> CurvaturePack:
    n = m.n
    order = 4 if want_bach else 2
    space = jets.jet_space(n, order)
    x = jets.coordinates(space, points.T)
    G = m.chart(x)                                            # (n, n, B, nc)

    g0 = np.moveaxis(G.value, -1, 0) if G.value.ndim == 3 else G.value[None]
    g0 = np.ascontiguousarray(g0)                             # (B, n, n)
    if np.max(np.abs(g0 - np.swapaxes(g0, -1, -2))) > 1e-12 * np.max(np.abs(g0)):
        raise NonPositiveDefinite("metric components not symmetric")
    eig = np.linalg.eigvalsh(g0)
    if np.min(eig) <= 1e-12 * np.max(eig):
        raise NonPositiveDefinite("metric degenerate at a sampled point")

    Ginv = _inverse_jets(G, g0, order)
    gam = _christoffel(G, Ginv, order)                        # trusted order-1

    o2 = order - 2
    gam2 = gam.trunc(o2)
    dgam = Jet(space, np.stack([gam.diff(v).c for v in range(n)]))
    # Riem_up[rho, sig, mu, nu] = d_mu Gam^rho_{nu sig} - d_nu Gam^rho_{mu sig}
    #                             + Gam^rho_{mu lam} Gam^lam_{nu sig} - (mu<->nu)
    t1 = dgam.c.transpose(1, 3, 0, 2, *range(4, dgam.c.ndim))
    t2 = t1.swapaxes(2, 3)
    gg = None
    for lam in range(n):
        term = space.mul(gam2.c[:, :, lam][:, None, :, None],
                         gam2.c[lam][None, :, None, :], o2)
        gg = term if gg is None else gg + term
    # gg built as [rho, sig, mu, nu] with mul pattern below:
    riem_up = Jet(space, t1 - t2 + gg - gg.swapaxes(2, 3))

    ric = Jet(space, np.einsum("msmn...->sn...", riem_up.c))
    G2 = G.trunc(o2)
    Ginv2 = Ginv.trunc(o2)
    scal = Jet(space, space.mul(Ginv2.c, ric.c, o2).sum(axis=(0, 1)))
    if n >= 3:
        P = Jet(space, (ric.c - space.mul(scal.c[None, None], G2.c, o2)
                        / (2.0 * (n - 1))) / (n - 2))
    else:
        P = None

    # lowered Riemann (values suffice downstream)
    rm_up0 = np.moveaxis(riem_up.value, -1, 0)                # (B, n,n,n,n)
    riemann = np.einsum("...rl,...lsmn->...rsmn", g0, rm_up0)
    ricci = np.moveaxis(ric.value, -1, 0)
    scalar = np.moveaxis(scal.value, -1, 0) if scal.value.ndim else scal.value
    ginv0 = np.linalg.inv(g0)

    if n >= 3:
        schout = np.moveaxis(P.value, -1, 0)
        weyl = riemann - _kulkarni_nomizu(schout, g0)
    else:
        schout = np.zeros_like(ricci)
        weyl = np.zeros_like(riemann)

    bach = None
    if want_bach and n >= 3:
        bach = _bach(space, gam, P, weyl, ginv0, n)

    return CurvaturePack(points, g0, ginv0, riemann, ricci, np.atleast_1d(scalar),
                         schout, weyl, bach)


def _inverse_jets(G: Jet, g0: np.ndarray, order: int) -> Jet:
    space = G.space
    inv0 = np.moveaxis(np.linalg.inv(g0), 0, -1)              # (n, n, B)
    inv0_c = Jet.constant(space, inv0).c
    delta = G.c.copy()
    delta[..., 0] = 0.0
    E = _matmul_c(space, inv0_c, delta, order)                # zero constant term
    acc = Jet.constant(space, np.broadcast_to(np.eye(G.c.shape[0])[:, :, None],
                                              inv0.shape).copy()).c
    total = acc.copy()
    for _ in range(order):
        acc = -_matmul_c(space, acc, E, order)
        total = total + acc
    return Jet(space, _matmul_c(space, total, inv0_c, order))


def _matmul_c(space, A, B, out_order):
    out = None
    n = A.shape[0]
    for k in range(n):
        term = space.mul(A[:, k][:, None], B[k][None, :], out_order)
        out = term if out is None else out + term
    return out


def _christoffel(G: Jet, Ginv: Jet, order: int) -> Jet:
    space = G.space
    n = G.c.shape[0]
    dG = np.stack([G.diff(v).c for v in range(n)])            # (v, a, b, B, nc)
    M1 = dG.transpose(2, 0, 1, *range(3, dG.ndim))            # [l,i,j] = d_i g_{jl}
    M2 = dG.transpose(2, 1, 0, *range(3, dG.ndim))            # [l,i,j] = d_j g_{il}
    T = M1 + M2 - dG
    out = None
    oo = order - 1
    for lam in range(n):
        term = space.mul(Ginv.c[:, lam][:, None, None], T[lam][None], oo)
        out = term if out is None else out + term
    return Jet(space, 0.5 * out)


def _christoffel_values(m: ModelMetric, x):
    """(Christoffel values (k,i,j,B), inverse metric values (B,n,n))."""
    G = m.chart(x)
    g0 = np.moveaxis(G.value, -1, 0)
    ginv0 = np.linalg.inv(g0)
    # Christoffel values need only dG values and the pointwise inverse
    dG = np.stack([G.diff(v).value for v in range(m.n)])
    M1 = dG.transpose(2, 0, 1, *range(3, dG.ndim))
    M2 = dG.transpose(2, 1, 0, *range(3, dG.ndim))
    T = M1 + M2 - dG
    gamv = 0.5 * np.einsum("...kl,lij...->kij...", ginv0, T)
    return gamv, ginv0


def _kulkarni_nomizu(P: np.ndarray, g: np.ndarray) -> np.ndarray:
    return (np.einsum("...ik,...jl->...ijkl", P, g)
            + np.einsum("...jl,...ik->...ijkl", P, g)
            - np.einsum("...il,...jk->...ijkl", P, g)
            - np.einsum("...jk,...il->...ijkl", P, g))


def _bach(space, gam, P, weyl, ginv0, n):
    """B_ij = Lap P_ij - div div term - P^{kl} W_{kijl} (values)."""
    P1 = P.trunc(1)
    gam1 = gam.trunc(1)
    dP = np.stack([P.diff(v).c for v in range(n)])            # (v,i,j,B,nc)
    covP = dP.copy()
    for lam in range(n):
        covP -= space.mul(gam1.c[lam][:, :, None], P1.c[lam][None, None, :], 1)
        covP -= space.mul(gam1.c[lam][:, None, :], P1.c[:, lam][None, :, None], 1)
    covP_j = Jet(space, covP)                                 # trusted order 1

    dcov = np.stack([covP_j.diff(w).value for w in range(n)])  # (w,v,i,j,B)
    cov0 = covP_j.value                                       # (v,i,j,B)
    gam0 = gam.value                                          # (k,i,j,B)
    cov2 = (dcov
            - np.einsum("lwv...,lij...->wvij...", gam0, cov0)
            - np.einsum("lwi...,vlj...->wvij...", gam0, cov0)
            - np.einsum("lwj...,vil...->wvij...", gam0, cov0))
    cov2 = np.moveaxis(cov2, -1, 0)                           # (B,w,v,i,j)
    P0 = np.moveaxis(P.value, -1, 0)
    lap_term = np.einsum("...wv,...wvij->...ij", ginv0, cov2)
    div_term = np.einsum("...wk,...wjik->...ij", ginv0, cov2)
    Pup = np.einsum("...ka,...ab,...lb->...kl", ginv0, P0, ginv0)
    weyl_term = np.einsum("...kl,...kijl->...ij", Pup, weyl)
    return lap_term - div_term - weyl_term


# -- fast paths -------------------------------------------------------------


def _has_fast_path(m: ModelMetric) -> bool:
    return isinstance(m, (RoundSphere, HyperbolicSpace, FlatTorus,
                          ProductOfSpheres, WarpedRadial))


def _metric_values(m: ModelMetric, points: np.ndarray) -> np.ndarray:
    space = jets.jet_space(m.n, 0)
    x = jets.coordinates(space, points.T)
    return np.moveaxis(m.chart(x).value, -1, 0)


def _pack_from_constant_curvature(points, g0, kappa, want_bach):
    n = g0.shape[-1]
    riemann = kappa * (np.einsum("...ik,...jl->...ijkl", g0, g0)
                       - np.einsum("...il,...jk->...ijkl", g0, g0))
    ricci = (n - 1) * kappa * g0
    scalar = np.full(g0.shape[0], n * (n - 1) * kappa)
    schout = 0.5 * kappa * g0 if n >= 3 else np.zeros_like(g0)
    weyl = np.zeros_like(riemann)
    bach = np.zeros_like(g0) if (want_bach and n >= 3) else None
    return CurvaturePack(points, g0, np.linalg.inv(g0), riemann, ricci,
                         scalar, schout, weyl, bach)


def _fast_pack(m: ModelMetric, points, want_bach):
    n = m.n
    if isinstance(m, FlatTorus):
        B = points.shape[0]
        g0 = np.broadcast_to(np.eye(n), (B, n, n)).copy()
        return _pack_from_constant_curvature(points, g0, 0.0, want_bach)
    if isinstance(m, (RoundSphere, HyperbolicSpace)):
        kappa = 1.0 / m.radius ** 2
        if isinstance(m, HyperbolicSpace):
            kappa = -kappa
        return _pack_from_constant_curvature(points, _metric_values(m, points),
                                             kappa, want_bach)
    if isinstance(m, ProductOfSpheres):
        g0 = _metric_values(m, points)
        B = g0.shape[0]
        riemann = np.zeros((B, n, n, n, n))
        ricci = np.zeros((B, n, n))
        scalar = np.zeros(B)
        off = 0
        for d, r in m.factors:
            kappa = 1.0 / r ** 2
            sl = slice(off, off + d)
            gf = g0[:, sl, sl]
            riemann[:, sl, sl, sl, sl] += kappa * (
                np.einsum("...ik,...jl->...ijkl", gf, gf)
                - np.einsum("...il,...jk->...ijkl", gf, gf))
            ricci[:, sl, sl] = (d - 1) * kappa * gf
            scalar += d * (d - 1) * kappa
            off += d
        schout = (ricci - scalar[:, None, None] * g0 / (2 * (n - 1))) / (n - 2)
        weyl = riemann - _kulkarni_nomizu(schout, g0)
        bach = None
        if want_bach:
            # P is parallel on a product of round spheres, so only the Weyl
            # contraction survives.
            ginv0 = np.linalg.inv(g0)
            Pup = np.einsum("...ka,...ab,...lb->...kl", ginv0, schout, ginv0)
            bach = -np.einsum("...kl,...kijl->...ij", Pup, weyl)
        return CurvaturePack(points, g0, np.linalg.inv(g0), riemann, ricci,
                             scalar, schout, weyl, bach)
    if isinstance(m, WarpedRadial) and isinstance(m.fiber, RoundSphere):
        if want_bach:
            return None  # chart path supplies the Bach tensor
        g0 = _metric_values(m, points)
        B = g0.shape[0]
        r = points[:, 0]
        sp1 = jets.jet_space(1, 2)
        rj = Jet.variable(sp1, 0, r)
        fj = m.warp(rj)
        f = fj.value
        fp = fj.diff(0).value
        fpp = fj.diff(0).diff(0).value
        kf = 1.0 / m.fiber.radius ** 2
        k_rad = -fpp / f                                     # radial sectional
        k_tan = (kf - fp ** 2) / f ** 2
        ghat = g0.copy()
        ghat[:, 0, :] = 0.0
        ghat[:, :, 0] = 0.0
        u = np.zeros((B, n))
        u[:, 0] = 1.0
        rad = (np.einsum("...i,...k,...jl->...ijkl", u, u, ghat)
               + np.einsum("...j,...l,...ik->...ijkl", u, u, ghat)
               - np.einsum("...i,...l,...jk->...ijkl", u, u, ghat)
               - np.einsum("...j,...k,...il->...ijkl", u, u, ghat))
        tan = (np.einsum("...ik,...jl->...ijkl", ghat, ghat)
               - np.einsum("...il,...jk->...ijkl", ghat, ghat))
        riemann = (k_rad[:, None, None, None, None] * rad
                   + k_tan[:, None, None, None, None] * tan)
        ginv0 = np.linalg.inv(g0)
        ricci = np.einsum("...ik,...ijkl->...jl", ginv0, riemann)
        scalar = np.einsum("...jl,...jl->...", ginv0, ricci)
        if n >= 3:
            schout = (ricci - scalar[:, None, None] * g0 / (2 * (n - 1))) / (n - 2)
            weyl = riemann - _kulkarni_nomizu(schout, g0)
        else:
            schout = np.zeros_like(g0)
            weyl = np.zeros_like(riemann)
        return CurvaturePack(points, g0, ginv0, riemann, ricci, scalar,
                             schout, weyl, None)
    return None
