"""The order-4 chart Bach pipeline, kept as the tests' independent reference.

``chart_pack_order4`` is the chart pack as it was before Bach moved to the
conformal transformation law: with ``want_bach`` it propagates order-4
metric jets and forms Bach as Lap P - div div P - P^{kl} W_{kijl} from
covariant derivatives of the Schouten jets.  It evaluates the chart and
refuses a degenerate metric itself, and has its own inverse jets (a
Neumann series of any order) and its own Christoffel step, so it shares
only the jet arithmetic (``Jet``/``JetSpace``), the model charts and the
pack type with the library, never the law itself.
"""

import numpy as np

from confvol import jets
from confvol.curvature import CurvaturePack
from confvol.errors import NonPositiveDefinite
from confvol.models import ModelMetric


def chart_pack_order4(m: ModelMetric, points: np.ndarray, want_bach: bool) -> CurvaturePack:
    n = m.n
    order = 4 if want_bach else 2
    space = jets.jet_space(n, order)
    x = jets.coordinates(space, points.T)
    G = m.chart(x)                                            # (n, n, B, nc)

    g0 = np.ascontiguousarray(np.moveaxis(G.value, -1, 0))    # (B, n, n)
    if np.max(np.abs(g0 - np.swapaxes(g0, -1, -2))) > 1e-12 * np.max(np.abs(g0)):
        raise NonPositiveDefinite("metric components not symmetric")
    eig = np.linalg.eigvalsh(g0)
    if np.min(eig) <= 1e-12 * np.max(eig):
        raise NonPositiveDefinite("metric degenerate at a sampled point")

    inv0 = np.linalg.inv(g0)
    Ginv = _inverse_jets(G, np.ascontiguousarray(np.moveaxis(inv0, 0, -1)), order)
    gam = _christoffel(G, Ginv, order)                        # to order - 1

    # Riemann jets are trusted to order o2 = order - 2, and every product
    # returns only the coefficients up to it: the value at order 2, and at
    # order 4 the second order that the Bach pipeline reads of P
    o2 = order - 2
    dgam = np.stack([space.diff(gam, v, o2) for v in range(n)])
    # Riem_up[rho, sig, mu, nu] = d_mu Gam^rho_{nu sig} - d_nu Gam^rho_{mu sig}
    #                             + Gam^rho_{mu lam} Gam^lam_{nu sig} - (mu<->nu)
    t1 = dgam.transpose(1, 3, 0, 2, *range(4, dgam.ndim))
    t2 = t1.swapaxes(2, 3)
    gg = space.mul(gam, gam, o2, "rml...p,lsn...p->rsmn...")
    riem_up = t1 - t2 + gg - gg.swapaxes(2, 3)

    ric = np.einsum("msmn...->sn...", riem_up)
    scal = space.mul(Ginv, ric, o2, "ij...p,ij...p->...")
    ricci = np.moveaxis(ric[..., 0], -1, 0)
    if n >= 3:
        P = (ric - space.mul(scal[None, None], G.c, o2) / (2.0 * (n - 1))) / (n - 2)
        schout = np.moveaxis(P[..., 0], -1, 0)
    else:
        schout = np.zeros_like(ricci)

    # the lowered Riemann tensor needs only the values of Riem_up
    rm_up0 = np.moveaxis(riem_up[..., 0], -1, 0)             # (B, n,n,n,n)
    pack = CurvaturePack(
        points, g0, inv0, ricci, scal[..., 0], schout,
        lambda: np.einsum("...rl,...lsmn->...rsmn", g0, rm_up0))
    if want_bach and n >= 3:
        pack.bach = _bach(space, gam, P, pack.weyl, pack.inverse, n)
    return pack


# matrix product of matrix jets: [i, j] = sum_k A[i, k] B[k, j]
_MATMUL = "ik...p,kj...p->ij..."
# the same product when A, or B, is a constant matrix given by its values
_CONST_MATMUL = "ik...,kj...q->ij...q"
_MATMUL_CONST = "ik...q,kj...->ij...q"


def _inverse_jets(G, inv0, order):
    """Coefficients up to ``order`` of the inverse of the matrix jet G, by
    the Neumann series in E = g0^{-1} (G - g0), given the inverse inv0
    (n, n, B), C-contiguous, of its value."""
    space = G.space
    nc = space.ncoef_at(order)
    delta = G.c[..., :nc].copy()
    delta[..., 0] = 0.0
    E = np.einsum(_CONST_MATMUL, inv0, delta)                 # zero constant term
    eye = np.zeros_like(E)
    eye[..., 0] = np.eye(len(inv0))[:, :, None]
    acc = -E
    total = eye + acc
    for _ in range(order - 1):
        acc = -space.mul(acc, E, order, _MATMUL)
        total = total + acc
    return np.einsum(_MATMUL_CONST, total, inv0)


def _christoffel(G, Ginv, order):
    """Coefficients up to ``order - 1`` of Gam^k_ij, shape (k, i, j, B, nc)."""
    space = G.space
    n = G.c.shape[0]
    dG = np.stack([space.diff(G.c, v, order - 1) for v in range(n)])  # (v,a,b,B,nc)
    M1 = dG.transpose(2, 0, 1, *range(3, dG.ndim))            # [l,i,j] = d_i g_{jl}
    M2 = dG.transpose(2, 1, 0, *range(3, dG.ndim))            # [l,i,j] = d_j g_{il}
    T = M1 + M2 - dG
    return 0.5 * space.mul(Ginv, T, order - 1, "kl...p,lij...p->kij...")


def _bach(space, gam, P, weyl, ginv0, n):
    """B_ij = Lap P_ij - div div term - P^{kl} W_{kijl} (values), from the
    coefficients of gam to order 3 and of P to order 2."""
    dP = np.stack([space.diff(P, v, 1) for v in range(n)])   # (v,i,j,B,nc)
    covP = (dP - space.mul(gam, P, 1, "lvi...p,lj...p->vij...")
            - space.mul(gam, P, 1, "lvj...p,il...p->vij..."))  # to order 1

    dcov = np.stack([space.diff(covP, w, 0)[..., 0] for w in range(n)])  # (w,v,i,j,B)
    cov0 = covP[..., 0]                                       # (v,i,j,B)
    gam0 = gam[..., 0]                                        # (k,i,j,B)
    cov2 = (dcov
            - np.einsum("lwv...,lij...->wvij...", gam0, cov0)
            - np.einsum("lwi...,vlj...->wvij...", gam0, cov0)
            - np.einsum("lwj...,vil...->wvij...", gam0, cov0))
    cov2 = np.moveaxis(cov2, -1, 0)                           # (B,w,v,i,j)
    P0 = np.moveaxis(P[..., 0], -1, 0)
    lap_term = np.einsum("...wv,...wvij->...ij", ginv0, cov2)
    div_term = np.einsum("...wk,...wjik->...ij", ginv0, cov2)
    return lap_term - div_term - _p_dot_weyl(ginv0, P0, weyl)


def _p_dot_weyl(ginv0, P0, weyl):
    """P^{kl} W_{kijl}, the whole Bach tensor (up to sign) when P is parallel."""
    Pup = np.einsum("...ka,...ab,...lb->...kl", ginv0, P0, ginv0)
    return np.einsum("...kl,...kijl->...ij", Pup, weyl)
