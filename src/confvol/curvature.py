"""Pointwise curvature of model metrics.

Two routes, chosen by model kind.  Flat tori, space forms, products of
round spheres and warped products dr^2 + f^2 h over any of these, warped
products included, are diagonal metrics whose Riemann tensor is a sum of
Kulkarni-Nomizu products of their blocks (``models.closed_form``).
That route writes the metric without jets and contracts each product
straight to Ricci, so it forms g, g^{-1}, Ricci, scalar and Schouten from
(B, n) diagonals.  Every other kind runs the chart front end that
``laplacian`` shares, ``_chart_jets`` (order-2 chart jets, inverse and
Christoffel jets to order 1), and contracts to the values of the raised
Riemann tensor, whose trace is Ricci; all derivatives are exact Taylor
coefficients, never finite differences.  The two routes must agree.
Bach comes from one conformal transformation law on both routes (see
``_bach``); series.v_direct asks for it only at k = 3 on kinds that are
not conformally flat, where Bach does not vanish.

On both routes the lowered Riemann and Weyl tensors, (B, n, n, n, n), are
formed on first read, from the stored Kulkarni-Nomizu terms or from the
values of the raised Riemann jets and g.  v_k reads only g, g^{-1} and P,
so it forms neither; Bach, the curvature command and tests do.

Conventions: lowered Riemann tensor satisfies Rm[i,j,i,j] > 0 on round
spheres (unit sphere sectional curvature +1), and the Laplacian is the
trace of the covariant Hessian (negative spectrum on compact manifolds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import jets
from .errors import GeneralFGUnavailable, KOutOfRange, NonPositiveDefinite
from .jets import Jet
from .models import ConformalDeformation, ModelMetric, WarpedRadial, closed_form


@dataclass(eq=False)
class CurvaturePack:
    """Curvature tensors at a batch of chart points (batch axis first).

    The lowered Riemann and Weyl tensors, (B, n, n, n, n) each, are formed
    on first read: ``form_riemann`` builds Riemann, and Weyl subtracts
    P KN g from it.  v_k reads neither, so only Bach, the ``curvature``
    command and tests form them.
    """

    points: np.ndarray          # (B, n)
    metric: np.ndarray          # (B, n, n)
    inverse: np.ndarray         # (B, n, n)
    ricci: np.ndarray           # (B, n, n)
    scalar: np.ndarray          # (B,)
    schouten: np.ndarray        # (B, n, n)
    form_riemann: Callable[[], np.ndarray] = field(repr=False)
    bach: np.ndarray | None = None      # (B, n, n) when requested

    @property
    def n(self) -> int:
        return self.metric.shape[-1]

    @cached_property
    def riemann(self) -> np.ndarray:
        """Fully lowered Riemann tensor, (B, n, n, n, n)."""
        return self.form_riemann()

    @cached_property
    def weyl(self) -> np.ndarray:
        """Weyl tensor Rm - P KN g, (B, n, n, n, n); zero below n = 3."""
        if self.n < 3:
            return np.zeros(self.metric.shape[:1] + (self.n,) * 4)
        return self.riemann - _kulkarni_nomizu(self.schouten, self.metric)


def curvature_pack(m: ModelMetric, points, want_bach: bool = False) -> CurvaturePack:
    """Curvature of ``m`` at chart points, in closed form or from order-2 chart
    jets by kind, with Bach from ``_bach`` when ``want_bach`` and n >= 3."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    closed = closed_form(m, points)
    pack = _chart_pack(m, points) if closed is None else _closed_pack(points, *closed)
    if want_bach and m.n >= 3:
        # a warped product over a product or a warped fiber has a Cotton
        # tensor, so no warped kind is its own base
        own = closed is not None and not isinstance(m, WarpedRadial)
        pack.bach = _bach(m, points, pack if own else None)
    return pack


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
    """Laplace-Beltrami of a list of scalar fields at chart points, shape (F, B)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = m.n
    x, _, _, inv0, _, gam = _chart_jets(m, points)
    ginv = np.ascontiguousarray(np.moveaxis(inv0, 0, -1))     # (n, n, B)
    out = []
    for f in fields:
        w = f(x)
        hess = np.stack([
            np.stack([w.diff(i).diff(j).value for j in range(n)]) for i in range(n)
        ])                                                    # (n, n, B)
        grad = w.gradient_value()                             # (n, B)
        cov = hess - np.einsum("kij...,k...->ij...", gam[..., 0], grad)
        out.append(np.einsum("ij...,ij...->...", ginv, cov))
    return np.stack(out)


# -- chart pipeline --------------------------------------------------------


def _chart_jets(m: ModelMetric, points: np.ndarray):
    """(x, G = m.chart(x), g0, g0^{-1}, inverse and Christoffel jets to order 1)
    on order-2 coordinates x; refuses a metric not symmetric or degenerate."""
    x = jets.coordinates(jets.jet_space(m.n, 2), points.T)
    G = m.chart(x)                                            # (n, n, B, nc)

    g0 = np.ascontiguousarray(np.moveaxis(G.value, -1, 0))    # (B, n, n)
    if np.max(np.abs(g0 - np.swapaxes(g0, -1, -2))) > 1e-12 * np.max(np.abs(g0)):
        raise NonPositiveDefinite("metric components not symmetric")
    eig = np.linalg.eigvalsh(g0)
    if np.min(eig) <= 1e-12 * np.max(eig):
        raise NonPositiveDefinite("metric degenerate at a sampled point")

    inv0 = np.linalg.inv(g0)
    Ginv = _inverse_jets(G, np.ascontiguousarray(np.moveaxis(inv0, 0, -1)))
    return x, G, g0, inv0, Ginv, _christoffel(G, Ginv)


def _chart_pack(m: ModelMetric, points: np.ndarray) -> CurvaturePack:
    n = m.n
    _, G, g0, inv0, Ginv, gam = _chart_jets(m, points)
    space = G.space

    # Riemann jets are trusted to order 0: every product returns the value only
    dgam = np.stack([space.diff(gam, v, 0) for v in range(n)])
    # Riem_up[rho, sig, mu, nu] = d_mu Gam^rho_{nu sig} - d_nu Gam^rho_{mu sig}
    #                             + Gam^rho_{mu lam} Gam^lam_{nu sig} - (mu<->nu)
    t1 = dgam.transpose(1, 3, 0, 2, *range(4, dgam.ndim))
    t2 = t1.swapaxes(2, 3)
    gg = space.mul(gam, gam, 0, "rml...p,lsn...p->rsmn...")
    riem_up = t1 - t2 + gg - gg.swapaxes(2, 3)

    ric = np.einsum("msmn...->sn...", riem_up)
    scal = space.mul(Ginv, ric, 0, "ij...p,ij...p->...")
    ricci = np.moveaxis(ric[..., 0], -1, 0)
    if n >= 3:
        P = (ric - space.mul(scal[None, None], G.c, 0) / (2.0 * (n - 1))) / (n - 2)
        schout = np.moveaxis(P[..., 0], -1, 0)
    else:
        schout = np.zeros_like(ricci)

    # the lowered Riemann tensor needs only the values of Riem_up
    rm_up0 = np.moveaxis(riem_up[..., 0], -1, 0)             # (B, n,n,n,n)
    return CurvaturePack(
        points, g0, inv0, ricci, scal[..., 0], schout,
        lambda: np.einsum("...rl,...lsmn->...rsmn", g0, rm_up0))


# the matrix product [i, j] = sum_k A[i, k] B[k, j] when A, or B, is a
# constant matrix given by its values: one contraction of coefficient
# arrays, no coefficient pairs
_CONST_MATMUL = "ik...,kj...q->ij...q"
_MATMUL_CONST = "ik...q,kj...->ij...q"


def _inverse_jets(G: Jet, inv0: np.ndarray) -> np.ndarray:
    """Coefficients up to order 1 of G^{-1} = inv0 - inv0 dG inv0, given the
    inverse inv0 (n, n, B), C-contiguous, of the value of the matrix jet G."""
    delta = G.c[..., :G.space.ncoef_at(1)].copy()
    delta[..., 0] = 0.0
    E = np.einsum(_CONST_MATMUL, inv0, delta)                 # zero constant term
    eye = np.zeros_like(E)
    eye[..., 0] = np.eye(len(inv0))[:, :, None]
    return np.einsum(_MATMUL_CONST, eye - E, inv0)


def _christoffel(G: Jet, Ginv: np.ndarray) -> np.ndarray:
    """Coefficients up to order 1 of Gam^k_ij, shape (k, i, j, B, n + 1)."""
    dG = np.stack([G.space.diff(G.c, v, 1) for v in range(len(G.c))])  # (v,a,b,B,n+1)
    M1 = dG.transpose(2, 0, 1, *range(3, dG.ndim))            # [l,i,j] = d_i g_{jl}
    M2 = dG.transpose(2, 1, 0, *range(3, dG.ndim))            # [l,i,j] = d_j g_{il}
    return 0.5 * G.space.mul(Ginv, M1 + M2 - dG, 1, "kl...p,lij...p->kij...")


def _kulkarni_nomizu(P: np.ndarray, g: np.ndarray) -> np.ndarray:
    """P_ik g_jl + P_jl g_ik - P_il g_jk - P_jk g_il, each term a view of
    the one outer product O_abcd = P_ab g_cd."""
    O = np.einsum("...ab,...cd->...abcd", P, g)
    return (np.einsum("...ikjl->...ijkl", O) + np.einsum("...jlik->...ijkl", O)
            - np.einsum("...iljk->...ijkl", O) - np.einsum("...jkil->...ijkl", O))


def _bach(m: ModelMetric, points: np.ndarray, pack: CurvaturePack | None) -> np.ndarray:
    """Bach tensor (B, n, n) of m = e^{2w} b, b of zero Cotton tensor, by the
    conformal transformation law (Gover and Nurowski, J. Geom. Phys. 56, 2006):
    B = -e^{-2w} (P_b^{kl} + (n - 4) U^k U^l) W_{b,kijl} with U = b^{-1} dw.
    ``pack`` is m's own when m is its own base b; then w = 0."""
    w, dw = np.zeros(len(points)), np.zeros(points.shape)
    if pack is None:
        w, dw, closed = _conformal_base(m, points)
        pack = _closed_pack(points, *closed)
    U = np.einsum("...kl,...l->...k", pack.inverse, dw)
    Pup = np.einsum("...ka,...ab,...lb->...kl", pack.inverse, pack.schouten, pack.inverse)
    Pup = Pup + (m.n - 4) * U[:, :, None] * U[:, None, :]
    bach = np.einsum("...kl,...kijl->...ij", Pup, pack.weyl)
    return -np.exp(-2.0 * w)[:, None, None] * bach


def _conformal_base(m: ModelMetric, points: np.ndarray):
    """(w, dw, closed form of b) with m = e^{2w} b at the points: nested
    deformations add their omega, and dr^2 + f^2 h over a closed-form fiber
    h that is not itself warped is f^2 (dr^2 / f^2 + h), with h's Schouten
    tensor parallel.  Any other kind is refused."""
    w, dw = np.zeros(len(points)), np.zeros(points.shape)
    x = jets.coordinates(jets.jet_space(m.n, 1), points.T)
    while isinstance(m, ConformalDeformation):
        om = 0.0 * x[0] + m.omega(x)          # a jet also where omega is a number
        w, dw = w + om.value, dw + om.gradient_value().T
        m = m.base
    warped = isinstance(m, WarpedRadial)
    base, at = (m.fiber, points[:, 1:]) if warped else (m, points)
    closed = None if isinstance(base, WarpedRadial) else closed_form(base, at)
    if closed is None:
        raise GeneralFGUnavailable(f"no zero-Cotton conformal base for {type(m).__name__}")
    if not warped:
        return w, dw, closed
    diag, dims, terms = closed
    f = m.warp(Jet.variable(jets.jet_space(1, 1), 0, points[:, 0]))
    dw[:, 0] += f.diff(0).value / f.value
    diag = np.concatenate([1.0 / f.value[:, None] ** 2, diag], axis=1)
    return (w + np.log(f.value), dw,
            (diag, (1,) + dims, tuple((c, a + 1, b + 1) for c, a, b in terms)))


# -- closed forms -----------------------------------------------------------


def _closed_pack(points: np.ndarray, diag: np.ndarray, dims, terms) -> CurvaturePack:
    """Pack of the diagonal metric diag (B, n) whose Riemann tensor is the
    sum of the terms c * h_a KN h_b over its blocks.

    With g^{-1} = sum_e h_e^{-1}, a term contracts to the Ricci tensor
    c (d_a h_b + d_b h_a - 2 delta_ab h_a), so g^{-1}Ric and g^{-1}P are
    diagonal and no (B, n, n, n, n) array is formed until Riemann is read.
    """
    if np.min(diag) <= 1e-12 * np.max(diag):
        raise NonPositiveDefinite("metric degenerate at a sampled point")
    n = diag.shape[-1]
    block = np.repeat(np.arange(len(dims)), dims)             # block of each axis
    ric = np.zeros_like(diag)                                 # eigenvalues of g^{-1}Ric
    for c, a, b in terms:
        weight = (dims[a] * (block == b) + dims[b] * (block == a)
                  - 2.0 * (a == b) * (block == a))
        ric = ric + np.reshape(c, (-1, 1)) * weight
    scalar = np.sum(ric, axis=-1)
    if n >= 3:
        sch = (ric - scalar[:, None] / (2.0 * (n - 1))) / (n - 2)
    else:
        sch = np.zeros_like(ric)

    def embed(values):
        return values[:, :, None] * np.eye(n)

    def form_riemann():
        blocks = [embed(np.where(block == a, diag, 0.0)) for a in range(len(dims))]
        riemann = np.zeros(diag.shape[:1] + (n,) * 4)
        for c, a, b in terms:
            riemann += (np.reshape(c, (-1, 1, 1, 1, 1))
                        * _kulkarni_nomizu(blocks[a], blocks[b]))
        return riemann

    return CurvaturePack(points, embed(diag), embed(1.0 / diag), embed(ric * diag),
                         scalar, embed(sch * diag), form_riemann)
