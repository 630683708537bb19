"""The four benchmark workloads: inputs, task lists and output checks.

Each workload is built from a variant index in ``range(VARIANTS)`` that the
seed selects.  Building it is the set-up the benchmark times: importing
confvol, constructing models, bases and seeded inputs, and the jet tables
the tasks use.  Program functions are called through their modules, so
the tracer's wrappers see every call.  The result is a list of tasks; each
task runs one program operation and returns an Outcome with

- ``outputs``: every value the operation produced, compared byte for byte
  between rounds and between traced and untraced runs;
- ``ref``: the primary numeric outputs, compared with the stored reference
  of this variant (``reference.json``) to 1e-13 relative;
- ``checks``: the oracle checks at their pinned acceptance tolerances.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from math import pi
from typing import Callable

import numpy as np

import confvol.flow  # noqa: F401  the CLI imports it on demand; set-up pays for it
from confvol import cli, jets, renorm, series, spectral, variation
from confvol.models import (
    ConformalDeformation,
    FlatTorus,
    RoundSphere,
    combined_field,
    sphere_volume,
    zonal_field,
)
from confvol.renorm import AHNormalForm, hyperbolic_normal_form
from confvol.series import einstein_vk_exact
from confvol.variation import classify_sign_Fk, classify_sign_V

VARIANTS = 8
REF_RTOL = 1e-13
# the CLI rounds payload floats to 14 decimals; one unit of that rounding
# is allowed on top of the relative tolerance
CLI_QUANTUM = 1e-14


@dataclass
class Outcome:
    outputs: dict
    ref: dict = field(default_factory=dict)        # name -> (value, quantum)
    checks: list = field(default_factory=list)     # (label, passed)


@dataclass
class Task:
    name: str
    run: Callable[[], Outcome]


def variant_of(seed: int) -> int:
    return int(np.random.default_rng(seed).integers(VARIANTS))


def _inputs_rng(workload: str, variant: int) -> np.random.Generator:
    return np.random.default_rng([sum(map(ord, workload)), variant])


# -- CLI in process ---------------------------------------------------------


def run_cli(argv) -> dict:
    """Run one CLI command in this process and return its payload."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.cli_dispatch(list(argv))
    if rc != 0:
        raise RuntimeError(f"confvol {' '.join(argv)} exited {rc}")
    return json.loads(buf.getvalue())["payload"]


def _cli_ref(payload: dict, keys) -> dict:
    return {k: (payload[k], CLI_QUANTUM) for k in keys}


# -- chart_variation -----------------------------------------------------------

FD_STEP = 1e-4
FD_TOL = 1e-6


def _zonal_mix(m: RoundSphere, rng: np.random.Generator, naxes: int = 3):
    """Random mix of the degree-1 and degree-2 zonal harmonics along
    ``naxes`` distinct ambient axes, with unit coefficient norm."""
    n = m.n
    axes = rng.choice(n + 1, size=naxes, replace=False)
    coef = rng.normal(size=(naxes, 2))
    coef /= np.linalg.norm(coef)
    # degree-2 zonal harmonic on S^n: t^2 - 1/(n+1)
    polys = [np.array([-c2 / (n + 1), c1, c2]) for c1, c2 in coef]
    fields = [zonal_field(m, p, int(ax)) for p, ax in zip(polys, axes)]
    return combined_field(fields, np.ones(naxes))


def _fd_task(m: RoundSphere, omega, k: int, pts: np.ndarray) -> Task:
    def vk_at(t):
        deformed = ConformalDeformation(m, lambda x: t * omega(x))
        return (-2.0) ** k * series.v_direct(deformed, k, points=pts)

    def run():
        plus, minus = vk_at(FD_STEP), vk_at(-FD_STEP)
        fd = (plus - minus) / (2.0 * FD_STEP)
        lin = variation.delta_vk(m, omega, k, pts)
        err = float(np.max(np.abs(fd - lin)) / max(1.0, np.max(np.abs(lin))))
        return Outcome(
            outputs={"delta_vk": lin, "v_plus": plus, "v_minus": minus,
                     "fd": fd},
            ref={"delta_vk": (lin, 0.0), "v_plus": (plus, 0.0),
                 "v_minus": (minus, 0.0)},
            checks=[(f"fd rel err {err:.2e} < {FD_TOL:g}", err < FD_TOL)])

    return Task(f"fd n={m.n} k={k}", run)


def chart_variation(variant: int):
    rng = _inputs_rng("chart_variation", variant)
    tasks = []
    for n in (5, 7):
        m = RoundSphere(n, 1.0)
        pts = m.sample_points(2, rng)
        omega = _zonal_mix(m, rng)
        for order in (0, 2, 4):
            jets.jet_space(n, order)
        tasks += [_fd_task(m, omega, k, pts) for k in (1, 2, 3)]
    return tasks


# -- zonal_flow ----------------------------------------------------------------

FLOW_RUNS = (
    ("sphere k=2", ["--model", "sphere", "--n", "5", "--k", "2",
                    "--tol", "1e-4"], 1e-4),
    ("sphere k=1", ["--model", "sphere", "--n", "5", "--k", "1"], 1e-6),
    ("torus k=1", ["--model", "torus", "--periods", "1,1,1", "--k", "1"], 1e-6),
)
# the torus flow runs at this many amplitudes per round, so that the median
# task (a torus flow) has many samples in every round; they run before and
# after the sphere flows, so that together they span the whole round
TORUS_RUNS = 20
VOLUME_DRIFT_TOL = 1e-8


def _flow_task(name: str, argv, tol: float) -> Task:
    def run():
        p = run_cli(argv)
        return Outcome(
            outputs=p,
            ref={**_cli_ref(p, ("final_constant", "final_sup_deviation",
                                "variance_history")),
                 **{k: (p[k], 0.0) for k in ("steps", "accepted", "rejected")}},
            checks=[("converged", p["converged"]),
                    (f"sup deviation {p['final_sup_deviation']:.2e} < {tol:g}",
                     p["final_sup_deviation"] < tol),
                    (f"volume drift {p['volume_drift']:.1e} < "
                     f"{VOLUME_DRIFT_TOL:g}",
                     p["volume_drift"] < VOLUME_DRIFT_TOL)])

    return Task(f"flow {name}", run)


def zonal_flow(variant: int):
    rng = _inputs_rng("zonal_flow", variant)
    runs = FLOW_RUNS[:2] + tuple(
        (f"{name} ({i})", argv, tol)
        for name, argv, tol in FLOW_RUNS[2:] for i in range(TORUS_RUNS))
    # amplitudes within 1% of the README's 0.05, so every variant converges
    # in nearly the same number of steps
    amps = 0.05 * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, size=len(runs)))
    jets.jet_space(5, 0)
    jets.jet_space(5, 2)
    jets.jet_space(3, 0)
    tasks = [_flow_task(name, ["flow", *argv, "--amplitude", repr(float(a))], tol)
             for (name, argv, tol), a in zip(runs, amps)]
    half = 2 + TORUS_RUNS // 2
    return tasks[2:half] + tasks[:2] + tasks[half:]


# -- renorm_volume ---------------------------------------------------------------

V_H4 = 4.0 * pi ** 2 / 3.0
V_H4_TOL = 1e-8
ROUTE_GAP_TOL = 1e-6
GAUSS_BONNET_TOL = 1e-6


def _rv_task(model: str) -> Task:
    def run():
        p = run_cli(["rv", "--model", model])
        checks = [(f"cross-route gap {p['cross_check_gap']:.1e} < "
                   f"{ROUTE_GAP_TOL:g}", p["cross_check_gap"] < ROUTE_GAP_TOL)]
        if model == "hyperbolic4":
            err = abs(p["V_expansion"] - V_H4)
            gb = p["gauss_bonnet_residual"]
            checks += [(f"|V - 4pi^2/3| {err:.1e} < {V_H4_TOL:g}", err < V_H4_TOL),
                       (f"Gauss-Bonnet residual {gb:.1e} < {GAUSS_BONNET_TOL:g}",
                        gb < GAUSS_BONNET_TOL)]
        return Outcome(
            outputs=p,
            ref=_cli_ref(p, ("V_expansion", "V_geodcomp", "coefficients",
                             "log_coefficient")),
            checks=checks)

    return Task(f"rv {model}", run)


def _fit_task(eps0: float) -> Task:
    forms = [hyperbolic_normal_form(RoundSphere(n, 1.0)) for n in (3, 5)]
    analytic = [renorm.extract_expansion(f).V for f in forms]
    fit_forms = [AHNormalForm(boundary=f.boundary, warp=f.warp, r_max=f.r_max)
                 for f in forms]

    def run():
        outputs, checks = {}, []
        for form, exact in zip(fit_forms, analytic):
            fit = renorm.extract_expansion(form, eps0=eps0)
            vals = np.concatenate([fit.coefficients,
                                   [fit.V, fit.log_coefficient]])
            outputs[f"n{form.n}"] = vals
            gap = abs(fit.V - exact)
            checks.append((f"n={form.n} fit - analytic {gap:.1e} < "
                           f"{ROUTE_GAP_TOL:g}",
                           fit.method == "fit" and gap < ROUTE_GAP_TOL))
        return Outcome(outputs=outputs,
                       ref={k: (v, 0.0) for k, v in outputs.items()},
                       checks=checks)

    return Task("fit n=3,5", run)


def renorm_volume(variant: int):
    rng = _inputs_rng("renorm_volume", variant)
    eps0 = float(0.5 * (1.0 + 0.08 * rng.uniform(-1.0, 1.0)))
    for n in (3, 4, 5, 6):
        jets.jet_space(n, 0)
    jets.jet_space(1, 0)
    jets.jet_space(1, 2)
    jets.jet_space(6, 4)
    return [_rv_task("hyperbolic4"), _rv_task("hyperbolic6"), _fit_task(eps0)]


# -- variation_tables --------------------------------------------------------------


def _signtable_task() -> Task:
    def run():
        p = run_cli(["signtable", "--nmin", "3", "--nmax", "8"])
        return Outcome(outputs=p,
                       ref={"rows": (p["rows"], 0.0),
                            "failures": (p["failures"], 0.0)},
                       checks=[(f"{p['failures']} sign-table failures",
                                p["failures"] == 0)])

    return Task("signtable 3..8", run)


def _hessian_task(name: str, argv, expected: str, nullity: int) -> Task:
    def run():
        p = run_cli(["hessian", *argv])
        ok = p["classification"] == expected and p["nullity"] == nullity
        return Outcome(
            outputs=p,
            ref=_cli_ref(p, ("eigenvalues", "unit_volume_factor",
                             "classification", "nullity")),
            checks=[(f"{p['classification']!r} == {expected!r}", ok)])

    return Task(f"hessian {name}", run)


def _variation_task(seed: int) -> Task:
    n, k, a = 3, 1, 0.5
    F_exact = einstein_vk_exact(n, a, k) * sphere_volume(n)

    def run():
        p = run_cli(["variation", "--n", str(n), "--k", str(k),
                     "--seed", str(seed)])
        F_err = abs(p["F_k"] - F_exact) / F_exact
        return Outcome(
            outputs=p,
            ref=_cli_ref(p, ("F_k", "eigenvalue")),
            checks=[(f"F_k rel err {F_err:.1e} < 1e-9", F_err < 1e-9),
                    # a degree-1 harmonic on the round sphere is a null
                    # direction of v_1 and of F_1
                    ("first variation ~ 0", abs(p["first_variation"]) < 1e-9),
                    ("delta v_k ~ 0", p["delta_vk_sup"] < 1e-9),
                    ("eigenvalue n", p["eigenvalue"] == float(n))])

    return Task("variation n=3 k=1", run)


def _torus_hessian_task() -> Task:
    torus = FlatTorus((1.0, 1.0, 1.0))
    basis = spectral.torus_basis(torus, mmax=2)

    def run():
        form = variation.hessian_Fk(torus, 1, basis)
        # flat background: H = (n - 2k) * Dirichlet, positive on mean-zero modes
        ok = form.classification == "positive definite" and form.size == 124
        return Outcome(outputs={"eigenvalues": form.eigenvalues,
                                "classification": form.classification},
                       ref={"eigenvalues": (form.eigenvalues, 0.0),
                            "classification": (form.classification, 0.0)},
                       checks=[(f"T^3 Hessian {form.classification!r}, "
                                f"{form.size} members", ok)])

    return Task("hessian T^3 k=1 (library)", run)


def variation_tables(variant: int):
    for n in range(3, 9):
        jets.jet_space(n, 0)
    for n in (3, 4, 5):
        for order in (1, 2):
            jets.jet_space(n, order)
    sphere = classify_sign_Fk(5, 1, +1.0).split()[0]
    v_sign = classify_sign_V(4, +1.0).split()[0]
    return [
        _signtable_task(),
        _hessian_task("n=5 k=1", ["--n", "5", "--k", "1", "--lmax", "8"],
                      f"{sphere} semi-definite with nullity 6", 6),
        _hessian_task("n=4 V", ["--n", "4", "--functional", "V", "--lmax", "8"],
                      f"{v_sign} semi-definite with nullity 5", 5),
        _variation_task(1000 + variant),
        _torus_hessian_task(),
    ]


WORKLOADS = {
    "chart_variation": chart_variation,
    "zonal_flow": zonal_flow,
    "renorm_volume": renorm_volume,
    "variation_tables": variation_tables,
}


# -- comparisons -------------------------------------------------------------------


def reference_misses(ref: dict, stored: dict) -> list:
    """Names of primary outputs that differ from the stored reference."""
    misses = []
    for name, (value, quantum) in ref.items():
        if name not in stored or not _close(value, stored[name], quantum):
            misses.append(name)
    return misses


def _close(value, stored, quantum: float) -> bool:
    if isinstance(value, (str, bool)) or isinstance(stored, (str, bool)):
        return value == stored
    if isinstance(value, list) and value and isinstance(value[0], dict):
        return value == stored
    a = np.asarray(value, dtype=float)
    b = np.asarray(stored, dtype=float)
    if a.shape != b.shape:
        return False
    if a.size == 0:
        return True
    scale = float(np.max(np.abs(b)))
    return bool(np.max(np.abs(a - b)) <= REF_RTOL * scale + quantum)


def to_json(value):
    """Reference form of an output: arrays as lists, full float precision."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value
