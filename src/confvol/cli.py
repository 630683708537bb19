"""Command-line interface with deterministic, hashable result records.

Every subcommand parses a flat key = value configuration (from flags and
optionally a .cfg file), validates it against a typed schema, runs the
corresponding library operation, and writes a JSON record whose payload
is byte-deterministic for a fixed config and seed.  Wall-clock time lives
outside the payload so records from identical runs hash identically.
``cli_dispatch`` reuses one argument parser per process; each call's flags
live in the Namespace that call parses.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from math import comb, isfinite

import numpy as np

from . import __version__
from .errors import ConfvolError, NonFiniteResult, NumericalFailure, check_size

# -- config schemas ---------------------------------------------------------

_MODEL_KEYS = {
    "model": (str, "sphere"),
    "n": (int, 3),
    "radius": (float, 1.0),
    "a": (float, 0.5),
    "periods": (str, "1,1,1"),
}
_SEED = {"seed": (int, 0)}

# entries of the largest array a curvature pack or series holds
_MAX_ENTRIES = 2_000_000
# largest gap of rv's two routes; the two models show 5.3e-15 and 3.6e-15
_RV_GAP_TOL = 1e-9
# largest relative miss of a vk or ltensor row from its closed form (n = 68
# shows 5.2e-15 and 1.0e-14) and of the gaussbonnet residual (0.0)
_CLOSED_FORM_TOL = 1e-12


def _periods(text: str) -> tuple:
    """Torus periods "p1,p2,..."; empty unless all lie in [1e-6, 1e6]."""
    try:
        periods = tuple(float(p) for p in text.split(","))
    except ValueError:
        return ()
    return periods if all(1e-6 <= p <= 1e6 for p in periods) else ()


# value rules, checked for every key a command's schema has; each rule
# sees the key's value and the whole config
_RULES = {
    "n": (lambda v, c: v >= 1, "at least 1"),
    # past these scales (|a| = 1 / (2 radius^2)) the charts overflow or divide by 0
    "radius": (lambda v, c: 1e-6 <= v <= 1e6, "in [1e-6, 1e6]"),
    "a": (lambda v, c: v == 0 or 5e-13 <= abs(v) <= 5e11,
          "0 or of magnitude in [5e-13, 5e11]"),
    "periods": (lambda v, c: _periods(v),
                "a comma-separated list of numbers in [1e-6, 1e6]"),
    "points": (lambda v, c: v >= 1, "at least 1"),
    "grid": (lambda v, c: v >= 2, "at least 2"),
    "nmin": (lambda v, c: v >= 3, "at least 3"),
    "nmax": (lambda v, c: v >= c["nmin"], "at least nmin"),
    "seed": (lambda v, c: v >= 0, "at least 0"),
    "amplitude": (lambda v, c: isfinite(v), "finite"),
    "tol": (lambda v, c: isfinite(v) and v > 0, "finite and positive"),
    "max_steps": (lambda v, c: v >= 1, "at least 1"),
    "k": (lambda v, c: v >= 1, "at least 1"),
    "kmax": (lambda v, c: v >= 0, "at least 0 (0 means n)"),
    "lmax": (lambda v, c: v >= 1, "at least 1"),
    "functional": (lambda v, c: v in ("Fk", "V"), "Fk or V"),
}


def parse_value(key: str, raw: str, typ):
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfvolError(f"key {key!r}: cannot parse {raw!r} as "
                           f"{typ.__name__}") from exc


def load_config(command: str, cfg_path: str | None, overrides: dict) -> dict:
    if command not in _COMMANDS:
        raise ConfvolError(f"unknown command {command!r}")
    schema = _COMMANDS[command][1]
    config = {k: d for k, (_, d) in schema.items()}
    if cfg_path:
        with open(cfg_path, errors="replace") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfvolError(
                        f"{cfg_path}:{lineno}: expected key = value")
                key, raw = (s.strip() for s in line.split("=", 1))
                if key not in schema:
                    raise ConfvolError(
                        f"{cfg_path}:{lineno}: unknown key {key!r}")
                config[key] = parse_value(key, raw, schema[key][0])
    for key, raw in overrides.items():
        if key not in schema:
            raise ConfvolError(f"unknown key {key!r} for command {command!r}")
        config[key] = parse_value(key, str(raw), schema[key][0])
    for key, (valid, rule) in _RULES.items():
        if key in config and not valid(config[key], config):
            raise ConfvolError(f"key {key!r}: {config[key]!r} must be {rule}")
    return config


def canonical_text(command: str, config: dict) -> str:
    lines = [f"command = {command}"]
    lines += [f"{key} = {config[key]!r}" for key in sorted(config)]
    return "\n".join(lines) + "\n"


def config_hash(command: str, config: dict) -> str:
    return hashlib.sha256(canonical_text(command, config).encode()).hexdigest()


# -- model construction ------------------------------------------------------


def build_model(config: dict):
    from .models import FlatTorus, HyperbolicSpace, RoundSphere, einstein_model

    kind = config["model"]
    if kind == "sphere":
        return RoundSphere(config["n"], config["radius"])
    if kind == "hyperbolic":
        return HyperbolicSpace(config["n"], config["radius"])
    if kind == "torus":
        return FlatTorus(_periods(config["periods"]))
    if kind == "einstein":
        return einstein_model(config["n"], config["a"])
    raise ConfvolError(f"unknown model kind {config['model']!r}")


# -- command implementations -------------------------------------------------


def _round(x):
    if isinstance(x, dict):
        return {k: _round(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round(v) for v in x]
    if isinstance(x, np.ndarray):
        return _round(x.tolist())
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (float, np.floating)):
        return float(f"{x:.14g}")              # 14 significant digits
    if isinstance(x, (int, np.integer)):
        return int(x)
    return x


def cmd_curvature(config: dict) -> dict:
    from .curvature import curvature_pack

    m = build_model(config)
    check_size("points * n^4", config["points"] * m.n ** 4, _MAX_ENTRIES)
    pts = m.sample_points(config["points"],
                          np.random.default_rng(config["seed"]))
    pack = curvature_pack(m, pts, want_bach=True)
    out = {
        "scalar_min": np.min(pack.scalar),
        "scalar_max": np.max(pack.scalar),
        "weyl_sup": np.max(np.abs(pack.weyl)),
    }
    if pack.bach is not None:
        out["bach_sup"] = np.max(np.abs(pack.bach))
    return out


def _series(config: dict, lag: int = 0):
    """Einstein series of the configured model to order kmax (default n),
    for rows k whose closed form is a^(k - lag) C(n - lag, k - lag)."""
    from .models import einstein_constant
    from .series import _DEFAULT_POINT_COUNT, einstein_series, einstein_vk_exact

    m = build_model(config)
    kmax = config["kmax"] or m.n
    check_size("series entries (kmax+1) * points * n^2",
               (kmax + 1) * _DEFAULT_POINT_COUNT * m.n ** 2, _MAX_ENTRIES)
    # a row whose closed form, or its power of a, over- or underflows
    # cannot be checked; rows past k = n are exact zeros
    a, n = einstein_constant(m), m.n - lag
    tiny = np.finfo(float).tiny
    with np.errstate(all="ignore"):
        for k in range(1, min(kmax, m.n) + 1):
            j = k - lag
            terms = (np.float64(a) ** j, einstein_vk_exact(n, a, j))
            if a and not all(np.isfinite(x) and abs(x) >= tiny for x in terms):
                raise ConfvolError(
                    f"row k = {k}: the closed form a^{j} C({n}, {j}) with "
                    f"a = {a:.3e} is not a finite normal float; kmax must be "
                    f"below {k}")
    return einstein_series(m, K=kmax)


def _gate(what: str, miss: float, scale: float):
    """Refuse a miss from a closed form over _CLOSED_FORM_TOL * scale; an
    overflowing result misses by NaN and is refused too."""
    if not miss <= _CLOSED_FORM_TOL * scale:
        raise NumericalFailure(f"{what} misses its closed form by {miss:.3e}, "
                               f"over {_CLOSED_FORM_TOL:.0e} of {scale:.3e}")


def cmd_vk(config: dict) -> dict:
    from .series import einstein_vk_exact, vk_from_series

    s = _series(config)
    rows = []
    with np.errstate(all="ignore"):     # the gate refuses what over- or underflows
        vk = vk_from_series(s)
        for k in range(s.K + 1):
            val = np.mean(vk[k])
            exact = einstein_vk_exact(s.n, s.einstein_a, k)
            _gate(f"vk row k = {k}", abs(val - exact), abs(exact))
            rows.append({"k": k, "vk": val, "exact": exact,
                         "error": abs(val - exact)})
    return {"a": s.einstein_a, "rows": rows}


def cmd_ltensor(config: dict) -> dict:
    from .series import L_tensors, einstein_L_exact

    s = _series(config, lag=1)
    ginv0 = np.linalg.inv(s.g0)
    rows = []
    with np.errstate(all="ignore"):     # the gate refuses what over- or underflows
        L = L_tensors(s)
        for k in range(1, s.K + 1):
            exact = einstein_L_exact(s.n, s.einstein_a, k)
            err = np.max(np.abs(L[k] - exact * ginv0))
            _gate(f"ltensor row k = {k}", err, abs(exact) * np.max(np.abs(ginv0)))
            rows.append({"k": k, "scalar_factor": exact, "residual": err})
    return {"a": s.einstein_a, "rows": rows}


def cmd_variation(config: dict) -> dict:
    from .spectral import basis_for
    from .variation import delta_vk, first_variation_Fk, functional_Fk

    m = build_model(config)
    basis = basis_for(m, config["lmax"])
    k = config["k"]
    if not 0 <= config["member"] < basis.size:
        raise ConfvolError(f"key 'member': {config['member']!r} must be in "
                           f"0..{basis.size - 1}")
    member = basis.members[config["member"]]
    pts = m.sample_points(4, np.random.default_rng(config["seed"]))
    return {
        "F_k": functional_Fk(m, k),
        "first_variation": first_variation_Fk(m, k, member),
        "delta_vk_sup": np.max(np.abs(delta_vk(m, member, k, pts))),
        "eigenvalue": basis.eigenvalues[config["member"]],
    }


def cmd_hessian(config: dict) -> dict:
    from .spectral import basis_for
    from .variation import hessian_Fk, hessian_V

    m = build_model(config)
    # the criticality check's curvature pack holds 4 * n^4 Riemann entries
    check_size("4 * n^4", 4 * m.n ** 4, _MAX_ENTRIES)
    basis = basis_for(m, config["lmax"])
    form = (hessian_V(m, basis) if config["functional"] == "V"
            else hessian_Fk(m, config["k"], basis))
    return {
        "functional": form.functional,
        "k": form.k,
        "classification": form.classification,
        "nullity": form.nullity,
        "eigenvalues": form.eigenvalues,
        "unit_volume_factor": form.unit_volume_factor,
    }


def cmd_signtable(config: dict) -> dict:
    from .models import HyperbolicSpace, RoundSphere
    from .spectral import sphere_basis
    from .variation import classify_sign_Fk, hessian_Fk

    check_size("4 * nmax^4", 4 * config["nmax"] ** 4, _MAX_ENTRIES)
    rows = []
    for n in range(config["nmin"], config["nmax"] + 1):
        sphere = RoundSphere(n, 1.0)
        basis = sphere_basis(sphere, lmax=config["lmax"])
        for k in range(1, n + 1):
            if n % 2 == 0 and k == n // 2:
                continue
            for a, background in ((0.5, sphere), (-0.5, HyperbolicSpace(n, 1.0))):
                form = hessian_Fk(background, k, basis)
                expected = classify_sign_Fk(n, k, a)
                if a > 0:
                    # round sphere: definite off an (n+1)-dim nullspace
                    ok = (form.nullity == n + 1
                          and form.classification.startswith(
                              expected.split()[0]))
                else:
                    ok = form.classification == expected
                rows.append({"n": n, "k": k, "sign_a": 1 if a > 0 else -1,
                             "classification": form.classification,
                             "expected": expected,
                             "status": "PASS" if ok else "FAIL"})
    failures = sum(r["status"] == "FAIL" for r in rows)
    return {"rows": rows, "failures": failures}


def cmd_rv(config: dict) -> dict:
    from .models import RoundSphere
    from .renorm import (extract_expansion, gauss_bonnet_4d,
                         geodesic_compactification, hyperbolic_normal_form,
                         renorm_volume_geodcomp)

    n = {"hyperbolic4": 3, "hyperbolic6": 5}.get(config["model"])
    if n is None:
        raise ConfvolError(f"rv model must be hyperbolic4 or hyperbolic6, "
                           f"got {config['model']!r}")
    form = hyperbolic_normal_form(RoundSphere(n, 1.0))
    exp = extract_expansion(form)
    V_bulk = renorm_volume_geodcomp(geodesic_compactification(form), n)
    gap = abs(exp.V - V_bulk)
    if gap > _RV_GAP_TOL:
        raise NumericalFailure(f"rv cross-check: the expansion and bulk routes "
                               f"differ by {gap:.3e}, over {_RV_GAP_TOL:.0e}")
    out = {
        "n": n,
        "V_expansion": exp.V,
        "V_geodcomp": V_bulk,
        "cross_check_gap": gap,
        "coefficients": exp.coefficients,
        "log_coefficient": exp.log_coefficient,
    }
    if n == 3:
        out["gauss_bonnet_residual"] = gauss_bonnet_4d(exp.V, 0.0, 1,
                                                       mode="AHE")
    return out


def cmd_gaussbonnet(config: dict) -> dict:
    from .models import RoundSphere, sphere_volume
    from .renorm import gauss_bonnet_4d
    from .series import v_direct

    v4 = v_direct(RoundSphere(4, 1.0), 2, count=2)[0]
    resid = gauss_bonnet_4d(v4 * sphere_volume(4), 0.0, 2, mode="compact")
    _gate("the Gauss-Bonnet residual", resid, 8.0 * np.pi ** 2 * 2)
    return {"chi": 2, "v4": v4, "residual": resid}


def cmd_flow(config: dict) -> dict:
    from .flow import run_flow
    from .models import fourier_field
    from .quadrature import _MAX_NODES
    from .spectral import sphere_basis

    if config["model"] not in ("torus", "sphere"):
        raise ConfvolError(f"flow model must be torus or sphere, "
                           f"got {config['model']!r}")
    m = build_model(config)
    if config["model"] == "torus":
        check_size("grid^n", config["grid"] ** m.n, _MAX_NODES)
        omega0 = fourier_field(m, (1,) + (0,) * (m.n - 1),
                               amplitude=config["amplitude"])
        kw = {"shape": (config["grid"],) * m.n}
    else:
        if config["k"] >= 2:
            # k >= 2 take sigma_k on order-2 chart jets of the conformally
            # flat deformations at the flow's 48 nodes; the n^4 Riemann
            # jets are the largest array
            check_size("sphere flow chart-jet entries 48 * n^4 * C(n+2, 2)",
                       48 * m.n ** 4 * comb(m.n + 2, 2), _MAX_ENTRIES)
        member = sphere_basis(m, lmax=2).members[m.n + 1]
        omega0 = lambda x: config["amplitude"] * member(x)
        kw = {}
    report = run_flow(m, config["k"], omega0, tol=config["tol"],
                      max_steps=config["max_steps"], **kw)
    hist = report.variance_history
    stride = max(1, len(hist) // 200)
    return {
        "converged": report.converged,
        "steps": report.steps,
        "accepted": report.accepted,
        "rejected": report.rejected,
        "final_constant": report.final_constant,
        "final_sup_deviation": report.final.sup_deviation,
        "volume_drift": report.volume_drift,
        "variance_history": hist[::stride],
    }


def _read_record(path: str) -> dict:
    """A result record read back from its JSON file."""
    with open(path) as fh:
        try:
            rec = json.load(fh)
        except ValueError:      # not JSON, or not text at all
            rec = None
    if not (isinstance(rec, dict) and isinstance(rec.get("payload"), dict)
            and all(isinstance(rec.get(k), str)
                    for k in ("command", "config_hash"))):
        raise ConfvolError(f"{path}: not a JSON result record with "
                           f"command, config_hash and payload")
    return rec


def cmd_report(config: dict) -> dict:
    paths = [p for p in config["inputs"].split(",") if p]
    if not paths:
        raise ConfvolError("report needs inputs = comma-separated json paths")
    lines = []
    for path in sorted(paths):
        rec = _read_record(path)
        lines.append(f"## {rec['command']} ({rec['config_hash'][:12]})")
        payload = rec["payload"]
        if isinstance(payload.get("rows"), list):
            for row in payload["rows"][:200]:
                lines.append("  " + json.dumps(row, sort_keys=True))
        else:
            for key in sorted(payload):
                lines.append(f"  {key} = {json.dumps(payload[key])}")
        lines.append("")
    return {"text": "\n".join(lines)}


# command -> (implementation, config schema of (type, default) per key)
_COMMANDS = {
    "curvature": (cmd_curvature, {**_MODEL_KEYS, **_SEED, "points": (int, 4)}),
    "vk": (cmd_vk, {**_MODEL_KEYS, "kmax": (int, 0)}),
    "ltensor": (cmd_ltensor, {**_MODEL_KEYS, "kmax": (int, 0)}),
    "variation": (cmd_variation, {**_MODEL_KEYS, **_SEED, "k": (int, 1),
                                  "lmax": (int, 3), "member": (int, 0)}),
    "hessian": (cmd_hessian, {**_MODEL_KEYS, "k": (int, 1), "lmax": (int, 8),
                              "functional": (str, "Fk")}),
    "signtable": (cmd_signtable, {"nmin": (int, 3), "nmax": (int, 8),
                                  "lmax": (int, 8)}),
    "rv": (cmd_rv, {"model": (str, "hyperbolic4")}),
    "gaussbonnet": (cmd_gaussbonnet, {}),
    "flow": (cmd_flow, {**{k: v for k, v in _MODEL_KEYS.items() if k != "a"},
                        "k": (int, 1), "amplitude": (float, 0.05),
                        "grid": (int, 16), "tol": (float, 1e-6),
                        "max_steps": (int, 10000)}),
    "report": (cmd_report, {"inputs": (str, "")}),
}


# -- record output -----------------------------------------------------------


def make_record(command: str, config: dict, payload: dict,
                wallclock: float) -> dict:
    return {
        "command": command,
        "config": {k: config[k] for k in sorted(config)},
        "config_hash": config_hash(command, config),
        "version": __version__,
        "payload": payload,
        "wallclock_seconds": round(wallclock, 3),
    }


def _json_text(obj, **kw) -> str:
    """Canonical JSON of obj; a NaN or infinity in it is a numerical failure."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False, **kw)
    except ValueError as exc:
        raise NonFiniteResult(f"result is not finite: {exc}") from exc


def payload_bytes(record: dict) -> bytes:
    return _json_text(record["payload"]).encode()


def write_outputs(record: dict, text: str, json_path: str | None,
                  csv_path: str | None):
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text)
    if csv_path:
        rows = record["payload"].get("rows")
        if rows:
            cols = list(rows[0])
            with open(csv_path, "w") as fh:
                fh.write(",".join(cols) + "\n")
                for row in rows:
                    fh.write(",".join(str(row[c]) for c in cols) + "\n")


# -- dispatch ----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confvol",
        description="volume coefficients, conformal variations, and "
                    "renormalized volume on model manifolds")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, schema) in _COMMANDS.items():
        # no prefix matching: "flow --a" must not silently mean --amplitude
        p = sub.add_parser(command, allow_abbrev=False)
        p.add_argument("--config", default=None, help=".cfg key = value file")
        p.add_argument("--json", default=None, help="result record path")
        p.add_argument("--csv", default=None, help="table output path")
        for key, (typ, default) in schema.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           default=None, metavar=typ.__name__.upper())
    return parser


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse uses exit code 2 for usage errors; those are
            # validation failures here
            return 0 if exc.code in (0, None) else 1
        run, schema = _COMMANDS[args.command]
        overrides = {k: getattr(args, k) for k in schema
                     if getattr(args, k) is not None}
        config = load_config(args.command, args.config, overrides)
        start = time.perf_counter()
        # one rounding of every float makes the payload byte-deterministic
        payload = _round(run(config))
        record = make_record(args.command, config, payload,
                             time.perf_counter() - start)
        text = _json_text(record, indent=1) + "\n"
        write_outputs(record, text, args.json, args.csv)
        sys.stdout.write(payload["text"] if args.command == "report" else text)
        return 0
    except ConfvolError as exc:
        kind = "numerical failure" if exc.exit_code == 2 else "error"
        sys.stderr.write(f"{kind}: {exc}\n")
        return exc.exit_code
    except OSError as exc:
        # an unreadable --config or report input, an unwritable --json/--csv
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
