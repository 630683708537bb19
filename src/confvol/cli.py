"""Command-line interface with deterministic, hashable result records.

Every subcommand parses a flat key = value configuration (from flags and
optionally a .cfg file), validates it against a typed schema, runs the
corresponding library operation, and writes a JSON record whose payload
is byte-deterministic for a fixed config and seed.  Wall-clock time lives
outside the payload so records from identical runs hash identically.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from math import pi

import numpy as np

from . import __version__
from .errors import (
    ConfigInvalid,
    ConfvolError,
    GridResolutionInsufficient,
    IllConditionedFit,
    NoConvergence,
    NonPositiveDefinite,
    NotCritical,
    NotTotallyGeodesic,
    StepRejected,
    TruncationTooShort,
    UnknownCommand,
)

_NUMERICAL_ERRORS = (
    NoConvergence, StepRejected, IllConditionedFit,
    GridResolutionInsufficient, NonPositiveDefinite, NotCritical,
    NotTotallyGeodesic, TruncationTooShort,
)

# -- config schemas ---------------------------------------------------------

_MODEL_KEYS = {
    "model": (str, "sphere"),
    "n": (int, 3),
    "radius": (float, 1.0),
    "a": (float, 0.5),
    "periods": (str, "1,1,1"),
    "seed": (int, 0),
}

_SCHEMAS = {
    "curvature": {**_MODEL_KEYS, "points": (int, 4)},
    "vk": {**_MODEL_KEYS, "kmax": (int, 0)},
    "ltensor": {**_MODEL_KEYS, "kmax": (int, 0)},
    "variation": {**_MODEL_KEYS, "k": (int, 1), "lmax": (int, 3),
                  "member": (int, 0)},
    "hessian": {**_MODEL_KEYS, "k": (int, 1), "lmax": (int, 8),
                "functional": (str, "Fk")},
    "signtable": {"nmin": (int, 3), "nmax": (int, 8), "lmax": (int, 8)},
    "rv": {"model": (str, "hyperbolic4")},
    "gaussbonnet": {"case": (str, "h4")},
    "flow": {**_MODEL_KEYS, "k": (int, 1), "amplitude": (float, 0.05),
             "grid": (int, 16), "tol": (float, 1e-6),
             "max_steps": (int, 10000)},
    "report": {"inputs": (str, "")},
}


def parse_value(key: str, raw: str, typ):
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return str(raw)
    except ValueError as exc:
        raise ConfigInvalid(f"key {key!r}: cannot parse {raw!r} as "
                            f"{typ.__name__}") from exc


def load_config(command: str, cfg_path: str | None, overrides: dict) -> dict:
    if command not in _SCHEMAS:
        raise UnknownCommand(f"unknown command {command!r}")
    schema = _SCHEMAS[command]
    config = {k: d for k, (_, d) in schema.items()}
    if cfg_path:
        with open(cfg_path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigInvalid(
                        f"{cfg_path}:{lineno}: expected key = value")
                key, raw = (s.strip() for s in line.split("=", 1))
                if key not in schema:
                    raise ConfigInvalid(
                        f"{cfg_path}:{lineno}: unknown key {key!r}")
                config[key] = parse_value(key, raw, schema[key][0])
    for key, raw in overrides.items():
        if key not in schema:
            raise ConfigInvalid(f"unknown key {key!r} for command {command!r}")
        if raw is not None:
            config[key] = parse_value(key, str(raw), schema[key][0])
    return config


def canonical_text(command: str, config: dict) -> str:
    lines = [f"command = {command}"]
    for key in sorted(config):
        lines.append(f"{key} = {config[key]!r}")
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
        periods = tuple(float(p) for p in config["periods"].split(","))
        return FlatTorus(periods)
    if kind == "einstein":
        return einstein_model(config["n"], config["a"])
    raise ConfigInvalid(f"unknown model kind {config['model']!r}")


# -- command implementations -------------------------------------------------


def _round(x, digits=14):
    if isinstance(x, dict):
        return {k: _round(v, digits) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round(v, digits) for v in x]
    if isinstance(x, np.ndarray):
        return _round(x.tolist(), digits)
    if isinstance(x, (float, np.floating)):
        return round(float(x), digits)
    if isinstance(x, (int, np.integer)):
        return int(x)
    return x


def cmd_curvature(config: dict) -> dict:
    from .curvature import curvature_pack

    m = build_model(config)
    rng = np.random.default_rng(config["seed"])
    pts = m.sample_points(config["points"], rng)
    pack = curvature_pack(m, pts)
    out = {
        "scalar_min": float(np.min(pack.scalar)),
        "scalar_max": float(np.max(pack.scalar)),
        "weyl_sup": float(np.max(np.abs(pack.weyl))),
    }
    if pack.bach is not None:
        out["bach_sup"] = float(np.max(np.abs(pack.bach)))
    return _round(out)


def cmd_vk(config: dict) -> dict:
    from .series import einstein_series, einstein_vk_exact, vk_from_series

    m = build_model(config)
    from .models import einstein_constant

    a = einstein_constant(m)
    kmax = config["kmax"] or m.n
    s = einstein_series(m, K=kmax)
    vk = vk_from_series(s)
    rows = []
    for k in range(kmax + 1):
        val = float(np.mean(vk.vk(k)))
        exact = einstein_vk_exact(m.n, a, k)
        rows.append({"k": k, "vk": val, "exact": exact,
                     "error": abs(val - exact)})
    return {"a": _round(a), "rows": _round(rows)}


def cmd_ltensor(config: dict) -> dict:
    from .series import L_tensor, einstein_L_exact, einstein_series

    m = build_model(config)
    from .models import einstein_constant

    a = einstein_constant(m)
    kmax = config["kmax"] or m.n
    s = einstein_series(m, K=kmax)
    ginv0 = np.linalg.inv(s.g0)
    rows = []
    for k in range(1, kmax + 1):
        L = L_tensor(s, k)
        exact = einstein_L_exact(m.n, a, k)
        err = float(np.max(np.abs(L.components - exact * ginv0)))
        rows.append({"k": k, "scalar_factor": exact, "residual": err})
    return {"a": _round(a), "rows": _round(rows)}


def cmd_variation(config: dict) -> dict:
    from .spectral import basis_for
    from .variation import delta_vk, first_variation_Fk, functional_Fk

    m = build_model(config)
    basis = basis_for(m, config["lmax"])
    k = config["k"]
    member = basis.members[config["member"]]
    rng = np.random.default_rng(config["seed"])
    pts = m.sample_points(4, rng)
    return _round({
        "F_k": functional_Fk(m, k),
        "first_variation": first_variation_Fk(m, k, member),
        "delta_vk_sup": float(np.max(np.abs(delta_vk(m, member, k, pts)))),
        "eigenvalue": float(basis.eigenvalues[config["member"]]),
    })


def cmd_hessian(config: dict) -> dict:
    from .spectral import basis_for
    from .variation import hessian_Fk, hessian_V

    m = build_model(config)
    basis = basis_for(m, config["lmax"])
    if config["functional"] == "V":
        form = hessian_V(m, basis)
    else:
        form = hessian_Fk(m, config["k"], basis)
    return _round({
        "functional": form.functional,
        "k": form.k,
        "classification": form.classification,
        "nullity": form.nullity,
        "eigenvalues": form.eigenvalues,
        "unit_volume_factor": form.unit_volume_factor,
    })


def cmd_signtable(config: dict) -> dict:
    from .models import HyperbolicSpace, RoundSphere
    from .spectral import sphere_basis
    from .variation import classify_sign_Fk, hessian_Fk

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

    kind = config["model"]
    if kind == "hyperbolic4":
        n = 3
    elif kind == "hyperbolic6":
        n = 5
    else:
        raise ConfigInvalid(f"rv model must be hyperbolic4 or hyperbolic6, "
                            f"got {kind!r}")
    form = hyperbolic_normal_form(RoundSphere(n, 1.0))
    exp = extract_expansion(form)
    V_bulk = renorm_volume_geodcomp(geodesic_compactification(form), n)
    out = {
        "n": n,
        "V_expansion": exp.V,
        "V_geodcomp": V_bulk,
        "cross_check_gap": abs(exp.V - V_bulk),
        "coefficients": exp.coefficients,
        "log_coefficient": exp.log_coefficient,
    }
    if n == 3:
        out["gauss_bonnet_residual"] = gauss_bonnet_4d(exp.V, 0.0, 1,
                                                       mode="AHE")
    return _round(out)


def cmd_gaussbonnet(config: dict) -> dict:
    from .models import RoundSphere, sphere_volume
    from .renorm import gauss_bonnet_4d
    from .series import v_direct

    case = config["case"]
    if case == "h4":
        resid = gauss_bonnet_4d(4.0 * pi ** 2 / 3.0, 0.0, 1, mode="AHE")
        return _round({"case": case, "chi": 1, "residual": resid})
    if case == "s4":
        m = RoundSphere(4, 1.0)
        v4 = float(v_direct(m, 2, count=2)[0])
        integral = v4 * sphere_volume(4)
        resid = gauss_bonnet_4d(integral, 0.0, 2, mode="compact")
        return _round({"case": case, "chi": 2, "v4": v4, "residual": resid})
    raise ConfigInvalid(f"gaussbonnet case must be h4 or s4, got {case!r}")


def cmd_flow(config: dict) -> dict:
    from .flow import run_flow
    from .models import FlatTorus, RoundSphere, fourier_field

    kind = config["model"]
    if kind == "torus":
        periods = tuple(float(p) for p in config["periods"].split(","))
        m = FlatTorus(periods)
        omega0 = fourier_field(m, (1,) + (0,) * (m.n - 1),
                               amplitude=config["amplitude"])
        kw = {"shape": (config["grid"],) * m.n}
    elif kind == "sphere":
        m = RoundSphere(config["n"], config["radius"])
        from .spectral import sphere_basis

        member = sphere_basis(m, lmax=2, axes_per_degree=1).members[-1]
        omega0 = lambda x: config["amplitude"] * member(x)
        kw = {}
    else:
        raise ConfigInvalid(f"flow model must be torus or sphere, got {kind!r}")
    report = run_flow(m, config["k"], omega0, tol=config["tol"],
                      max_steps=config["max_steps"], **kw)
    hist = report.variance_history
    stride = max(1, len(hist) // 200)
    return _round({
        "converged": bool(report.converged),
        "steps": report.steps,
        "accepted": report.accepted,
        "rejected": report.rejected,
        "final_constant": report.final_constant,
        "final_sup_deviation": report.final.sup_deviation,
        "volume_drift": report.volume_drift,
        "variance_history": hist[::stride],
    })


def cmd_report(config: dict) -> dict:
    paths = [p for p in config["inputs"].split(",") if p]
    if not paths:
        raise ConfigInvalid("report needs inputs = comma-separated json paths")
    lines = []
    for path in sorted(paths):
        with open(path) as fh:
            rec = json.load(fh)
        lines.append(f"## {rec['command']} ({rec['config_hash'][:12]})")
        payload = rec["payload"]
        if "rows" in payload:
            for row in payload["rows"][:200]:
                lines.append("  " + json.dumps(row, sort_keys=True))
        else:
            for key in sorted(payload):
                lines.append(f"  {key} = {json.dumps(payload[key])}")
        lines.append("")
    return {"text": "\n".join(lines)}


_COMMANDS = {
    "curvature": cmd_curvature,
    "vk": cmd_vk,
    "ltensor": cmd_ltensor,
    "variation": cmd_variation,
    "hessian": cmd_hessian,
    "signtable": cmd_signtable,
    "rv": cmd_rv,
    "gaussbonnet": cmd_gaussbonnet,
    "flow": cmd_flow,
    "report": cmd_report,
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


def payload_bytes(record: dict) -> bytes:
    return json.dumps(record["payload"], sort_keys=True).encode()


def write_outputs(record: dict, json_path: str | None, csv_path: str | None):
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(record, fh, sort_keys=True, indent=1)
            fh.write("\n")
    if csv_path:
        rows = record["payload"].get("rows")
        if rows:
            cols = list(rows[0])
            with open(csv_path, "w") as fh:
                fh.write(",".join(cols) + "\n")
                for row in rows:
                    fh.write(",".join(str(row[c]) for c in cols) + "\n")


# -- dispatch ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confvol",
        description="volume coefficients, conformal variations, and "
                    "renormalized volume on model manifolds")
    sub = parser.add_subparsers(dest="command")
    for command, schema in _SCHEMAS.items():
        p = sub.add_parser(command)
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
        if args.command is None:
            raise UnknownCommand("missing command")
        schema = _SCHEMAS[args.command]
        overrides = {k: getattr(args, k) for k in schema
                     if getattr(args, k) is not None}
        config = load_config(args.command, args.config, overrides)
        start = time.perf_counter()
        payload = _COMMANDS[args.command](config)
        record = make_record(args.command, config, payload,
                             time.perf_counter() - start)
        write_outputs(record, args.json, args.csv)
        if args.command == "report":
            sys.stdout.write(payload["text"])
        else:
            sys.stdout.write(json.dumps(record, sort_keys=True, indent=1) + "\n")
        return 0
    except (UnknownCommand, ConfigInvalid) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except _NUMERICAL_ERRORS as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    except ConfvolError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
