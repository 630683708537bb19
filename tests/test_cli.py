"""CLI: config parsing, deterministic records, exit codes, file outputs."""

import importlib
import json
import pkgutil
import signal
import time
import warnings

import numpy as np
import pytest

import confvol
from confvol import cli, errors
from confvol.cli import (
    canonical_text,
    cli_dispatch,
    config_hash,
    load_config,
    payload_bytes,
)
from confvol.errors import NonFiniteResult
from conftest import raises_exit


def _run(capsys, *argv):
    code = cli_dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_config_defaults_and_overrides():
    cfg = load_config("vk", None, {"n": "4", "kmax": "3"})
    assert cfg["n"] == 4 and cfg["kmax"] == 3
    assert cfg["model"] == "sphere"


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n = 4\nkmax = 2  # comment\n\nradius = 2.0\n")
    cfg = load_config("vk", str(path), {})
    text = canonical_text("vk", cfg)
    # re-parsing the canonical text reproduces the same canonical text
    # (string values carry repr quotes in the canonical form; strip them)
    path2 = tmp_path / "canon.cfg"
    path2.write_text("\n".join(line.replace("'", "")
                               for line in text.splitlines()
                               if not line.startswith("command")))
    cfg2 = load_config("vk", str(path2), {})
    assert canonical_text("vk", cfg2) == text
    assert config_hash("vk", cfg2) == config_hash("vk", cfg)


def test_unknown_key_rejected_with_location(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n = 4\nbogus = 1\n")
    with raises_exit(1, "bad.cfg:2: unknown key 'bogus'"):
        load_config("vk", str(path), {})
    with raises_exit(1, "unknown key 'bogus' for command 'vk'"):
        load_config("vk", None, {"bogus": "1"})
    with raises_exit(1, "unknown command 'nonsense'"):
        load_config("nonsense", None, {})
    with raises_exit(1, "cannot parse 'not_an_int' as int"):
        load_config("vk", None, {"n": "not_an_int"})


def test_vk_command_and_determinism(capsys, tmp_path):
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    for path in (j1, j2):
        code, out, err = _run(capsys, "vk", "--n", "4", "--kmax", "3",
                              "--json", str(path))
        assert code == 0, err
    r1, r2 = json.loads(j1.read_text()), json.loads(j2.read_text())
    assert payload_bytes(r1) == payload_bytes(r2)
    assert r1["config_hash"] == r2["config_hash"]
    assert all(row["error"] < 1e-12 for row in r1["payload"]["rows"])
    assert "wallclock_seconds" not in json.dumps(r1["payload"])


def test_csv_output(capsys, tmp_path):
    csv_path = tmp_path / "t.csv"
    code, *_ = _run(capsys, "vk", "--n", "3", "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "k,vk,exact,error"
    assert len(lines) == 5      # header + k = 0..3


def test_exit_code_validation_errors(capsys):
    code, *_ = _run(capsys, "definitely-not-a-command")
    assert code == 1
    assert _run(capsys)[0] == 1     # no command at all
    code, *_ = _run(capsys, "vk", "--bogus", "1")
    assert code == 1
    code, _, err = _run(capsys, "rv", "--model", "weird")
    assert code == 1 and "error" in err
    # seed is a key of curvature and variation only; flow has no a, and
    # "--a" is not taken as a prefix of --amplitude
    assert _run(capsys, "vk", "--seed", "3")[0] == 1
    assert _run(capsys, "flow", "--a", "1")[0] == 1


def test_exit_code_out_of_range_model_keys(capsys):
    # a model key outside its range is a validation error (exit 1), never a
    # traceback or a NaN in the record
    table = [
        ("vk", "--n", "0"),
        ("vk", "--radius", "0"),
        ("vk", "--radius", "nan"),
        ("vk", "--radius", "-1"),
        ("vk", "--model", "einstein", "--a", "nan"),
        ("curvature", "--model", "torus", "--periods", ","),
        ("curvature", "--model", "torus", "--periods", "1,-1,1"),
        ("curvature", "--points", "0"),
        ("flow", "--model", "torus", "--grid", "1"),
        # v_1 = R / (2(n - 1)) is undefined on a 1-torus
        ("flow", "--model", "torus", "--periods", "1", "--k", "1"),
        ("hessian", "--model", "torus", "--periods", "1", "--k", "1", "--lmax", "2"),
        ("variation", "--member", "999"),
        ("signtable", "--nmin", "9", "--nmax", "3"),
        ("signtable", "--nmin", "1", "--nmax", "2"),
        ("flow", "--tol", "nan"),
        ("flow", "--amplitude", "inf"),
        ("flow", "--max-steps", "0"),
        ("vk", "--kmax", "-1"),
        ("ltensor", "--kmax", "-2"),
        ("hessian", "--k", "0"),
        ("variation", "--k", "0"),
        ("flow", "--k", "-1"),
        ("hessian", "--lmax", "0"),
        ("variation", "--lmax", "0"),
        ("signtable", "--lmax", "0"),
        # the default torus basis (4,912 members) is refused before it is built
        ("hessian", "--model", "torus"),
        ("hessian", "--n", "1"),
        ("hessian", "--functional", "bogus"),
        # size budgets, refused by arithmetic before anything is allocated
        ("flow", "--model", "torus", "--grid", "100000"),
        ("curvature", "--points", "1000000"),
        ("curvature", "--model", "torus", "--periods", ",".join(["1"] * 40)),
        ("vk", "--n", "300"),
        ("vk", "--model", "einstein", "--n", "600", "--kmax", "1"),
        ("ltensor", "--n", "300"),
        ("hessian", "--lmax", "100000"),
        # signtable and hessian pack 4 * n^4 Riemann entries per background
        ("signtable", "--nmin", "3", "--nmax", "200"),
        ("signtable", "--nmin", "27", "--nmax", "27"),
        ("hessian", "--n", "27"),
        ("hessian", "--model", "torus", "--periods", ",".join(["1"] * 27),
         "--functional", "V"),
        # the first variation doubles its S^n grid past the node budget
        ("variation", "--n", "6"),
        ("variation", "--n", "7"),
        # sphere flows at k >= 2 run order-2 chart jets
        ("flow", "--model", "sphere", "--n", "7", "--k", "2"),
        ("flow", "--model", "sphere", "--n", "7", "--k", "3"),
        ("flow", "--model", "sphere", "--n", "9", "--k", "3"),
        # radii and torus periods outside [1e-6, 1e6] overflow or divide by
        # zero; for einstein that is |a| outside [5e-13, 5e11]
        ("vk", "--radius", "1e300", "--n", "3"),
        ("vk", "--radius", "1e-100", "--n", "3"),
        ("curvature", "--model", "hyperbolic", "--n", "3", "--radius", "1e-300"),
        ("flow", "--model", "sphere", "--n", "3", "--radius", "1e-200"),
        ("hessian", "--model", "torus", "--periods", "1e-300,1", "--functional", "V",
         "--lmax", "1"),
        ("hessian", "--model", "einstein", "--a", "1e-300", "--n", "3"),
        ("hessian", "--model", "einstein", "--a", "1e300", "--n", "3"),
        ("variation", "--model", "einstein", "--a", "1e300", "--n", "3"),
        # numpy's default_rng takes no negative seed
        ("curvature", "--seed", "-1"),
        ("variation", "--seed", "-1"),
        # sizes of more than 4,300 digits, which str() refuses to print
        ("flow", "--model", "torus", "--periods", ",".join(["1"] * 3000),
         "--grid", "99999999999999999999"),
        ("variation", "--model", "einstein", "--a", "0", "--n", "1000000"),
    ]
    for argv in table:
        code, out, err = _run(capsys, *argv)
        assert code == 1, argv
        assert "Traceback" not in err and "NaN" not in out, argv
        assert "must be" in err, argv
    # a node count of 91 digits prints as a bound
    code, _, err = _run(capsys, "variation", "--n", "100")
    assert code == 1 and "is over 10^15; it must be at most 3000000" in err
    # sphere dimensions whose Gegenbauer coefficients leave the float range
    # are refused before scipy warns or math.gamma overflows
    for argv, message in (
            (("variation", "--n", "340"), "degree-1 Gegenbauer coefficients on S^340"),
            (("flow", "--model", "sphere", "--n", "400", "--k", "1"),
             "degree-1 Gegenbauer coefficients on S^400"),
            (("variation", "--n", "130"), "degree-2 Gegenbauer coefficients on S^130"),
            (("flow", "--model", "sphere", "--n", "130", "--k", "1"),
             "degree-2 Gegenbauer coefficients on S^130"),
            # the flow's own degree-16 zonal basis
            (("flow", "--model", "sphere", "--n", "120", "--k", "1"),
             "degree-16 Gegenbauer coefficients on S^120")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run(capsys, *argv)
        assert code == 1 and message in err and not out, argv
        assert "Traceback" not in err and not caught, argv
    # v_2 and up of a sphere flow are refused past k = 3 before (-2)^k overflows
    code, _, err = _run(capsys, "flow", "--k", "1000000")
    assert code == 1 and "cover k in 1..3" in err
    # the smallest valid values still run
    assert _run(capsys, "vk", "--n", "1")[0] == 0
    assert _run(capsys, "vk", "--kmax", "0")[0] == 0
    code, out, _ = _run(capsys, "flow", "--model", "torus", "--grid", "2")
    assert code == 0
    assert json.loads(out)["payload"]["converged"] is True


def test_unreadable_paths_and_non_records_exit_1(capsys, tmp_path):
    not_json = tmp_path / "notes.txt"
    not_json.write_text("not json\n")
    empty = tmp_path / "empty.json"
    empty.write_text("{}\n")
    missing = str(tmp_path / "missing")
    table = [
        ("vk", "--config", missing + ".cfg"),
        ("vk", "--json", str(tmp_path / "no" / "dir" / "x.json")),
        ("vk", "--csv", str(tmp_path / "no" / "dir" / "x.csv")),
        ("report", "--inputs", missing + ".json"),
        ("report", "--inputs", str(not_json)),
        ("report", "--inputs", str(empty)),
    ]
    for argv in table:
        code, _, err = _run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error: ") and "Traceback" not in err, argv


def test_exit_codes_live_on_error_classes():
    # the class is the exit code: two bases, and the three subclasses that
    # callers catch or read
    expected = {errors.ConfvolError: 1, errors.NumericalFailure: 2,
                errors.StepRejected: 2, errors.NonFiniteResult: 2,
                errors.NoConvergence: 2}
    for cls, code in expected.items():
        assert cls.exit_code == code, cls
    # no confvol module defines another subclass
    for module in pkgutil.iter_modules(confvol.__path__):
        importlib.import_module(f"confvol.{module.name}")
    found, todo = set(), [errors.ConfvolError]
    while todo:
        cls = todo.pop()
        found.add(cls)
        todo += cls.__subclasses__()
    assert {cls for cls in found if cls.__module__.startswith("confvol")} == expected.keys()


def test_non_finite_record_is_numerical_failure():
    with pytest.raises(NonFiniteResult):
        payload_bytes({"payload": {"x": float("nan")}})


def test_exit_code_numerical_failure(capsys):
    # a flow with a step budget too small to converge exits with code 2
    code, _, err = _run(capsys, "flow", "--model", "torus",
                        "--periods", "1,1,1", "--grid", "8",
                        "--max-steps", "3")
    assert code == 2
    assert "numerical failure" in err
    # a start that overflows is refused; at amplitude 50 every trial step
    # overflows and is rejected, so the flow stalls at a finite deviation
    for argv, message in (
            (("--model", "sphere", "--n", "3", "--radius", "1e-6"),
             "flow start overflows"),
            (("--model", "torus", "--periods", "1,1,1", "--amplitude", "1e300"),
             "flow start overflows"),
            (("--model", "sphere", "--n", "5", "--k", "2", "--amplitude", "1e300"),
             "metric overflows at a sampled point"),
            (("--model", "torus", "--periods", "1,1,1", "--amplitude", "50"),
             "flow stalled at sup deviation 2.246e+89"),
            # omega spans -8..40 at the nodes, each point's metric is well
            # conditioned, and every trial metric that overflows is rejected
            (("--model", "sphere", "--n", "5", "--k", "2", "--amplitude", "50",
              "--tol", "1e-4"),
             "flow stalled at sup deviation 2.922e+82 after 44 steps")):
        code, _, err = _run(capsys, "flow", *argv)
        assert code == 2, argv
        assert message in err and "Traceback" not in err, argv
    # past about lmax = 24 the monomial Gegenbauer coefficients cancel so
    # badly that the raw zonal Gram loses positive definiteness
    for argv, message in (
            (("hessian", "--n", "9", "--k", "1", "--lmax", "30"), "degree 29 on S^9"),
            (("hessian", "--n", "3", "--k", "1", "--lmax", "40"), "degree 25 on S^3"),
            (("signtable", "--lmax", "40"), "degree 25 on S^3")):
        code, _, err = _run(capsys, *argv)
        assert code == 2, argv
        assert f"raw zonal Gram of {message} is not positive definite" in err, err
        assert "Traceback" not in err, argv


def test_six_torus_grid_and_pair_stay_in_their_budgets(capsys):
    # the 728 members of T^6 at mmax = 1: the first variation doubles its
    # grid to 16^6 nodes, over the node budget; the Dir/Gram pair takes
    # 3 points per axis, 729 nodes
    torus = ("--model", "torus", "--periods", "1,1,1,1,1,1", "--lmax", "1")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, "variation", *torus)
    assert code == 1 and not out
    assert ("FlatTorus grid at resolution 16 in dimension 6 is 16777216; "
            "it must be at most 3000000") in err
    assert "Traceback" not in err and not caught
    code, out, _ = _run(capsys, "hessian", *torus)
    assert code == 0
    assert len(json.loads(out)["payload"]["eigenvalues"]) == 728


def test_hessian_command(capsys):
    code, out, _ = _run(capsys, "hessian", "--n", "5", "--k", "1",
                        "--lmax", "2")
    assert code == 0
    rec = json.loads(out)
    assert rec["payload"]["classification"].startswith("positive semi-definite")
    assert rec["payload"]["nullity"] == 6


def test_hessian_command_torus(capsys):
    # --lmax is the torus basis's mmax: 62 half-lattice modes, cos and sin each
    code, out, _ = _run(capsys, "hessian", "--model", "torus", "--k", "1",
                        "--lmax", "2")
    assert code == 0
    rec = json.loads(out)
    assert rec["payload"]["classification"] == "positive definite"
    assert len(rec["payload"]["eigenvalues"]) == 124


def test_half_dimension_names_the_cli_option(capsys):
    # F_{n/2} is conformally invariant; the message points at --functional V
    for argv in (("--n", "4", "--k", "2"),
                 ("--model", "torus", "--periods", "1,2", "--k", "1",
                  "--lmax", "2")):
        code, _, err = _run(capsys, "hessian", *argv)
        assert code == 1, argv
        assert "--functional V" in err and "Traceback" not in err, argv
    code, _, _ = _run(capsys, "hessian", "--model", "torus", "--periods", "1,2",
                      "--functional", "V", "--lmax", "2")
    assert code == 0


def test_variation_command_torus(capsys):
    code, out, _ = _run(capsys, "variation", "--model", "torus", "--lmax", "2")
    assert code == 0
    assert "first_variation" in json.loads(out)["payload"]


def test_rv_command(capsys):
    code, out, _ = _run(capsys, "rv", "--model", "hyperbolic4")
    assert code == 0
    rec = json.loads(out)
    p = rec["payload"]
    assert p["cross_check_gap"] < 1e-9
    assert p["gauss_bonnet_residual"] < 1e-9
    assert p["log_coefficient"] == 0.0


def test_rv_cross_check_gap_is_a_numerical_failure(capsys, monkeypatch):
    # the README contract: a failed internal cross-check exits 2
    from confvol import renorm

    bulk = renorm.renorm_volume_geodcomp
    monkeypatch.setattr(renorm, "renorm_volume_geodcomp",
                        lambda *args: bulk(*args) + 1e-6)
    code, _, err = _run(capsys, "rv", "--model", "hyperbolic4")
    assert code == 2
    assert err.startswith("numerical failure: rv cross-check")
    assert "Traceback" not in err


def test_series_commands_gate_their_closed_forms(capsys, monkeypatch):
    # every vk and ltensor row must sit within 1e-12 of its closed form;
    # eigenvalues off by 1e-9 move v_1 and L_(2) past that
    from confvol import series

    for argv in (("vk", "--n", "68"), ("ltensor", "--n", "30"),
                 ("ltensor", "--n", "68")):
        code, _, err = _run(capsys, *argv)
        assert code == 0, (argv, err)
    eigen = series._eigen

    def perturbed(s):
        lam, E = eigen(s)
        return lam * (1.0 + 1e-9), E

    monkeypatch.setattr(series, "_eigen", perturbed)
    for command, row in (("vk", 1), ("ltensor", 2)):
        code, _, err = _run(capsys, command, "--n", "5")
        assert code == 2, command
        assert err.startswith(f"numerical failure: {command} row k = {row} "
                              f"misses its closed form"), err
        assert "Traceback" not in err


def test_series_commands_refuse_rows_out_of_range(capsys, monkeypatch):
    # v_27 = 5e11^27 and the L_(27) scalar 5e11^26 C(39, 26) overflow, and
    # 5e-13^26 falls below the normal floats: such a row cannot be checked,
    # so kmax is refused before the series runs, naming the first such row;
    # one row fewer runs and passes
    from confvol import series

    einstein_series = series.einstein_series
    calls = []

    def counted(*args, **kw):
        calls.append(args)
        return einstein_series(*args, **kw)

    monkeypatch.setattr(series, "einstein_series", counted)
    for argv, k in ((("vk", "--radius", "1e-6", "--n", "27"), 27),
                    (("ltensor", "--radius", "1e-6", "--n", "40"), 27),
                    (("vk", "--model", "hyperbolic", "--radius", "1e6", "--n", "68"), 26),
                    (("ltensor", "--model", "hyperbolic", "--radius", "1e6", "--n", "68"), 27)):
        code, _, err = _run(capsys, *argv)
        assert code == 1 and not calls, argv
        assert f"row k = {k}: the closed form a^" in err, err
        assert f"kmax must be below {k}" in err and "Traceback" not in err, argv
        code, _, err = _run(capsys, *argv, "--kmax", str(k - 1))
        assert code == 0 and calls, (argv, err)
        calls.clear()
    # rows past k = n are exact zeros, also where a^k overflows
    code, out, _ = _run(capsys, "vk", "--radius", "1e-6", "--n", "3",
                        "--kmax", "30")
    assert code == 0
    assert all(r["vk"] == 0.0 for r in json.loads(out)["payload"]["rows"][4:])


def test_gaussbonnet_gates_its_residual(capsys, monkeypatch):
    from confvol import renorm

    assert _run(capsys, "gaussbonnet")[0] == 0
    residual = renorm.gauss_bonnet_4d
    monkeypatch.setattr(renorm, "gauss_bonnet_4d",
                        lambda *args, **kw: residual(*args, **kw) + 1e-6)
    code, _, err = _run(capsys, "gaussbonnet")
    assert code == 2
    assert err.startswith("numerical failure: the Gauss-Bonnet residual misses")


def test_payload_keeps_14_significant_digits(capsys):
    # v_k = C(20, k) 0.01^k falls to 1e-40 at k = 20; rounding to 14
    # decimal places printed every row from k = 10 on as 0
    code, out, _ = _run(capsys, "vk", "--model", "einstein", "--n", "20",
                        "--a", "0.01")
    assert code == 0
    rows = json.loads(out)["payload"]["rows"]
    assert len(rows) == 21
    for row in rows:
        assert row["vk"] != 0.0, row
        assert abs(row["vk"] - row["exact"]) <= 1e-8 * row["exact"], row


def test_report_command(capsys, tmp_path):
    j = tmp_path / "vk.json"
    code, *_ = _run(capsys, "vk", "--n", "3", "--json", str(j))
    assert code == 0
    code, out, _ = _run(capsys, "report", "--inputs", str(j))
    assert code == 0
    assert out.startswith("## vk (")
    # deterministic: a second run prints the identical text
    code, out2, _ = _run(capsys, "report", "--inputs", str(j))
    assert out2 == out


def test_one_parser_serves_successive_calls(capsys, tmp_path):
    # the parser is built once per process; no flag of one call reaches
    # the next
    record = tmp_path / "first.json"
    argv = ["hessian", "--n", "3", "--k", "1", "--lmax", "2"]
    assert _run(capsys, "hessian", "--n", "3", "--bogus", "1")[0] == 1
    code, first, _ = _run(capsys, *argv, "--json", str(record))
    assert code == 0 and record.exists()
    assert record.read_text() == first
    record.unlink()
    code, second, _ = _run(capsys, *argv)
    assert code == 0 and not record.exists()
    assert payload_bytes(json.loads(first)) == payload_bytes(json.loads(second))


# -- a seeded sweep of the exit-code contract -----------------------------------
# Each input is one command with 1-4 keys of its schema.  A key's values are
# the edge cases of its type and every default the schemas give it; three
# draws in four take a value that the key's rule in cli._RULES accepts
# (judged on the command's defaults), so most inputs pass validation and run.
# A new command, key or rule joins the sweep without an edit.  It stores no
# outputs, only the contract: exit code 0, 1 or 2, no uncaught exception, no
# NaN or Infinity on stdout and no warning.  An input still running at its
# alarm is left unjudged: a flow asked for up to 10^6 steps at a tolerance
# it cannot reach runs them all, which is no breach of the contract.

_SWEEP_EDGES = {
    int: ("-1", "0", "1", "2", "3", "5", "8", "1000000", "99999999999999999999",
          "1.5", ""),
    float: ("-1", "0", "1e-300", "1e-7", "0.3", "1", "2", "1e300", "nan", "inf",
            "-inf", ""),
    str: ("", "x", "nan", "1,2", "0,1", "1e300,1", "torus", "hyperbolic",
          "einstein", "hyperbolic6", "V"),
}
_SWEEP_SEEDS = range(8)
_SWEEP_INPUTS = 100           # per seed
_SWEEP_BUDGET_S = 5.0         # inputs past it are not run
_SWEEP_ALARM_S = 2            # an input running longer is stopped, unjudged


def _sweep_pools(command):
    """key -> (values its rule accepts, values refused), as argument strings."""
    schema = cli._COMMANDS[command][1]
    defaults = {key: default for key, (_, default) in schema.items()}
    pools = {}
    for key, (typ, _) in schema.items():
        values = set(_SWEEP_EDGES[typ]) | {
            str(other[key][1]) for _, other in cli._COMMANDS.values() if key in other}
        accepted, refused = [], []
        for raw in sorted(values):
            try:
                value = typ(raw)
            except ValueError:
                refused.append(raw)
                continue
            valid = cli._RULES.get(key, (lambda v, c: True,))[0]
            (accepted if valid(value, defaults) else refused).append(raw)
        pools[key] = (accepted, refused)
    return pools


def _sweep_inputs(seed):
    rng = np.random.default_rng(seed)
    commands = sorted(cli._COMMANDS)
    for _ in range(_SWEEP_INPUTS):
        command = commands[rng.integers(len(commands))]
        pools = _sweep_pools(command)
        argv = [command]
        keys = sorted(pools)
        for key in rng.choice(keys, min(len(keys), rng.integers(1, 5)), replace=False):
            accepted, refused = pools[key]
            side = accepted if accepted and (not refused or rng.random() < 0.75) else refused
            argv += [f"--{key.replace('_', '-')}", side[rng.integers(len(side))]]
        yield argv


class _Alarm(BaseException):
    """Raised at an input's alarm; no handler of the library catches it."""


def _alarm(signum, frame):
    raise _Alarm


def test_seeded_sweep_keeps_the_exit_code_contract(capsys):
    failures, ran = [], 0
    deadline = time.perf_counter() + _SWEEP_BUDGET_S
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for seed in _SWEEP_SEEDS:
            for argv in _sweep_inputs(seed):
                if time.perf_counter() > deadline:
                    break
                signal.alarm(_SWEEP_ALARM_S)
                try:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        try:
                            code = cli_dispatch(argv)
                        except Exception as exc:
                            code = f"uncaught {exc!r}"
                except _Alarm:
                    capsys.readouterr()
                    continue
                finally:
                    signal.alarm(0)
                ran += 1
                out = capsys.readouterr().out
                if code not in (0, 1, 2):
                    failures.append((seed, argv, code))
                if "NaN" in out or "Infinity" in out:
                    failures.append((seed, argv, "non-finite number on stdout"))
                if caught:
                    failures.append((seed, argv, [str(w.message) for w in caught]))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert ran and not failures, failures
