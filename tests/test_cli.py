"""CLI: config parsing, deterministic records, exit codes, file outputs."""

import json

import pytest

from confvol import errors
from confvol.cli import (
    canonical_text,
    cli_dispatch,
    config_hash,
    load_config,
    payload_bytes,
)
from confvol.errors import ConfigInvalid, NonFiniteResult, UnknownCommand


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
    with pytest.raises(ConfigInvalid) as exc:
        load_config("vk", str(path), {})
    assert "bad.cfg:2" in str(exc.value)
    with pytest.raises(ConfigInvalid):
        load_config("vk", None, {"bogus": "1"})
    with pytest.raises(UnknownCommand):
        load_config("nonsense", None, {})
    with pytest.raises(ConfigInvalid):
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
    ]
    for argv in table:
        code, out, err = _run(capsys, *argv)
        assert code == 1, argv
        assert "Traceback" not in err and "NaN" not in out, argv
        assert "must be" in err, argv
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
    numerical = {"NoConvergence", "StepRejected", "IllConditionedFit",
                 "GridResolutionInsufficient", "NonFiniteResult",
                 "NonPositiveDefinite", "NotCritical", "NotTotallyGeodesic"}
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.ConfvolError)}
    assert numerical <= classes.keys()
    for name, cls in classes.items():
        # NumericalFailure is the base the eight numerical classes share
        expected = 2 if name in numerical | {"NumericalFailure"} else 1
        assert cls.exit_code == expected, name


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
