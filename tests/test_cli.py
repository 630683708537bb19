"""CLI: config parsing, deterministic records, exit codes, file outputs."""

import json

import pytest

from confvol.cli import (
    canonical_text,
    cli_dispatch,
    config_hash,
    load_config,
    payload_bytes,
)
from confvol.errors import ConfigInvalid, UnknownCommand


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
    code, *_ = _run(capsys, "vk", "--bogus", "1")
    assert code == 1
    code, _, err = _run(capsys, "rv", "--model", "weird")
    assert code == 1 and "error" in err


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
