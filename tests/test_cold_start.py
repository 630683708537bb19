"""Cold start: the library and the scipy-free commands import no scipy
submodule whose import dominates start-up (scipy.special, scipy.integrate)."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import contextlib, io, json, sys
import confvol.cli, confvol.flow, confvol.renorm, confvol.spectral
import confvol.quadrature, confvol.variation, confvol.series

def heavy():
    return sorted(m for m in sys.modules
                  if m.split(".")[:2] in (["scipy", "special"], ["scipy", "integrate"]))

report = {"import": heavy()}
for argv in (["vk", "--n", "5", "--kmax", "5"],
             ["ltensor", "--n", "4", "--kmax", "4"],
             ["curvature", "--n", "5"],
             ["gaussbonnet"],
             ["flow", "--model", "torus", "--periods", "1,1,1", "--k", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = confvol.cli.cli_dispatch(argv)
    report[" ".join(argv)] = [rc] + heavy()
print(json.dumps(report))
"""


def test_cold_start_loads_no_scipy_special_or_integrate():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report.pop("import") == []
    for command, (rc, *loaded) in report.items():
        assert rc == 0 and loaded == [], command
