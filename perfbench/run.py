"""confvol benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The launcher pins BLAS/OpenMP threads to
at most the number of CPUs this process may use, then starts fresh
interpreters running worker.py:

- with ``--trace 0``: SETUP_PROBES set-up-only probes, then the measuring
  worker.  ``setup_s`` is the median, over all of them, of the wall time
  from starting the interpreter to the end of the workload's set-up.
- with ``--trace 1``: one traced worker (see worker.py).

It prints every metric by name and unit, then, as the last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
It exits non-zero without that line if the program or a worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 2
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def thread_env() -> dict:
    """Thread-count variables capped at the CPUs available to this process."""
    nproc = len(os.sched_getaffinity(0))
    env = {}
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        env[var] = str(max(1, min(current, nproc)))
    return env


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, deadline: float, probe: bool):
    """Start one worker; return (seconds to ready, result message or None)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--probe"] if probe else [])
    env = {**os.environ, **thread_env()}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if not line.startswith("@perfbench "):
                continue
            msg = json.loads(line[len("@perfbench "):])
            if msg["event"] == "ready":
                ready = time.perf_counter() - t0
            elif msg["event"] == "result":
                result = msg
    finally:
        proc.stdout.close()
        rc = proc.wait()
        timer.cancel()
    if rc != 0 or ready is None or (result is None and not probe):
        raise WorkerFailed(f"worker exited with code {rc}")
    return ready, result


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="confvol benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "confvol", "__init__.py")):
        print("error: confvol sources not found under src/", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_worker(args, deadline, probe=True)[0])
        ready, res = run_worker(args, deadline, probe=False)
        setups.append(ready)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    m = res["machine"]
    print(f"machine: nproc={m['nproc']} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} blas={m['blas']} "
          f"threads={m['thread_env']}")
    print(f"workload {res['workload']} seed {res['seed']} "
          f"(variant {res['variant']}), tasks: {', '.join(res['tasks'])}")
    print(f"rounds: {len(res['round_wall_s'])}, attempted {res['attempted']}, "
          f"failed {res['failed']}, jet tables built after set-up "
          f"{res['tables_built_after_setup']}")
    for note in res["notes"]:
        print(f"FAIL {note}")
    fail_frac = res["failed"] / res["attempted"]
    if args.trace:
        metrics = {k: metric(v, _unit(k)) for k, v in res["layers"].items()}
        metrics["fail_frac"] = metric(fail_frac, "1")
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(res["wall_s"], "s"),
            "task_p50_s": metric(res["task_p50_s"], "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }
        print(f"fail_frac = {fail_frac} 1")
    for name, v in metrics.items():
        print(f"{name} = {v['value']} {v['unit']}")
    correct = res["failed"] == 0 and res.get("counts_repeat", True)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("gflops"):
        return "GFLOP/s"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith(("_frac", "_ratio", "_share")):
        return "1"
    if name.endswith("levels"):
        return "count/call"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
