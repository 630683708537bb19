"""One benchmark process: set up a workload, then run its task list.

Started by run.py in a fresh interpreter.  It reports on stdout, one JSON
object per line prefixed with ``@perfbench``: ``ready`` once set-up is
done, then ``result``.  With ``--probe`` it stops after ``ready``.

Untraced (``--trace 0``), rounds of the whole task list run back to back,
one task at a time, for about ``--seconds`` (at least one round).
Traced (``--trace 1``), two untraced rounds are followed by two rounds with
the tracer installed; task outputs must be byte-identical across the four
rounds and every count must repeat exactly between the two traced rounds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads as W  # noqa: E402
from confvol import jets  # noqa: E402
from tracer import Tracer  # noqa: E402

PROTO = sys.stdout
RESULTS = os.path.join(HERE, "results")
REFERENCE = os.path.join(HERE, "reference.json")


def emit(event: str, **fields):
    PROTO.write("@perfbench " + json.dumps({"event": event, **fields}) + "\n")
    PROTO.flush()


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def fingerprint(value) -> bytes:
    """Canonical bytes of a task's outputs, to compare runs exactly."""
    if isinstance(value, np.ndarray):
        return value.dtype.str.encode() + repr(value.shape).encode() + value.tobytes()
    if isinstance(value, dict):
        return b"{" + b",".join(k.encode() + b":" + fingerprint(value[k])
                                for k in sorted(value)) + b"}"
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(fingerprint(v) for v in value) + b"]"
    return repr(value).encode()


def run_round(tasks, reference, tracer=None) -> list:
    """Run every task once, in order; time, check and fingerprint each."""
    records = []
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
        t0 = time.perf_counter()
        try:
            outcome = task.run()
        except Exception as exc:  # a failing task is counted, not fatal
            records.append({"time": time.perf_counter() - t0, "digest": None,
                            "problems": [f"{type(exc).__name__}: {exc}"]})
            continue
        elapsed = time.perf_counter() - t0
        problems = [label for label, ok in outcome.checks if not ok]
        misses = W.reference_misses(outcome.ref, reference.get(task.name, {}))
        if misses:
            problems.append("differs from reference: " + ", ".join(misses))
        records.append({
            "time": elapsed,
            "digest": hashlib.sha256(fingerprint(outcome.outputs)).hexdigest(),
            "problems": problems})
    return records


def tally(tasks, rounds) -> tuple[int, int, list]:
    """Tasks attempted and failed.  A task fails on an exception, a missed
    check or reference, or outputs that differ from its first round."""
    attempted = failed = 0
    notes = []
    for r, records in enumerate(rounds):
        for task, rec, first in zip(tasks, records, rounds[0]):
            attempted += 1
            problems = list(rec["problems"])
            if rec["digest"] is not None and rec["digest"] != first["digest"]:
                problems.append("outputs differ from round 0")
            if problems:
                failed += 1
                notes.append(f"round {r} {task.name}: " + "; ".join(problems))
    return attempted, failed, notes


def _walls(rounds):
    return [sum(rec["time"] for rec in records) for records in rounds]


def measure(tasks, reference, seconds: float) -> dict:
    rounds = []
    start = time.perf_counter()
    elapsed = 0.0
    # one more round while it is expected to end less than half a round
    # past ``seconds``
    while not rounds or elapsed + 0.5 * elapsed / len(rounds) < seconds:
        rounds.append(run_round(tasks, reference))
        elapsed = time.perf_counter() - start
    attempted, failed, notes = tally(tasks, rounds)
    return {
        "attempted": attempted, "failed": failed, "notes": notes,
        "round_wall_s": _walls(rounds),
        "task_s": [[rec["time"] for rec in records] for records in rounds],
        "wall_s": statistics.median(_walls(rounds)),
        "task_p50_s": statistics.median(
            rec["time"] for records in rounds for rec in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(setup: dict, traced: list, walls: list, base_wall: float) -> dict:
    """Per-layer metrics of one traced round (self times averaged over the
    traced rounds; counts are equal between them)."""
    calls = traced[-1]["calls"]
    counts = traced[-1]["counts"]

    def self_s(name):
        return statistics.fmean(d["self_s"].get(name, 0.0) for d in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    mul_s = self_s("jets.mul")
    steps = calls.get("flow.step", 0)
    out = {
        "jets.mul.calls": calls.get("jets.mul", 0),
        "jets.mul.self_s": mul_s,
        "jets.mul.pair_flops": counts["jets.mul.pair_flops"],
        "jets.mul.bytes_computed": counts["jets.mul.bytes_computed"],
        # one pair is a multiply and an add
        "jets.mul.gflops": ratio(2.0 * counts["jets.mul.pair_flops"], mul_s) / 1e9,
        "jets.mul.wall_share": ratio(mul_s, statistics.fmean(walls)),
        "jets.diff.self_s": self_s("jets.diff"),
        "jets.jet_space.build_s": setup["self_s"].get("jets.jet_space", 0.0)
        + self_s("jets.jet_space"),
        "models.chart.calls": calls.get("models.chart", 0),
        "models.chart.self_s": self_s("models.chart"),
        "curvature.pack.calls": calls.get("curvature.pack", 0),
        "curvature.pack.points": counts["curvature.pack.points"],
        "curvature.pack.order4_calls": counts["curvature.pack.order4_calls"],
        "curvature.pack.self_s": self_s("curvature.pack"),
        "curvature.laplacian.self_s": self_s("curvature.laplacian"),
        "curvature.sigma_k.self_s": self_s("curvature.sigma_k"),
        "series.v_direct.calls": calls.get("series.v_direct", 0),
        "series.v_direct.self_s": self_s("series.v_direct"),
        "spectral.basis.self_s": self_s("spectral.basis"),
        "spectral.pair_matrices.self_s": self_s("spectral.pair_matrices"),
        "spectral.field_eval.calls": calls.get("spectral.field_eval", 0),
        "spectral.field_eval.self_s": self_s("spectral.field_eval"),
        "quadrature.grid.calls": calls.get("quadrature.grid", 0),
        "quadrature.grid.nodes": counts["quadrature.grid.nodes"],
        "quadrature.grid.self_s": self_s("quadrature.grid"),
        "quadrature.integrate.calls": calls.get("quadrature.integrate", 0),
        "quadrature.integrate.levels": ratio(calls.get("quadrature.level", 0),
                                             calls.get("quadrature.integrate", 0)),
        "variation.hessian.calls": calls.get("variation.hessian", 0),
        "variation.hessian.self_s": self_s("variation.hessian"),
        "variation.delta_vk.self_s": self_s("variation.delta_vk"),
        "variation.first_variation.self_s": self_s("variation.first_variation"),
        "renorm.expansion.self_s": self_s("renorm.expansion"),
        "renorm.truncated_volume.calls": calls.get("renorm.truncated_volume", 0),
        "renorm.geodcomp.self_s": self_s("renorm.geodcomp"),
        "flow.steps": steps,
        "flow.accepted": counts["flow.accepted"],
        "flow.rejected": counts["flow.rejected"],
        "flow.accept_ratio": ratio(counts["flow.accepted"], steps),
        "flow.vk.calls": calls.get("flow.vk", 0),
        "flow.vk.self_s": self_s("flow.vk"),
        "flow.step.self_s": self_s("flow.step"),
        "cli.dispatch.calls": calls.get("cli.dispatch", 0),
        "cli.dispatch.self_s": self_s("cli.dispatch"),
        "trace.overhead_frac": statistics.fmean(walls) / base_wall - 1.0,
    }
    return out


def traced_run(tasks, reference, tracer: Tracer, setup: dict) -> dict:
    # the first round warms caches and the allocator; the second is the
    # untraced base that trace.overhead_frac compares with
    rounds = [run_round(tasks, reference) for _ in range(2)]
    deltas = []
    tracer.install()
    try:
        for _ in range(2):
            before = tracer.snapshot()
            rounds.append(run_round(tasks, reference, tracer))
            deltas.append(Tracer.delta(tracer.snapshot(), before))
    finally:
        tracer.uninstall()
    attempted, failed, notes = tally(tasks, rounds)
    repeat = (deltas[0]["calls"] == deltas[1]["calls"]
              and deltas[0]["counts"] == deltas[1]["counts"])
    if not repeat:
        notes.append("counts differ between the two traced rounds")
    walls = _walls(rounds)
    return {
        "attempted": attempted, "failed": failed, "notes": notes,
        "counts_repeat": repeat, "round_wall_s": walls,
        "layers": layer_metrics(setup, deltas, walls[2:], walls[1]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="stop once set-up is done")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    variant = W.variant_of(args.seed)
    try:
        tasks = W.WORKLOADS[args.workload](variant)
    finally:
        if tracer is not None:
            tracer.uninstall()
    emit("ready")
    if args.probe:
        return 0
    setup = tracer.snapshot() if tracer is not None else None

    with open(REFERENCE) as fh:
        reference = json.load(fh)[args.workload][str(variant)]
    tables = jets.jet_space.cache_info().currsize
    if tracer is None:
        result = measure(tasks, reference, args.seconds)
    else:
        result = traced_run(tasks, reference, tracer, setup)
    # jet tables the set-up did not build, so their cost is not in setup_s
    result["tables_built_after_setup"] = jets.jet_space.cache_info().currsize - tables
    result.update(workload=args.workload, seed=args.seed, variant=variant,
                  tasks=[t.name for t in tasks], machine=machine_info())
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1)
    if tracer is not None:
        tracer.dump(stem + ".spans.json",
                    {"workload": args.workload, "seed": args.seed,
                     "rounds": "setup, then two traced rounds"})
    emit("result", **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
