"""Write reference.json: the primary outputs of every workload variant.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each task of each variant once, refuses to store a variant whose
oracle checks fail, and writes the outputs at full precision.  Regenerate
only when a change is meant to alter outputs beyond the benchmark's
1e-13 relative tolerance, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from run import thread_env  # noqa: E402

os.environ.update(thread_env())

import workloads as W  # noqa: E402


def main(names) -> int:
    path = os.path.join(HERE, "reference.json")
    reference = {}
    if os.path.exists(path):
        with open(path) as fh:
            reference = json.load(fh)
    for name in names or sorted(W.WORKLOADS):
        reference[name] = {}
        for variant in range(W.VARIANTS):
            entry = {}
            for task in W.WORKLOADS[name](variant):
                t0 = time.perf_counter()
                outcome = task.run()
                failed = [label for label, ok in outcome.checks if not ok]
                if failed:
                    print(f"{name}/{variant} {task.name}: {failed}", file=sys.stderr)
                    return 1
                entry[task.name] = {k: W.to_json(v)
                                    for k, (v, _) in outcome.ref.items()}
                print(f"{name}/{variant} {task.name}: "
                      f"{time.perf_counter() - t0:.2f} s", flush=True)
            reference[name][str(variant)] = entry
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
