"""One benchmark sample: a fresh process that sets up and runs one workload.

Set-up is interpreter start, the package imports, the prime tables and the
seeded inputs.  When set-up ends the process writes `ready` (a
`time.monotonic()` stamp, comparable with the parent's launch stamp); with
`--setup-only` it stops there.  After the steps it writes `result.json`, and
with `--trace 1` also `spans.npz`, into `--dir`.  A step that raises is
recorded with its error and the remaining steps still run.

Run by run.py; by hand:
    PYTHONPATH=src python3 perfbench/child.py --workload sweep --seed 0 --dir /tmp/x
"""

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import primeavg
from primeavg import characters, cli, ergodic, gauss, maximal, multipliers, ntheory, orlicz

import workloads

LAYERS = {"ntheory": ntheory, "characters": characters, "gauss": gauss,
          "multipliers": multipliers, "maximal": maximal, "ergodic": ergodic,
          "orlicz": orlicz, "cli": cli}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--dir", type=Path, required=True)
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, LAYERS)
        root = tracer.open(tracer.kind_id("root:setup"))
    setup, steps = workloads.WORKLOADS[args.workload]
    reports = args.dir / "reports"
    reports.mkdir()
    ctx = workloads.Context(args.seed, reports)
    setup(ctx)
    if tracer:
        tracer.close(root)
    (args.dir / "ready").write_text(repr(time.monotonic()))
    if args.setup_only:
        return 0

    results = []
    t0 = time.perf_counter()
    for step in steps:
        s0 = time.perf_counter()
        if tracer:
            root = tracer.open(tracer.kind_id(f"root:step:{step.name}"))
        out = error = None
        try:
            out = step.run(ctx)
        except Exception as e:  # a failed step is counted, the run goes on
            traceback.print_exc()
            error = f"{type(e).__name__}: {e}"
        finally:
            if tracer:
                tracer.close(root)
        results.append({"name": step.name, "seconds": time.perf_counter() - s0,
                        "output": out, "error": error})
    wall = time.perf_counter() - t0

    meta = {"python": sys.version.split()[0], "numpy": np.__version__,
            "primeavg": primeavg.__file__}
    (args.dir / "result.json").write_text(json.dumps(
        {"wall_s": wall, "steps": results, "meta": meta}))
    if tracer:
        tracer.save(args.dir / "spans.npz")
    return 0


if __name__ == "__main__":
    sys.exit(main())
