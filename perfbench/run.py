"""primeavg benchmark: closed-loop batch workloads, one fresh process per sample.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Runs one client in a closed loop: it starts a fresh single-threaded child
process (child.py), waits for it, and starts the next while that one is
expected to end within `--seconds` (at the median sample duration so far).  An
untraced run takes at least three samples, and after each one it starts two
more children that only set up, so that `setup_s` is a median over three
times as many set-ups.  With `--trace 1`, untraced and traced children
alternate and at least one of each runs.  Every child gets its own empty
temporary directory inside the checkout for reports and for
PRIMEAVG_CACHE_DIR, and BLAS/OpenMP threads pinned to 1.

Each step's output is checked against the properties its acceptance
criterion or CLI summary asserts, and must equal the first sample's output
(the same seed gives the same inputs).  Every line but the last starts with
`#` and reports medians, quartiles and sample counts; the last line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "primeavg" / "__init__.py").is_file():
    sys.exit(f"perfbench: no primeavg sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

TMP = ROOT / ".perfbench_tmp"
HARD_LIMIT_S = 170.0  # the whole run, children included, ends within this
MIN_UNTRACED = 3
SETUP_ONLY_PER_SAMPLE = 2

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def _env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.update({"PYTHONPATH": str(ROOT / "src"), "PRIMEAVG_CACHE_DIR": str(tmp / "cache"),
                "PYTHONHASHSEED": "0"})
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap the child (killing it past the deadline); returns its rusage."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        time.sleep(0.01)


def run_child(workload: str, seed: int, traced: bool, deadline: float | None = None,
              setup_only: bool = False) -> dict:
    """Run one sample in a fresh process and collect what it measured."""
    TMP.mkdir(exist_ok=True)
    d = Path(tempfile.mkdtemp(dir=TMP))
    try:
        (d / "cache").mkdir()
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(int(traced)), "--dir", str(d)]
        if setup_only:
            cmd.append("--setup-only")
        with open(d / "stdout", "wb") as out, open(d / "stderr", "wb") as err:
            launched = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(d), stdout=out, stderr=err)
            try:
                usage = _wait(proc, deadline or launched + HARD_LIMIT_S)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        sample = {"traced": traced, "exit": proc.returncode,
                  "elapsed_s": time.monotonic() - launched,
                  "cpu_s": usage.ru_utime + usage.ru_stime,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0,
                  "setup_s": None, "result": None, "layers": None,
                  "stderr": (d / "stderr").read_text(errors="replace")[-2000:]}
        if (d / "ready").exists():
            sample["setup_s"] = float((d / "ready").read_text()) - launched
        if proc.returncode == 0 and (d / "result.json").exists():
            sample["result"] = json.loads((d / "result.json").read_text())
            if traced:
                with np.load(d / "spans.npz") as data:
                    sample["layers"] = spans.derive(data)
                sample["layers"]["cli.report_bytes"] = float(sum(
                    (r["output"] or {}).get("report_bytes", 0)
                    for r in sample["result"]["steps"]))
        return sample
    finally:
        shutil.rmtree(d, ignore_errors=True)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def score_steps(workload: str, samples: list[dict]) -> tuple[int, int, dict]:
    """(attempted, failed, failures by step) over all samples.

    A step fails if it raised, its process died, its output breaks its
    property check, or its output differs from the first sample's.
    """
    names = [s.name for s in workloads.WORKLOADS[workload][1]]
    attempted = failed = 0
    reference: dict = {}
    failures: dict = {}
    for sample in samples:
        got = {r["name"]: r for r in (sample["result"] or {}).get("steps", [])}
        for name in names:
            attempted += 1
            r = got.get(name)
            if r is None:
                errs = [f"process exited with {sample['exit']}"]
            elif r["error"]:
                errs = [r["error"]]
            else:
                errs = workloads.check(workload, name, r["output"])
                ref = reference.setdefault(name, r["output"])
                if r["output"] != ref:
                    errs.append("output differs from the first sample")
            if errs:
                failed += 1
                failures.setdefault(name, errs)
    return attempted, failed, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    samples: list[dict] = []
    setups: list[dict] = []  # set-up-only children
    rounds: list[float] = []  # a sample and the set-up-only children after it
    while True:
        round_start = time.monotonic()
        traced = bool(args.trace) and len(samples) % 2 == 1
        samples.append(run_child(args.workload, args.seed, traced, deadline))
        if not args.trace:
            setups += [run_child(args.workload, args.seed, False, deadline, setup_only=True)
                       for _ in range(SETUP_ONLY_PER_SAMPLE)]
        for s in (samples[-1], *setups[-SETUP_ONLY_PER_SAMPLE:]):
            if s["exit"] != 0:
                sys.stderr.write(s["stderr"])
        rounds.append(time.monotonic() - round_start)
        # stop when the next round would likely end past --seconds, once
        # the minimum samples are in; never risk the hard limit
        elapsed = time.monotonic() - start
        if elapsed + max(rounds) > HARD_LIMIT_S:
            break
        next_end = elapsed + statistics.median(rounds)
        n_traced = sum(s["traced"] for s in samples)
        n_plain = len(samples) - n_traced
        if next_end > args.seconds and n_traced >= args.trace \
                and n_plain >= (1 if args.trace else MIN_UNTRACED):
            break

    done = [s for s in samples if s["result"] is not None]
    plain = [s for s in done if not s["traced"]]
    traced_done = [s for s in done if s["traced"]]
    if not plain or (args.trace and not traced_done):
        print("perfbench: no sample completed; nothing to report", file=sys.stderr)
        return 1
    attempted, failed, failures = score_steps(args.workload, samples)

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "commit": _commit(), "nproc": os.cpu_count(), "threads": 1, **plain[0]["result"]["meta"],
            "samples": len(samples), "traced_samples": sum(s["traced"] for s in samples),
            "setup_only_samples": len(setups)}
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name in failures:
        print(f"# FAILED step {name}: {'; '.join(failures[name])}")
    print(f"# error_rate {failed}/{attempted} = {failed / attempted:.4g}")
    for i, step in enumerate(plain[0]["result"]["steps"]):
        _, med, _ = _quartiles([s["result"]["steps"][i]["seconds"] for s in plain])
        print(f"# step {step['name']}: median {med:.4f} s")

    walls = [s["result"]["wall_s"] for s in plain]
    if args.trace:
        names = spans.PER_LAYER
        values = {name: [s["layers"][name] for s in traced_done] for name, _ in names}
        ratio = (statistics.median(s["result"]["wall_s"] for s in traced_done)
                 / statistics.median(walls))
        values["trace.overhead_ratio"] = [ratio]
    else:
        names = END_TO_END
        values = {"wall_s": walls,
                  "cpu_s": [s["cpu_s"] for s in plain],
                  "setup_s": [s["setup_s"] for s in (*plain, *setups)
                            if s["exit"] == 0 and s["setup_s"] is not None],
                  "peak_rss_mb": [s["peak_rss_mb"] for s in plain]}
    metrics = {}
    for name, unit in names:
        q1, med, q3 = _quartiles(values[name])
        print(f"# {name}: median {med:.6g} {unit}, q1 {q1:.6g}, q3 {q3:.6g}, "
              f"n={len(values[name])}")
        metrics[name] = {"value": med, "unit": unit}
    if args.trace:
        first = traced_done[0]["layers"]
        covered = sum(v for k, v in first.items()
                      if k.endswith("_s") and not k.startswith("trace."))
        print(f"# first traced sample: layer self times {covered:.4f} s + unattributed "
              f"{first['trace.unattributed_s']:.4f} s = traced setup + wall "
              f"{first['trace.setup_s'] + first['trace.wall_s']:.4f} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
