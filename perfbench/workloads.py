"""The three workloads: seeded inputs, steps, and per-step property checks.

Every random input is drawn here from the workload seed; the package only
receives the generated signals, sets, starts and step functions.  A step
returns a small JSON-ready dict, and its check returns the list of
properties that dict breaks (empty when the step is correct).  The checks
test the properties that the acceptance criteria and CLI summaries assert,
not byte digests: the report digests are carried as information only.

Steps that have no random input go through `cli.run`, writing their report
into the run's temporary directory, so the CLI layer is measured as users
meet it.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from primeavg import characters, cli, ergodic, maximal, ntheory, orlicz

# Input sizes: one sample takes 4-6 s on a 2-core Xeon VM.
SIZES = {
    "weak_n_max": 18, "lp_signals": 8, "lp_support": 256, "lp_n_max": 14,
    "orbit_n_max": 20, "orbit_starts": 100,
    "transfer_samples": 4, "transfer_R": 8000, "transfer_L": 256,
    "arcs_resolution": 1 << 18, "arcs_n_max": 17,
    "error_n_max": 20, "injected_n_max": 16,
    "gauss_q_max": 120, "scan_q_max": 150, "orlicz_batch": 100,
}

WEAK_SETS = (("interval", 1024), ("interval", 2048), ("random", 1024),
             ("random", 2048), ("primes", 4096), ("primes", 8192))
LP_EXPONENTS = (1.25, 1.5, 2.0)
B_PART_T = (4.0, 9.0, 16.0)
INJECT_Q, INJECT_BETA = 5, 0.9
RESIDUE = {"Q": 4, "s": 1, "beta": 0.75, "n_max": 10, "resolution": 1 << 14,
           "support": 512}


@dataclass(frozen=True)
class Step:
    name: str
    run: Callable[["Context"], dict]
    check: Callable[[dict], list]


class Context:
    """What the steps of one process share: seed, tables, inputs, report dir."""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.tables: dict = {}
        self.inputs: dict = {}

    def rng(self, *tag: int) -> np.random.Generator:
        return np.random.default_rng([self.seed % (1 << 63), *tag])


# --- helpers ---


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _cli(ctx: Context, name: str, argv: list[str]) -> tuple[int, Path]:
    out = ctx.tmp / f"{name}.csv"
    code = cli.run([*argv, "--threads", "1", "--out", str(out)])
    return code, out


def _read_report(path: Path) -> tuple[list[list[str]], dict]:
    """Data rows (header dropped) and the summary of a CSV report, if any."""
    rows, summary, seen_header = [], {}, False
    if not path.exists():
        return rows, summary
    with path.open(newline="") as fh:
        for line in csv.reader(fh):
            if line[0].startswith("# "):
                if seen_header:
                    summary[line[0][2:]] = line[1]
            elif not seen_header:
                seen_header = True
            else:
                rows.append(line)
    return rows, summary


def _report_info(code: int, path: Path) -> dict:
    info = {"exit": code, "report_bytes": 0, "digest": None}
    if path.exists():
        data = path.read_bytes()
        info["report_bytes"] = len(data)
        info["digest"] = hashlib.sha256(data).hexdigest()[:16]
    return info


def _check_exit(out: dict) -> list[str]:
    return [] if out.get("exit", 0) == 0 else [f"exit code {out['exit']}"]


# --- sweep: dyadic maximal functions of indicators and random signals ---


def _setup_sweep(ctx: Context) -> None:
    z = SIZES
    ctx.tables["weak"] = ntheory.sieve_primes((1 << z["weak_n_max"]) + 1)
    ctx.tables["orbit"] = ntheory.sieve_primes((1 << z["orbit_n_max"]) + 1)
    for size in (1024, 2048):
        vals = (ctx.rng(1, size).random(8 * size) < 0.125).astype(np.float64)
        vals[0] = 1.0  # never empty
        ctx.inputs[f"random-{size}"] = maximal.Signal(offset=0, values=vals)
    rng = ctx.rng(2)
    signals = []
    for _ in range(z["lp_signals"]):
        v = rng.standard_normal(z["lp_support"]) + 1j * rng.standard_normal(z["lp_support"])
        signals.append(maximal.Signal(offset=0, values=v / np.linalg.norm(v)))
    ctx.inputs["lp"] = signals
    ctx.inputs["starts"] = [float(x) for x in ctx.rng(3).random(z["orbit_starts"])]
    rng = ctx.rng(4)
    ctx.inputs["transfer"] = [
        (float(rng.random()) * 0.9, 0.05 + float(rng.random()) * 0.4, float(rng.random()))
        for _ in range(z["transfer_samples"])]


def _weak_cli(family: str, size: int) -> Callable[[Context], dict]:
    def run(ctx: Context) -> dict:
        code, path = _cli(ctx, f"weak-{family}-{size}", [
            "weak-type-sweep", "--family", family, "--size", str(size),
            "--n-max", str(SIZES["weak_n_max"])])
        out = _report_info(code, path)
        rows, _ = _read_report(path)
        out["lambda"] = [float(r[0]) for r in rows]
        out["counts"] = [int(r[1]) for r in rows]
        out["normalized"] = [float(r[2]) for r in rows]
        return out
    return run


def _weak_random(size: int) -> Callable[[Context], dict]:
    def run(ctx: Context) -> dict:
        rep = maximal.weak_type_sweep(ctx.inputs[f"random-{size}"],
                                      maximal.default_lambda_grid(10),
                                      SIZES["weak_n_max"], ctx.tables["weak"])
        return {"lambda": [float(x) for x in rep.lambda_grid],
                "counts": [int(c) for c in rep.counts],
                "normalized": [float(x) for x in rep.normalized]}
    return run


def check_weak(out: dict) -> list[str]:
    errs = _check_exit(out)
    counts = [c for _, c in sorted(zip(out["lambda"], out["counts"]))]
    if not counts:
        errs.append("no superlevel counts")
    if any(b > a for a, b in zip(counts, counts[1:])):
        errs.append("superlevel counts increase with lambda")
    if any(c < 0 for c in counts):
        errs.append("negative superlevel count")
    if not _finite(out["normalized"]):
        errs.append("non-finite normalized count")
    return errs


def _lp(ctx: Context) -> dict:
    table = ctx.tables["weak"]
    return {"ratios": [maximal.lp_maximal_ratio(f, p, SIZES["lp_n_max"], table)
                       for f in ctx.inputs["lp"] for p in LP_EXPONENTS]}


def check_lp(out: dict) -> list[str]:
    r = out["ratios"]
    return [] if r and _finite(r) and min(r) > 0 else ["ratios not finite and positive"]


def _orbits(ctx: Context) -> dict:
    n_max = SIZES["orbit_n_max"]
    golden = ergodic.DynamicalSystem.rotation("golden")
    f = ergodic.interval_indicator(0.0, 0.5)
    early, late = [], []
    for x0 in ctx.inputs["starts"]:
        tr = ergodic.convergence_diagnostic(golden, f, x0, n_max, ctx.tables["orbit"],
                                            reference=0.5)
        early.append(float(tr.distances[n_max // 2 - 1]))
        late.append(float(tr.distances[n_max - 1]))
    return {"early": float(np.median(early)), "late": float(np.median(late))}


def check_orbits(out: dict) -> list[str]:
    if not _finite([out["early"], out["late"]]):
        return ["non-finite orbit distance"]
    return [] if out["late"] < out["early"] else ["orbit averages do not converge"]


def _transference(ctx: Context) -> dict:
    z = SIZES
    golden = ergodic.DynamicalSystem.rotation("golden")
    equal, gaps = [], []
    for a, width, x0 in ctx.inputs["transfer"]:
        res = ergodic.transference_sample(golden,
                                          ergodic.interval_indicator(a, (a + width) % 1.0),
                                          x0, R=z["transfer_R"], L=z["transfer_L"],
                                          table=ctx.tables["weak"])
        equal.append(bool(res.counts_equal))
        gaps.append(int(res.identity_discrepancy))
    return {"counts_equal": equal, "discrepancy": gaps}


def check_transference(out: dict) -> list[str]:
    errs = []
    if not all(out["counts_equal"]):
        errs.append("orbit and integer superlevel counts differ")
    if any(out["discrepancy"]):
        errs.append("nonzero transference identity discrepancy")
    return errs


# --- arcs: major-arc multiplier grids ---


def _setup_arcs(ctx: Context) -> None:
    z = SIZES
    # the tables multiplier-error sieves for itself, so their cost is set-up
    ctx.tables["error"] = ntheory.sieve_primes((1 << z["error_n_max"]) + 1)
    ctx.tables["injected"] = ntheory.sieve_primes((1 << z["injected_n_max"]) + 1)
    ctx.tables["b-part"] = ntheory.sieve_primes((1 << z["arcs_n_max"]) + 1)
    rng = ctx.rng(5)
    v = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    ctx.inputs["b-part"] = maximal.Signal(offset=0, values=v / np.linalg.norm(v))
    v = ctx.rng(6).standard_normal(RESIDUE["support"])
    ctx.inputs["residue"] = maximal.Signal(offset=0, values=v / np.linalg.norm(v))


def _b_part(ctx: Context) -> dict:
    norms = [maximal.b_part_maximal_l2(t, ctx.inputs["b-part"], SIZES["arcs_n_max"],
                                       ctx.tables["b-part"],
                                       resolution=SIZES["arcs_resolution"])
             for t in B_PART_T]
    return {"t": list(B_PART_T), "norms": [float(x) for x in norms]}


def check_b_part(out: dict) -> list[str]:
    n = out["norms"]
    if not (_finite(n) and min(n) > 0):
        return ["B-part norms not finite and positive"]
    return [] if all(b < a for a, b in zip(n, n[1:])) else ["B-part norms not decreasing in t"]


def _multiplier_error(injected: bool) -> Callable[[Context], dict]:
    def run(ctx: Context) -> dict:
        n_max = SIZES["injected_n_max" if injected else "error_n_max"]
        argv = ["multiplier-error", "--n-min", "8", "--n-max", str(n_max)]
        if injected:
            argv += ["--inject-q", str(INJECT_Q), "--inject-beta", str(INJECT_BETA)]
        code, path = _cli(ctx, "multiplier-error" + ("-injected" if injected else ""), argv)
        out = _report_info(code, path)
        rows, summary = _read_report(path)
        out["n"] = [int(r[0]) for r in rows]
        out["errors"] = [float(r[3]) for r in rows]
        out["trend"] = summary.get("trend_decreasing_by_4")
        return out
    return run


def check_multiplier_error(out: dict) -> list[str]:
    errs = _check_exit(out)
    e = dict(zip(out["n"], out["errors"]))
    if not e or not _finite(e.values()):
        errs.append("sup errors missing or not finite")
    if out["trend"] != "true" or any(e[n + 4] >= e[n] for n in e if n + 4 in e):
        errs.append("E(n + 4) < E(n) fails")
    return errs


def _residue(ctx: Context) -> dict:
    r = RESIDUE
    ratios = [maximal.residue_equidistribution(ctx.inputs["residue"], r["Q"], res, r["s"],
                                               r["beta"], r["n_max"],
                                               resolution=r["resolution"])["ratio"]
              for res in range(1, r["Q"] + 1)]
    return {"ratios": [float(x) for x in ratios]}


def check_residue(out: dict) -> list[str]:
    r = out["ratios"]
    return [] if r and _finite(r) and min(r) > 0 else ["residue ratios not finite and positive"]


# --- audit: exhaustive Gauss-sum and L-function checks, Orlicz norms ---


def _setup_audit(ctx: Context) -> None:
    rng = ctx.rng(7)
    batch = []
    for _ in range(SIZES["orlicz_batch"]):
        k = int(rng.integers(3, 16))
        meas = rng.random(k)
        batch.append(list(zip(rng.lognormal(0.0, 2.0, size=k).tolist(),
                              (meas / meas.sum()).tolist())))
    ctx.inputs["orlicz"] = batch


def _gauss_verify(ctx: Context) -> dict:
    code, path = _cli(ctx, "gauss-verify",
                      ["gauss-verify", "--q-max", str(SIZES["gauss_q_max"])])
    out = _report_info(code, path)
    _, summary = _read_report(path)
    out["checks"] = int(summary.get("checks", 0))
    out["failures"] = int(summary.get("failures", -1))
    out["max_err"] = float(summary.get("max_err", "nan"))
    return out


def check_gauss_verify(out: dict) -> list[str]:
    errs = _check_exit(out)
    if out["failures"] != 0:
        errs.append(f"audit failures: {out['failures']}")
    if out["checks"] <= 0 or not math.isfinite(out["max_err"]):
        errs.append("audit report incomplete")
    return errs


def _zero_scan(ctx: Context) -> dict:
    found, min_abs = [], math.inf
    for q in range(3, SIZES["scan_q_max"] + 1):
        res = characters.exceptional_zero_scan(q, c=1.0)
        if res.found:
            found.append(q)
        min_abs = min(min_abs, float(res.min_abs_l))
    return {"found": found, "min_abs_l": min_abs}


def check_zero_scan(out: dict) -> list[str]:
    errs = [f"real zero reported for q = {q}" for q in out["found"]]
    if not (math.isfinite(out["min_abs_l"]) and out["min_abs_l"] > 0):
        errs.append("min |L| not finite and positive")
    return errs


def _orlicz(ctx: Context) -> dict:
    norms, bounds = [], []
    for pairs in ctx.inputs["orlicz"]:
        r = orlicz.decreasing_rearrangement(pairs)
        norms.append(float(orlicz.orlicz_norm(r)))
        bounds.append(float(orlicz.layer_lower_bound(r)))
    return {"norms": norms, "bounds": bounds}


def check_orlicz(out: dict) -> list[str]:
    errs = []
    if not (_finite(out["norms"]) and min(out["norms"]) > 0):
        errs.append("Orlicz norms not finite and positive")
    if any(b > n + 1e-12 for n, b in zip(out["norms"], out["bounds"])):
        errs.append("layer lower bound exceeds the norm")
    return errs


WORKLOADS = {
    "sweep": (_setup_sweep, [
        *[Step(f"weak-{fam}-{size}",
               _weak_random(size) if fam == "random" else _weak_cli(fam, size), check_weak)
          for fam, size in WEAK_SETS],
        Step("lp", _lp, check_lp),
        Step("orbits", _orbits, check_orbits),
        Step("transference", _transference, check_transference),
    ]),
    "arcs": (_setup_arcs, [
        Step("b-part", _b_part, check_b_part),
        Step("multiplier-error", _multiplier_error(False), check_multiplier_error),
        Step("multiplier-error-injected", _multiplier_error(True), check_multiplier_error),
        Step("residue", _residue, check_residue),
    ]),
    "audit": (_setup_audit, [
        Step("gauss-verify", _gauss_verify, check_gauss_verify),
        Step("zero-scan", _zero_scan, check_zero_scan),
        Step("orlicz", _orlicz, check_orlicz),
    ]),
}


def check(workload: str, step_name: str, out: dict | None) -> list[str]:
    """Failures of one step's output; a missing output is a failure."""
    if out is None:
        return ["no output"]
    step = next(s for s in WORKLOADS[workload][1] if s.name == step_name)
    try:
        return step.check(out)
    except (KeyError, TypeError, ValueError) as e:
        return [f"malformed output: {type(e).__name__}: {e}"]
