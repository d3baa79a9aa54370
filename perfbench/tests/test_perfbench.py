"""Tests of the benchmark itself, on the inputs it measures.

    python3 -m pytest perfbench/tests -q

The whole file takes one to two minutes.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 11


@pytest.fixture(scope="module")
def samples():
    """Per workload: one untraced and two traced samples with the same seed."""
    return {w: [run.run_child(w, SEED, traced)
                for traced in (False, True, True)]
            for w in workloads.WORKLOADS}


def _outputs(sample):
    return {r["name"]: r["output"] for r in sample["result"]["steps"]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_step_passes_its_check(samples, workload):
    for sample in samples[workload]:
        assert sample["exit"] == 0, sample["stderr"]
    attempted, failed, failures = run.score_steps(workload, samples[workload])
    assert attempted == 3 * len(workloads.WORKLOADS[workload][1])
    assert failed == 0, failures


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_identical(samples, workload):
    plain, traced, _ = samples[workload]
    assert _outputs(plain) == _outputs(traced)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(samples, workload):
    _, first, second = samples[workload]
    counts = [name for name, unit in spans.PER_LAYER if unit != "s" and unit != "ratio"]
    assert {n: first["layers"][n] for n in counts} == {n: second["layers"][n] for n in counts}
    assert first["layers"]["trace.spans"] > 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_self_times_account_for_traced_time(samples, workload):
    layers = samples[workload][1]["layers"]
    covered = sum(v for k, v in layers.items()
                  if k.endswith("_s") and not k.startswith("trace."))
    total = layers["trace.setup_s"] + layers["trace.wall_s"]
    assert math.isclose(covered + layers["trace.unattributed_s"], total, rel_tol=1e-9)


def test_aliases_and_fft_callers_are_traced(samples):
    sweep = samples["sweep"][1]["layers"]
    audit = samples["audit"][1]["layers"]
    # only reachable through `from .multipliers import prime_kernel` in maximal
    assert sweep["multipliers.prime_kernel_calls"] > 0
    # cli calls the audit generator through its own imported name
    assert audit["gauss.audit_self_s"] > 0
    assert sweep["maximal.fft_calls"] > 0 and sweep["ergodic.fft_s"] > 0
    assert samples["arcs"][1]["layers"]["multipliers.fft_s"] > 0
    assert audit["maximal.fft_calls"] == 0


def _worse(out, key, fn):
    bad = copy.deepcopy(out)
    bad[key] = fn(bad[key])
    return bad


CORRUPT = {
    "weak": lambda o: _worse(o, "counts", lambda c: [c[-1] + 1, *c[1:]]),
    "lp": lambda o: _worse(o, "ratios", lambda r: [math.nan, *r[1:]]),
    "orbits": lambda o: _worse(o, "late", lambda _: 2 * o["early"]),
    "transference": lambda o: _worse(o, "discrepancy", lambda d: [1, *d[1:]]),
    "b-part": lambda o: _worse(o, "norms", lambda n: n[::-1]),
    "multiplier-error": lambda o: _worse(o, "trend", lambda _: "false"),
    "residue": lambda o: _worse(o, "ratios", lambda r: [-1.0, *r[1:]]),
    "gauss-verify": lambda o: _worse(o, "failures", lambda _: 1),
    "zero-scan": lambda o: _worse(o, "found", lambda _: [7]),
    "orlicz": lambda o: _worse(o, "bounds", lambda b: [2 * o["norms"][0], *b[1:]]),
}


def _corruption(step_name):
    for prefix in sorted(CORRUPT, key=len, reverse=True):
        if step_name.startswith(prefix):
            return CORRUPT[prefix]
    raise KeyError(step_name)


@pytest.mark.parametrize("workload,step", [(w, s.name) for w, (_, steps) in
                                           workloads.WORKLOADS.items() for s in steps])
def test_checker_flags_corrupted_output(samples, workload, step):
    out = _outputs(samples[workload][0])[step]
    assert workloads.check(workload, step, out) == []
    assert workloads.check(workload, step, _corruption(step)(out))
    assert workloads.check(workload, step, None)


def test_extra_checks_flag_corruption():
    weak = {"lambda": [0.5, 0.25], "counts": [1, 2], "normalized": [0.1, math.inf]}
    assert workloads.check_weak(weak)
    me = {"exit": 0, "n": [8, 12], "errors": [0.1, 0.2], "trend": "true"}
    assert workloads.check_multiplier_error(me)  # the CLI summary is not trusted alone
    assert workloads.check_gauss_verify({"exit": 2, "checks": 5, "failures": 0,
                                         "max_err": 0.0})


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_contract_line(trace):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "audit",
                           "--seed", "3", "--seconds", "0", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert all(line.startswith("#") for line in lines[:-1])
    doc = _last_json(proc.stdout)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 3
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in names} == \
        {k: v["unit"] for k, v in doc["metrics"].items()}


def test_install_fails_when_a_traced_function_is_gone():
    # a stand-in for a gauss module whose audit loops were merged into one
    gauss = types.ModuleType("primeavg.gauss")

    def verify_quadratic(q_max):
        return q_max

    verify_quadratic.__module__ = gauss.__name__
    gauss.verify_quadratic = verify_quadratic
    with pytest.raises(LookupError, match="gauss.verify_quadratic_range"):
        spans.install(spans.Tracer(), {"gauss": gauss})


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.PER_LAYER
    grouped = {name for group in spans.GROUPS.values() for name in group if name}
    assert grouped <= {name for name, _ in spans.PER_LAYER}


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
