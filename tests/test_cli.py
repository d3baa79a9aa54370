"""End-to-end CLI runs through run(), covering exit codes and report shape.

Everything runs in-process with small parameter choices; reports land in
tmp_path and are parsed back to check structure and determinism.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import primeavg.cli as cli
import primeavg.ntheory as ntheory
import primeavg.gauss as gs
import primeavg.orlicz as oz


def _run(*argv) -> int:
    return cli.run(list(argv))


def _read_json(path):
    return json.loads(path.read_text())


# --- exit codes ---


def test_no_arguments_is_usage_error(capsys):
    assert _run() == 1
    assert _run("no-such-command") == 1


def test_bad_flag_value_is_usage_error():
    assert _run("gauss-verify", "--q-max", "not-a-number") == 1


def test_missing_input_file_is_reported(tmp_path):
    assert _run("orlicz-norm", "--input", str(tmp_path / "absent.csv")) == 1


@pytest.mark.parametrize("argv", [
    ["weak-type-sweep", "--size", "64", "--n-max", "0"],
    ["weak-type-sweep", "--size", "64", "--n-max", "6", "--lambda-grid", "nan"],
    ["lp-sweep", "--support", "0", "--seeds", "1", "--n-max", "4"],
    ["multiplier-error", "--n-min", "6", "--n-max", "6", "--grid", "4096",
     "--s-max", "-1"],
    ["gauss-verify", "--q-max", "4", "--threads", "-3"],
    ["gauss-verify", "--q-max", "4", "--threads", "0"],
    ["gauss-verify", "--q-max", "0"],
    ["gauss-verify", "--q-max", "-5"],
    ["lp-sweep", "--seeds", "0", "--support", "16", "--n-max", "4"],
    ["lp-sweep", "--p-list", "", "--seeds", "1", "--support", "16",
     "--n-max", "4"],
    ["residue-equidist", "--q", "0", "--n-max", "4", "--support", "16"],
    ["ergodic-demo", "--set", "nan,0.5", "--n-max", "4"],
    ["ergodic-demo", "--x0", "nan", "--n-max", "4"],
    ["weak-type-sweep", "--size", "64", "--n-max", "6", "--refreeze"],
    # orlicz-norm: the third entry is the text of the input CSV
    ["orlicz-norm", "--input", "1,nan"],
    ["orlicz-norm", "--input", "nan,0.5"],
    ["orlicz-norm", "--input", "inf,0.5"],
    ["residue-equidist", "--resolution", "0", "--n-max", "3", "--support", "8"],
    ["residue-equidist", "--support", "0", "--n-max", "3"],
    ["residue-equidist", "--support", "-2", "--n-max", "3"],
    ["residue-equidist", "--n-max", "-2", "--support", "8"],
    ["multiplier-error", "--n-min", "-3", "--n-max", "-2"],
    ["multiplier-error", "--n-min", "8", "--n-max", "-2"],
    ["weak-type-sweep", "--size", "64", "--n-max", "-2"],
    ["weak-type-sweep", "--size", "-3", "--n-max", "3"],
    ["lp-sweep", "--support", "-4", "--seeds", "1", "--n-max", "4"],
    ["lp-sweep", "--support", "16", "--seeds", "1", "--n-max", "-2"],
    ["ergodic-demo", "--n-max", "-2"],
    ["ergodic-demo", "--seeds", "-3", "--n-max", "4"],
    ["gauss-verify", "--q-max", "3", "--fixtures", "x"],
    ["residue-equidist", "--resolution", "8", "--n-max", "3", "--support", "8"],
])
def test_degenerate_input_is_one_line_error(tmp_path, capsys, argv):
    if argv[0] == "orlicz-norm":
        (tmp_path / "in.csv").write_text(argv[2] + "\n")
        argv = [*argv[:2], str(tmp_path / "in.csv")]
    assert _run(*argv, "--out", str(tmp_path / "r.csv")) == 1
    err = capsys.readouterr().err
    assert err.startswith("primeavg: error: ") and err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()
    # a run with negative integer flags names one of them in its message
    negative = [flag for flag, value in zip(argv, argv[1:])
                if flag.startswith("--") and value.startswith("-")]
    assert not negative or any(flag in err for flag in negative)


def test_gauss_verify_small_run(tmp_path, capsys):
    out = tmp_path / "gauss.csv"
    assert _run("gauss-verify", "--q-max", "12", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    assert any("command" in l for l in meta)
    assert body[0] == "q,q0,point,abs_err,pass"
    assert all(l.endswith("true") for l in body[1:])


def test_gauss_verify_json_structure(tmp_path):
    out = tmp_path / "gauss.json"
    assert _run("gauss-verify", "--q-max", "8", "--format", "json",
                "--out", str(out)) == 0
    blob = _read_json(out)
    assert set(blob) == {"meta", "columns", "rows", "summary"}
    assert blob["columns"] == ["q", "q0", "point", "abs_err", "pass"]
    assert int(blob["summary"]["failures"]) == 0
    assert int(blob["summary"]["checks"]) == len(blob["rows"])
    assert all(row[4] == "true" for row in blob["rows"])


# --- determinism across thread counts ---


_THREAD_CASES = {
    "lp-sweep": ["lp-sweep", "--p-list", "1.5,2.0", "--seeds", "3",
                 "--support", "64", "--n-max", "6"],
    "gauss-verify": ["gauss-verify", "--q-max", "30"],
    "orlicz-norm": ["orlicz-norm", "--input", "{steps}", "--j-max", "8"],
    # the starts share the rotation's held phases, which the pool's threads
    # race to form on the cold run
    "ergodic-demo": ["ergodic-demo", "--seeds", "4"],
}


@pytest.mark.parametrize("case", list(_THREAD_CASES))
def test_reports_byte_identical_across_threads(tmp_path, case, monkeypatch):
    steps = tmp_path / "steps.csv"
    steps.write_text("value,measure\n3.0,0.25\n1.0,0.5\n0.25,0.125\n")
    args = [a.format(steps=steps) for a in _THREAD_CASES[case]]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for threads, out in (("1", a), ("4", b)):
        # each run starts with the lp and orbit memos empty
        monkeypatch.delitem(ntheory._HELD, "lp", raising=False)
        monkeypatch.delitem(ntheory._HELD, "orbit", raising=False)
        assert _run(*args, "--format", "json", "--threads", threads, "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()
    if case != "lp-sweep":
        return
    # every p of a seed comes from that seed's one maximal function
    table = cli.sieve_primes((1 << 6) + 1)
    rows = _read_json(a)["rows"]
    for seed in (0, 1, 2):
        f = cli.maximal.random_signal(np.random.default_rng(seed), 64)
        want = cli.maximal.lp_maximal_ratios(f, [1.5, 2.0], 6, table)
        got = [float(r[2]) for r in rows if int(r[0]) == seed]
        assert got == want


# --- one parser per process ---


def test_run_builds_its_parser_once(monkeypatch):
    built = []
    real = cli.build_parser

    def counted():
        built.append(real())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.delitem(ntheory._HELD, "parser", raising=False)
    assert _run("gauss-verify", "--q-max", "3", "--out", os.devnull) == 0
    assert _run("lp-sweep", "--seeds", "1", "--support", "8", "--n-max", "3",
                "--out", os.devnull) == 0
    assert len(built) == 1 and ntheory._HELD["parser"][2] is built[0]
    assert real() is not real()  # build_parser stays a fresh builder


def test_successive_runs_give_the_bytes_of_separate_processes(tmp_path):
    # a run with a non-default p list and one of another subcommand come
    # first, so a default the first run could change would show in the last
    runs = {"lp-first": ["lp-sweep", "--p-list", "1.5", "--seeds", "2", "--support", "16",
                         "--n-max", "5"],
            "ergodic": ["ergodic-demo", "--seeds", "2", "--n-max", "8"],
            "lp-default": ["lp-sweep", "--seeds", "2", "--support", "16", "--n-max", "5"],
            "weak": ["weak-type-sweep", "--size", "16", "--n-max", "6"]}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    for name, argv in runs.items():
        here, alone = tmp_path / f"{name}-here.csv", tmp_path / f"{name}-alone.csv"
        assert _run(*argv, "--out", str(here)) == 0
        subprocess.run([sys.executable, "-m", "primeavg.cli", *argv, "--out", str(alone)],
                       env=env, check=True, timeout=120)
        assert here.read_bytes() == alone.read_bytes(), name


def test_usage_error_after_a_run_is_still_one_line(capsys):
    assert _run("gauss-verify", "--q-max", "3", "--out", os.devnull) == 0
    capsys.readouterr()
    assert _run("gauss-verify", "--q-max", "not-a-number") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("primeavg gauss-verify: error: ")
    assert captured.err.count("\n") == 1


def test_fmt_per_type_table_matches_the_isinstance_chain():
    # each type is resolved once through the base-class chain and cached;
    # a cached type formats as it did on first use
    cases = {"true": (True, np.True_), "false": (False, np.False_),
             "7": (7, np.int64(7), np.int32(7), np.uint8(7)),
             "0.10000000000000001": (0.1, np.float64(0.1)),
             "-0": (-0.0, np.float64(-0.0)), "nan": (float("nan"), np.float64("nan")),
             "abc": ("abc",), "1-2j": (1 - 2j, np.complex128(1 - 2j))}
    for want, values in cases.items():
        for v in values:
            assert cli._fmt(v) == want, v
            assert cli._fmt(v) == want, v


def test_multiplier_error_trend_and_injection(tmp_path):
    out = tmp_path / "mult.json"
    assert _run("multiplier-error", "--n-min", "6", "--n-max", "8",
                "--grid", str(1 << 12), "--s-max", "4",
                "--format", "json", "--out", str(out)) == 0
    blob = _read_json(out)
    assert blob["columns"] == ["n", "grid", "s_max", "sup_error"]
    ns = [int(row[0]) for row in blob["rows"]]
    assert ns == [6, 7, 8]
    base_sup = {int(row[0]): float(row[3]) for row in blob["rows"]}
    # an injected synthetic zero must move the measured error
    out2 = tmp_path / "mult-inj.json"
    assert _run("multiplier-error", "--n-min", "6", "--n-max", "8",
                "--grid", str(1 << 12), "--s-max", "4",
                "--inject-beta", "0.9", "--inject-q", "5",
                "--format", "json", "--out", str(out2)) == 0
    inj_sup = {int(row[0]): float(row[3])
               for row in _read_json(out2)["rows"]}
    assert any(abs(inj_sup[n] - base_sup[n]) > 1e-3 for n in ns)


# --- fixtures: refreeze, match, drift ---


def test_fixture_refreeze_then_match_then_drift(tmp_path):
    fx = tmp_path / "frozen.json"
    args = ["weak-type-sweep", "--family", "interval", "--size", "64",
            "--n-max", "8", "--out", str(tmp_path / "w.csv"),
            "--fixtures", str(fx)]
    assert _run(*args, "--refreeze") == 0
    stored = json.loads(fx.read_text())
    assert list(stored) == ["weak_type/interval/64"]
    # same run against the recorded value: clean
    assert _run(*args) == 0
    # tamper far beyond the 25% tolerance: drift exit
    key = "weak_type/interval/64"
    stored[key] = "%.17g" % (float(stored[key]) * 2.0)
    fx.write_text(json.dumps(stored))
    assert _run(*args) == 2


def test_refreeze_without_fixtures_is_usage_error(tmp_path):
    assert _run("weak-type-sweep", "--family", "interval", "--size", "64",
                "--n-max", "8", "--out", str(tmp_path / "w.csv"),
                "--refreeze") == 1


def test_missing_fixture_key_warns_but_passes(tmp_path, capsys):
    fx = tmp_path / "frozen.json"
    fx.write_text("{}")
    assert _run("weak-type-sweep", "--family", "interval", "--size", "64",
                "--n-max", "8", "--out", str(tmp_path / "w.csv"),
                "--fixtures", str(fx)) == 0
    assert "no frozen value" in capsys.readouterr().err


# --- per-command smoke with library cross-checks ---


def test_weak_type_families_all_run(tmp_path):
    for family in ["interval", "random", "primes", "ap"]:
        out = tmp_path / f"wt-{family}.json"
        assert _run("weak-type-sweep", "--family", family, "--size", "64",
                    "--n-max", "6", "--format", "json",
                    "--out", str(out)) == 0
        blob = _read_json(out)
        assert blob["meta"]["family"] == family
        assert np.isfinite(float(blob["summary"]["max_normalized"]))


def test_residue_equidist_report(tmp_path):
    out = tmp_path / "res.json"
    assert _run("residue-equidist", "--q", "4", "--s", "1", "--beta", "0.75",
                "--n-max", "6", "--support", "64",
                "--resolution", str(1 << 12),
                "--format", "json", "--out", str(out)) == 0
    blob = _read_json(out)
    rs = [int(row[0]) for row in blob["rows"]]
    assert rs == [1, 2, 3, 4]
    ratios = [float(row[3]) for row in blob["rows"]]
    assert max(ratios) / min(ratios) < 10.0


def test_ergodic_demo_rotation_and_shift(tmp_path):
    out = tmp_path / "erg.json"
    assert _run("ergodic-demo", "--system", "rotation", "--alpha", "golden",
                "--set", "0,0.5", "--x0", "0.25", "--n-max", "8",
                "--format", "json", "--out", str(out)) == 0
    blob = _read_json(out)
    assert len(blob["rows"]) == 8  # one row per dyadic scale
    assert int(blob["meta"]["alpha_den"]) > (1 << 33) - 1
    out2 = tmp_path / "erg-shift.json"
    assert _run("ergodic-demo", "--system", "shift", "--modulus", "31",
                "--set", "0,0.5", "--n-max", "8", "--seeds", "3",
                "--format", "json", "--out", str(out2)) == 0
    blob2 = _read_json(out2)
    assert len(blob2["rows"]) == 3 * 8
    assert int(blob2["meta"]["modulus"]) == 31


def test_orlicz_norm_matches_library(tmp_path):
    inp = tmp_path / "steps.csv"
    inp.write_text("value,measure\n3.0,0.25\n1.0,0.5\n")
    out = tmp_path / "orl.json"
    assert _run("orlicz-norm", "--input", str(inp), "--j-max", "6",
                "--format", "json", "--out", str(out)) == 0
    blob = _read_json(out)
    r = oz.decreasing_rearrangement([(3.0, 0.25), (1.0, 0.5)])
    assert float(blob["summary"]["norm"]) == pytest.approx(oz.orlicz_norm(r),
                                                           rel=1e-12)
    assert float(blob["summary"]["layer_lower_bound"]) == pytest.approx(
        oz.layer_lower_bound(r, 6), rel=1e-12)
    assert len(blob["rows"]) == 6


def test_stdout_report_when_no_out(capsys):
    assert _run("orlicz-norm", "--input", "/dev/null") == 0
    text = capsys.readouterr().out
    assert "# command,orlicz-norm" in text


# --- the streaming writer ---

# a field with a comma, a double quote and non-ASCII text, as a file name
# that orlicz-norm copies into its meta may hold
_ODD = 'steps, "v2" é ü 漢.csv'


def _whole_report(fmt, meta, columns, rows, summary) -> str:
    """The report built whole, from materialized lists: the csv module over
    every line, or one json.dumps of the document."""
    srows = [[cli._fmt(c) for c in row] for row in rows]
    smeta = {k: cli._fmt(v) for k, v in sorted(meta.items())}
    ssum = {k: cli._fmt(v) for k, v in sorted(summary.items())}
    if fmt == "json":
        doc = {"meta": smeta, "columns": columns, "rows": srows, "summary": ssum}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerows([f"# {k}", v] for k, v in smeta.items())
    w.writerow(columns)
    w.writerows(srows)
    w.writerows([f"# {k}", v] for k, v in ssum.items())
    return buf.getvalue()


def _audit_like(n, start=0):
    """n rows with the type signature of a gauss-verify row."""
    return [(q, q % 7, f"a={q}", q / 7, q % 3 != 0) for q in range(start, start + n)]


_CHUNK = cli._CHUNK_ROWS
# rows that keep their place among templated rows: cells the csv module
# quotes, empty strings, and types outside the format chain
_FALLBACK_ROWS = [(1, 2, "a,b", 0.5, True), (1, 2, "", 0.5, True), [None, 1, 2.5],
                  (1, 2, 'say "hi"', 0.5, False), [np.str_("np"), 3]]


def _assert_same_text(got: str, want: str) -> None:
    """got == want, failing with the first line that differs (pytest's own
    diff of two long reports takes minutes)."""
    if got != want:
        g, w = got.splitlines(keepends=True), want.splitlines(keepends=True)
        i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        pytest.fail(f"line {i + 1} of {len(g)}: {g[i:i + 1]!r}, want {w[i:i + 1]!r} "
                    f"of {len(w)}")


# text json.dumps escapes (a control character, U+007F, a backslash, the
# line and paragraph separators, a non-BMP character as a surrogate pair)
# or writes as it is ("/")
_JSON_ESCAPED = ["\x00", "\x1f", "\t", "\x7f", "\\", "/", "\u2028", "\u2029", "\U0001d52d"]

_WRITER_ROWS = {
    "no-rows": [],
    "one-row": [[1, 0.1, True]],
    "odd-fields": [[np.int64(3), "a,b", 'say "hi"'], [2.5, _ODD, -0.0],
                   [False, "", 1 - 2j]],
    "more-than-a-chunk": _audit_like(2 * _CHUNK + 3),
    # a fallback row mid-chunk, between runs of two signatures, some short
    "interleaved-signatures": [
        row for k, extra in enumerate(_FALLBACK_ROWS)
        for row in (*_audit_like(300 + k, 1000 * k), extra, [k, 0.25],
                    *_audit_like(2, 7), [k, 0.5], [True, 1 + 1j, k])],
    "numpy-scalars": [[np.bool_(True), np.int32(-7), np.uint8(255), np.float32(0.1),
                       np.complex128(1.5 - 2j)],
                      [np.bool_(False), np.int32(0), np.uint8(0), np.float32(-0.0),
                       np.complex128(complex(-0.0, -0.0))],
                      [np.int64(2**62), np.float64(1e-300), np.complex128(3j),
                       np.float64(np.nan), np.int64(-1)]],
    "non-finite": [[float("nan"), float("inf"), float("-inf"), -0.0],
                   [np.float64(np.inf), np.float64(-np.inf), np.float64(-0.0), 0.0],
                   [complex(float("nan"), float("inf")), 1e308, 5e-324, -1.5]],
    "text-cells": [["a\rb", 1], ["a\nb", 2], ["a,b", 3], ['a"b', 4], [" lead", 5],
                   ["trail ", 6], ["", 7], ["plain", 8], [" both ", 9], [" ", 10]],
    # a chunk beside an np.str_ column (csv.writer's in CSV), then a chunk of
    # str cells alone (the template's in both formats)
    "json-escaped-text": [[c, np.str_(c), k]
                          for k, c in enumerate((_JSON_ESCAPED * _CHUNK)[:_CHUNK])]
                         + [[c, "a" + c + "b", k] for k, c in enumerate(_JSON_ESCAPED)],
    # a chunk of them, then among rows with cells
    "no-cells": [()] * _CHUNK + [[], [1, "a"], [], ("b",), []],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", list(_WRITER_ROWS))
def test_streamed_report_is_the_whole_report(tmp_path, capsys, fmt, case):
    rows = _WRITER_ROWS[case]
    meta = {"command": "oracle", "input": _ODD, "n": 3}
    columns = ["a", "b,c", 'd"e']
    summary = {}

    def stream():
        yield from rows
        # the writer reads the summary only after the last row
        summary.update(rows=len(rows), note=_ODD)

    want = _whole_report(fmt, meta, columns, rows, {"rows": len(rows), "note": _ODD})
    out = tmp_path / "r"
    cli._write_report(argparse.Namespace(format=fmt, out=str(out)), meta, columns,
                      stream(), summary)
    with out.open(newline="") as fh:  # a lone \r stays as it was written
        _assert_same_text(fh.read(), want)
    summary.clear()
    cli._write_report(argparse.Namespace(format=fmt, out=None), meta, columns,
                      stream(), summary)
    _assert_same_text(capsys.readouterr().out, want)


def test_csv_quotes_no_character_outside_the_template_check():
    # a str cell the templates take must come out as csv.writer would write
    # it: the csv module quotes no character that _QUOTABLE lets through
    chars = [chr(c) for c in range(0x110000) if not cli._QUOTABLE(chr(c))]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["", *chars, " a ", ""])
    assert buf.getvalue() == ",".join(["", *chars, " a ", ""]) + "\n"


def test_csv_rows_go_out_a_chunk_per_write(tmp_path):
    class Counted(io.StringIO):
        writes = 0

        def write(self, text):
            Counted.writes += 1
            return super().write(text)

    rows = _audit_like(3 * _CHUNK + 1)
    # four chunks, and the column line (CSV) or the text before and after the
    # rows (JSON)
    for fmt, around in [("csv", 1), ("json", 2)]:
        Counted.writes = 0
        fh = Counted()
        cli._emit(fh, fmt, {}, ["a"], rows, {})
        assert Counted.writes == around + 4, fmt
        _assert_same_text(fh.getvalue(), _whole_report(fmt, {}, ["a"], rows, {}))


def test_failed_stream_after_chunks_removes_the_partial_report(tmp_path):
    out = tmp_path / "r"

    def stream():
        yield from _audit_like(2 * _CHUNK + 10)
        assert out.stat().st_size > 0  # two chunks have reached the file
        raise cli.DomainError("stream failed")

    with pytest.raises(cli.DomainError):
        cli._write_report(argparse.Namespace(format="csv", out=str(out)), {"n": 1},
                          ["a"], stream(), {})
    assert not out.exists()


def _summary_by_row(rows) -> dict:
    """gauss-verify's summary by its per-row loop: max_err is the first
    abs_err, then any larger one."""
    checks = failures = 0
    max_err = None
    for row in rows:
        checks += 1
        failures += not row[4]
        if max_err is None or row[3] > max_err:
            max_err = row[3]
    return {"checks": checks, "failures": failures,
            "max_err": 0.0 if max_err is None else max_err}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_gauss_verify_report_is_the_whole_report(tmp_path, fmt):
    rows = list(gs.verify_quadratic_rows(40))
    meta = {"command": "gauss-verify", "q_max": 40, "seed": 0}
    want = _whole_report(fmt, meta, ["q", "q0", "point", "abs_err", "pass"], rows,
                         _summary_by_row(rows))
    out = tmp_path / "r"
    assert _run("gauss-verify", "--q-max", "40", "--format", fmt, "--out", str(out)) == 0
    _assert_same_text(out.read_text(), want)


@pytest.mark.parametrize("parts", [
    [[1.0], [float("nan"), 2.0]],  # a max per part and then across gives 1.0
    [[], [float("nan"), 2.0]],  # nan first: no later value is larger
    [[], []],
])
def test_gauss_verify_summary_folds_as_its_rows_do(tmp_path, monkeypatch, parts):
    def audit(q_max, q_min=1):
        if q_min == 1 and q_max > 1:  # the bounds check before any modulus
            return iter(())
        return iter([(q_min, 1, f"a={i}", err, err < 1.5)
                     for i, err in enumerate(parts[q_min - 1])])

    monkeypatch.setattr(cli, "verify_quadratic_rows", audit)
    out = tmp_path / "r.json"
    code = _run("gauss-verify", "--q-max", "2", "--format", "json", "--out", str(out))
    want = _summary_by_row([row for q in (1, 2) for row in audit(q, q)])
    assert code == (0 if want["failures"] == 0 else 2)
    assert _read_json(out)["summary"] == {k: cli._fmt(v) for k, v in want.items()}


def test_gauss_verify_formats_no_row_cell_by_cell(tmp_path, monkeypatch):
    calls = []
    fmt = cli._fmt

    def counted(x):
        calls.append(x)
        return fmt(x)

    monkeypatch.setattr(cli, "_fmt", counted)
    for form in ("csv", "json"):
        calls.clear()
        out = tmp_path / f"r.{form}"
        assert _run("gauss-verify", "--q-max", "30", "--format", form, "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) > 3000
        assert len(calls) == 3 + 3, form  # the meta values and the summary values


# every subcommand at a small size, with the row signatures only one of them
# makes: numpy scalars (weak-type-sweep), an int x0 (a shift's random
# starts), and the int and float cells of multiplier-error
_EVERY_SUBCOMMAND = {
    "gauss-verify": ["gauss-verify", "--q-max", "12"],
    "multiplier-error": ["multiplier-error", "--n-min", "4", "--n-max", "5",
                         "--grid", "256", "--s-max", "2", "--inject-beta", "0.9"],
    "weak-type-sweep": ["weak-type-sweep", "--family", "primes", "--size", "64",
                        "--n-max", "6"],
    "lp-sweep": ["lp-sweep", "--p-list", "1.5,2", "--seeds", "2", "--support", "32",
                 "--n-max", "5"],
    "residue-equidist": ["residue-equidist", "--q", "2", "--s", "1", "--n-max", "4",
                         "--support", "32", "--resolution", "256"],
    "ergodic-rotation": ["ergodic-demo", "--n-max", "6"],
    "ergodic-shift": ["ergodic-demo", "--system", "shift", "--modulus", "31",
                      "--seeds", "2", "--n-max", "6"],
    "orlicz-norm": ["orlicz-norm", "--input", "{steps}", "--j-max", "6"],
}


@pytest.mark.parametrize("case", list(_EVERY_SUBCOMMAND))
def test_csv_and_json_reports_hold_the_same_text(tmp_path, case):
    steps = tmp_path / "steps.csv"
    steps.write_text("3,0.25\n1,0.5\n")
    args = [a.format(steps=steps) for a in _EVERY_SUBCOMMAND[case]]
    a, b = tmp_path / "a.csv", tmp_path / "b.json"
    assert _run(*args, "--out", str(a)) == 0
    assert _run(*args, "--format", "json", "--out", str(b)) == 0
    with a.open(newline="") as fh:
        lines = list(csv.reader(fh))
    k = next(i for i, line in enumerate(lines) if not line[0].startswith("# "))
    n = next(i for i, line in enumerate(lines) if i > k and line[0].startswith("# "))
    blob = _read_json(b)
    assert blob["meta"] == {key[2:]: v for key, v in lines[:k]}
    assert blob["columns"] == lines[k]
    assert blob["rows"] == lines[k + 1:n] and n > k + 1
    assert blob["summary"] == {key[2:]: v for key, v in lines[n:]}


def test_orlicz_norm_rejects_a_bad_line_after_the_first(tmp_path, capsys):
    inp = tmp_path / "bad.csv"
    out = tmp_path / "r.csv"
    for text, line in [("3,0.25\n1;0.5\nx,y\n", 2), ("value,measure\n3,0.25\nx,y\n", 3),
                       ("3,0.25\n1,0.5,0.1\n", 2), ("1,0.5,0.1\n", 1),
                       ("3,0.25\n\n0.5\n", 3)]:
        inp.write_text(text)
        assert _run("orlicz-norm", "--input", str(inp), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"primeavg: error: line {line} of {inp} is not a value,measure pair "
            "of numbers\n")
        assert not out.exists()
    # a non-numeric first line is a header, and blank lines are skipped
    inp.write_text("value,measure\n3,0.25\n\n1,0.5\n")
    assert _run("orlicz-norm", "--input", str(inp), "--out", str(out)) == 0
    assert "# steps,2\n" in out.read_text()


def test_orlicz_meta_carries_any_input_path(tmp_path):
    inp = tmp_path / _ODD
    inp.write_text("3,0.25\n1,0.5\n")
    out = tmp_path / "r"
    assert _run("orlicz-norm", "--input", str(inp), "--format", "json",
                "--out", str(out)) == 0
    assert _read_json(out)["meta"]["input"] == str(inp)
    assert _run("orlicz-norm", "--input", str(inp), "--out", str(out)) == 0
    with out.open(newline="") as fh:
        assert ["# input", str(inp)] in list(csv.reader(fh))


def _two_rows_then_failure(q_max, q_min=1):
    """A stand-in audit: modulus 1 gives two rows, modulus 2 fails."""
    if q_min > 1:
        raise cli.DomainError("audit failed at modulus 2")
    yield 1, 1, "a=0", 0.0, True
    yield 1, 1, "tau", 0.0, True


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_stream_leaves_no_report(tmp_path, capsys, monkeypatch, fmt):
    monkeypatch.setattr(cli, "verify_quadratic_rows", _two_rows_then_failure)
    out = tmp_path / "r"
    assert _run("gauss-verify", "--q-max", "3", "--format", fmt, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == "primeavg: error: audit failed at modulus 2\n"
    assert not out.exists()


def test_failed_stream_never_removes_a_device(monkeypatch):
    removed = []
    monkeypatch.setattr(cli, "verify_quadratic_rows", _two_rows_then_failure)
    monkeypatch.setattr(os, "unlink", removed.append)
    assert _run("gauss-verify", "--q-max", "3", "--out", os.devnull) == 1
    assert removed == []
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.parametrize("argv", [
    ["--q-max", "60", "--out", "{tmp}/missing/r.csv"],
    ["--q-max", "2000000", "--out", "{tmp}/r.csv"],
])
def test_gauss_verify_input_errors_come_before_any_modulus(tmp_path, capsys, monkeypatch,
                                                           argv):
    # every modulus of the audit starts with its roots of unity
    def audited(q):
        raise AssertionError(f"modulus {q} audited")

    monkeypatch.setattr(gs, "roots_of_unity", audited)
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert _run("gauss-verify", *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("primeavg: error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_gauss_verify_peak_stays_within_one_modulus(tmp_path, fmt):
    # the report at q_max 60 is 0.6 MB in CSV and 1.6 MB in JSON.  Built
    # whole, with its rows held three times, it peaked at 10.4 and 16.7 MB;
    # streamed, only one modulus's rows are alive, and it peaks under 1 MB
    tracemalloc.start()
    try:
        code = _run("gauss-verify", "--q-max", "60", "--format", fmt,
                    "--out", str(tmp_path / "r"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 2 << 20, peak


def test_gauss_verify_peak_on_two_threads_stays_within_its_window(tmp_path):
    # on two threads at most three moduli run ahead of the writer: the peak
    # is about 1.4 MiB, as on one thread; when every modulus was submitted at
    # once, finished parts piled up to about 6.3 MiB
    tracemalloc.start()
    try:
        code = _run("gauss-verify", "--q-max", "120", "--threads", "2",
                    "--out", str(tmp_path / "r"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 3 << 20, peak


def test_parallel_submits_at_most_threads_items_ahead():
    # item 0 is slow, so a pool without a window runs every other item
    # before the first result is drawn
    started = []

    def fn(i):
        started.append(i)
        if i == 0:
            time.sleep(0.2)
        return i

    drawn = []
    for r in cli._parallel(fn, range(20), 2):
        assert len(started) <= r + 1 + 2, (r, started)
        drawn.append(r)
    assert drawn == list(range(20))


# --- fuzzed argv ---


def _ints(lo, hi):
    return st.sampled_from([str(i) for i in range(lo, hi + 1)] + ["x"])


def _texts(*choices):
    return st.sampled_from(choices)


# Per command: flags always passed, so that no large default size runs
# (n_max <= 8, q_max <= 30, support <= 64), and flags drawn optionally.
_FLAGS = {
    "gauss-verify": ({"--q-max": _ints(-5, 30)}, {}),
    "multiplier-error": (
        {"--n-min": _ints(-2, 8), "--n-max": _ints(-2, 8),
         "--grid": _texts("0", "3", "64", "1024", "4096")},
        {"--s-max": _ints(-1, 4),
         "--inject-beta": _texts("0.4", "0.5", "0.9", "1", "nan", "inf"),
         "--inject-q": _ints(-1, 7)}),
    "weak-type-sweep": (
        {"--size": _ints(-1, 64), "--n-max": _ints(-1, 8)},
        {"--family": _texts("interval", "random", "primes", "ap", "bogus"),
         "--lambda-grid": _texts("0.5", "0.5,0.25", "", "0", "2", "-1", "nan",
                                 "inf")}),
    "lp-sweep": (
        {"--seeds": _ints(-1, 3), "--support": _ints(-1, 64),
         "--n-max": _ints(-1, 8)},
        {"--p-list": _texts("1.5", "1.25,2", "", "1", "3", "nan")}),
    "residue-equidist": (
        {"--n-max": _ints(-1, 8), "--support": _ints(-1, 64),
         "--resolution": _texts("0", "3", "256", "1024", "4096")},
        {"--q": _ints(-1, 5), "--s": _ints(-1, 3),
         "--beta": _texts("0.3", "0.5", "0.75", "1", "nan")}),
    "ergodic-demo": (
        {"--n-max": _ints(-1, 8), "--seeds": _ints(-1, 3)},
        {"--system": _texts("rotation", "shift", "bogus"),
         "--alpha": _texts("golden", "silver", "0.3", "0", "1", "-0.5", "nan",
                           "x"),
         "--alpha-cf-depth": _ints(-1, 5), "--modulus": _ints(-1, 20),
         "--set": _texts("0,0.5", "0.5,0.1", "nan,0.5", "0,inf", "1"),
         "--x0": _texts("0", "0.3", "5", "nan")}),
    "orlicz-norm": ({}, {"--j-max": _ints(-1, 10)}),
}
_COMMON = {"--threads": _texts("-3", "0", "1", "2"),
           "--format": _texts("csv", "json", "xml"),
           "--seed": _ints(0, 3)}
_CSV_FIELD = _texts("0", "1", "2.5", "-1", "0.25", "0.75", "nan", "inf", "")


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    required, optional = _FLAGS[command]
    optional = {**optional, **_COMMON}
    argv = [command]
    for flag in sorted(required):
        argv += [flag, draw(required[flag])]
    for flag in draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        argv += [flag, draw(optional[flag])]
    lines = draw(st.lists(st.tuples(_CSV_FIELD, _CSV_FIELD), max_size=4))
    return argv, "".join(f"{v},{m}\n" for v, m in lines)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_argv())
def test_fuzzed_argv_exits_cleanly(tmp_path_factory, case):
    argv, csv_text = case
    if argv[0] == "orlicz-norm":
        path = tmp_path_factory.mktemp("fuzz") / "in.csv"
        path.write_text(csv_text)
        argv += ["--input", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _run(*argv)  # an uncaught exception fails the test
    text = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in text and text.count("\n") <= 1, (argv, text)
    if code == 1:  # an input error is one stderr line and no report
        assert text.endswith("\n") and out.getvalue() == "", (argv, text)
