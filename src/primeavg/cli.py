"""Command-line surface: experiment sweeps with deterministic reports.

Every subcommand validates its flags, computes a report, and writes it as
CSV or JSON, streamed as the rows are computed.  Reports are
byte-identical across reruns and thread counts: work units are mapped in a
fixed order, floats are printed with 17 significant digits, and JSON keys
are sorted.

One table of per-type rules (_FMT_CHAIN: a %-code and a conversion) formats
every cell, and one rule makes the rows of both formats: a row whose cells
have a given type signature is filled from that signature's template, one
pattern % cells, built once from the table and the format's frame (the text
around and between cells and rows).  Rows are drawn 256 at a time and each
chunk goes to the file in one write; only the lines before and after the
rows differ by format.  A chunk of ragged or mixed rows goes row by row.
A JSON text cell goes through json's own escaping; a CSV run with a cell
type outside the table or a str cell the csv module might quote goes
through csv.writer.  So the bytes are those of the csv module, or of
json.dumps, over the whole report.

Exit codes: 0 success, 1 usage or input error (one stderr line, no report),
2 measured-constant drift or verification failure.

Frozen constants live in a JSON fixture (--fixtures, taken by the two
subcommands that measure one: weak-type-sweep and residue-equidist); a
measured value drifting more than 25% from its frozen counterpart fails the
run, and --refreeze rewrites the stored values instead.
"""

from __future__ import annotations

import argparse
import collections
import csv
import io
import itertools
import json
import numbers
import os
import re
import stat
import sys
from json.encoder import encode_basestring_ascii
from operator import countOf, itemgetter
from pathlib import Path

import numpy as np

from . import ergodic, maximal, orlicz
from .characters import synthetic_exceptional
from .gauss import verify_quadratic_rows
from .multipliers import DEFAULT_S_MAX, approximation_error
from .ntheory import CapacityError, DomainError, _held, sieve_primes

FLOAT_FMT = "%.17g"
DRIFT_TOLERANCE = 0.25


def _fmt_bool(x) -> str:
    return "true" if x else "false"


def _fmt_complex(x) -> str:
    z = complex(x)
    return (FLOAT_FMT % z.real) + ("+" if z.imag >= 0 else "-") \
        + (FLOAT_FMT % abs(z.imag)) + "j"


# the first base class a value's type derives from picks its rule: a %-code
# and the conversion the value goes through to fill it; other types print as str
_FMT_CHAIN = (((bool, np.bool_), "%s", _fmt_bool), (numbers.Integral, "%d", int),
              ((float, np.floating), FLOAT_FMT, float),
              ((complex, np.complexfloating), "%s", _fmt_complex))
_FMT_BY_TYPE: dict = {}  # type -> (code, conversion), resolved through _FMT_CHAIN once


def _cell_rule(t: type) -> tuple:
    rule = _FMT_BY_TYPE.get(t)
    if rule is None:
        rule = _FMT_BY_TYPE[t] = next(
            ((code, conv) for bases, code, conv in _FMT_CHAIN if issubclass(t, bases)),
            ("%s", str))
    return rule


def _fmt(x) -> str:
    code, conv = _cell_rule(type(x))
    return code % conv(x)


# rows per string handed to the report file; 1024 wrote no faster and could
# leave the process's peak RSS about 0.1 MB higher
_CHUNK_ROWS = 256
# a str cell that holds one of these, or is empty, may be quoted by the csv
# module, so its run of rows goes through csv.writer
_QUOTABLE = re.compile('[,"\r\n]').search


def _json_text(x) -> str:
    """str(x) as json.dumps writes it between its quotes (ensure_ascii)."""
    return encode_basestring_ascii(str(x))[1:-1]


# what each format puts around the cells: the text that opens a row, between
# cells, that closes a row, between rows, a row of no cells, and the
# conversion of a cell that prints as its str.  A JSON row opens on its own
# line, as json.dumps(..., indent=2) lays out the rows list
_FRAMES = {"csv": ("", ",", "\n", "", "\n", str),
           "json": ('\n    [\n      "', '",\n      "', '"\n    ]', ",", "\n    []",
                    _json_text)}
_ROW_TEMPLATES: dict = {}  # (type signature, format) -> _row_template's value


def _row_template(sig: tuple, fmt: str):
    """The template of the rows of format fmt whose cells have the types
    sig, from the format's frame and each cell's _FMT_CHAIN rule: the
    %-pattern of the whole row, the conversion of each cell (None where the
    %-code takes it as it is), and the indices of the str cells the csv
    module might quote.  A typed cell's %-text is plain ASCII, which neither
    format escapes; a cell of another type prints as its str, through json's
    escaping in JSON, and a CSV row with such a cell that is not a str has
    no template (None) and goes through csv.writer."""
    key = (sig, fmt)
    if key not in _ROW_TEMPLATES:
        head, sep, tail, _, empty, as_text = _FRAMES[fmt]
        rules = [(code, as_text if conv is str else conv)
                 for code, conv in map(_cell_rule, sig)]
        text = [i for i, (_, conv) in enumerate(rules) if conv is str]
        _ROW_TEMPLATES[key] = None if any(sig[i] is not str for i in text) else (
            head + sep.join(code for code, _ in rules) + tail if sig else empty,
            [None if conv is t else conv for t, (_, conv) in zip(sig, rules)], text)
    return _ROW_TEMPLATES[key]


def _lines(run: list, fmt: str) -> str:
    """The text of the rows in run, in format fmt.  Rows that share one type
    signature, as every report's rows do, are filled from its template, each
    row one pattern % cells, the cells converted column by column.  A run of
    ragged or mixed rows goes row by row, and a CSV run the template does not
    apply to goes through the csv module over _fmt of every cell."""
    between = _FRAMES[fmt][3]
    cols = list(zip(*run))
    kinds = [set(map(type, col)) for col in cols]
    if len(set(map(len, run))) > 1 or any(len(k) > 1 for k in kinds):
        return between.join(_lines([row], fmt) for row in run)
    template = _row_template(tuple(k.pop() for k in kinds), fmt)
    if template is not None:
        pattern, convs, text = template
        if not any("" in cols[i] or _QUOTABLE("".join(cols[i])) for i in text):
            cols = [c if f is None else map(f, c) for f, c in zip(convs, cols)]
            return between.join(map(pattern.__mod__, zip(*cols) if cols else [()] * len(run)))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_fmt(c) for c in row] for row in run)
    return buf.getvalue()


class _Parser(argparse.ArgumentParser):
    """argparse with the error contract: a usage error is one stderr line
    and exits 1."""

    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _parallel(fn, items, threads: int):
    """fn over items, yielded in order as each result is drawn: at one
    thread fn runs only when its result is drawn, and on more it runs ahead
    in a pool, by at most `threads` items beyond the one being drawn, so
    no more than threads + 1 results are alive at once.  The pool's module
    is imported only then, so a one-thread run never loads it."""
    if threads <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as ex:
        ahead = collections.deque()
        for item in items:
            ahead.append(ex.submit(fn, item))
            if len(ahead) > threads:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def _write_report(args, meta: dict, columns: list[str], rows, summary: dict) -> None:
    """Write one report to --out or stdout, as its rows are drawn.

    The meta lines and the columns go first, then the rows of the iterable
    `rows`, formatted and written a chunk at a time, then the summary, which
    is read only once the rows are used up, so a command may fill it while
    they stream.  Nothing is opened before the first row has been drawn, so
    a check that fails there leaves no report; a failure after it removes a
    partial --out if that is a regular file.  The bytes are those of the
    csv module over the whole report, or of json.dumps(doc, sort_keys=True,
    indent=2) + newline.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is not None:
        rows = itertools.chain([first], rows)
    if not args.out:
        _emit(sys.stdout, args.format, meta, columns, rows, summary)
        return
    with open(args.out, "w") as fh:
        try:
            _emit(fh, args.format, meta, columns, rows, summary)
        except BaseException:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                os.unlink(args.out)
            raise


_JSON = json.JSONEncoder(sort_keys=True, indent=2)


def _emit(fh, fmt: str, meta: dict, columns: list[str], rows, summary: dict) -> None:
    smeta = {k: _fmt(v) for k, v in sorted(meta.items())}
    if fmt == "json":  # the document cut open where its rows go
        fh.write(_JSON.encode({"columns": columns, "meta": smeta})[:-2] + ',\n  "rows": [')
    else:
        w = csv.writer(fh, lineterminator="\n")
        w.writerows([f"# {k}", v] for k, v in smeta.items())
        w.writerow(columns)
    rows, lead = iter(rows), ""  # lead: the text between rows, once one is out
    while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
        fh.write(lead + _lines(chunk, fmt))
        lead = _FRAMES[fmt][3]
    ssum = {k: _fmt(v) for k, v in sorted(summary.items())}
    if fmt == "json":
        fh.write(("\n  ]," if lead else "],") + _JSON.encode({"summary": ssum})[1:] + "\n")
    else:
        w.writerows([f"# {k}", v] for k, v in ssum.items())


def _check_frozen(args, key: str, value: float) -> int:
    """Compare a measured constant against the fixture; 0 ok, 2 on drift."""
    if not args.fixtures:
        return 0
    path = Path(args.fixtures)
    data = {}
    if path.exists():
        data = json.loads(path.read_text())
    if args.refreeze:
        data[key] = FLOAT_FMT % value
        path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
        return 0
    if key not in data:
        sys.stderr.write(f"no frozen value for {key}; run with --refreeze to record\n")
        return 0
    old = float(data[key])
    drift = abs(value - old) / abs(old) if old != 0 else (0.0 if value == 0 else np.inf)
    if drift > DRIFT_TOLERANCE:
        sys.stderr.write(
            f"frozen-constant drift for {key}: stored {old:.6g}, "
            f"measured {value:.6g} ({drift:.1%} > {DRIFT_TOLERANCE:.0%})\n")
        return 2
    return 0


def _require_min(args, flag: str, low: int) -> None:
    """Reject an integer flag below `low`, before it is used, naming the flag."""
    if getattr(args, flag[2:].replace("-", "_")) < low:
        raise DomainError(f"{args.command} needs {flag} >= {low}")


# --- subcommands ---


def _cmd_gauss_verify(args) -> int:
    _require_min(args, "--q-max", 1)
    # the audit checks its bounds when called, so a q_max past ENUM_CAP
    # fails here, before any modulus runs
    verify_quadratic_rows(args.q_max)
    parts = _parallel(lambda q: list(verify_quadratic_rows(q, q_min=q)),
                      range(1, args.q_max + 1), args.threads)
    summary = {}

    def rows():
        checks = failures = 0
        max_err = None  # max(..., default=0.0): the first, then any larger
        for part in parts:
            checks += len(part)
            failures += countOf(map(itemgetter(4), part), False)
            head = () if max_err is None else (max_err,)
            max_err = max(itertools.chain(head, map(itemgetter(3), part)), default=None)
            yield from part
        summary.update(checks=checks, failures=failures,
                       max_err=0.0 if max_err is None else max_err)

    meta = {"command": "gauss-verify", "q_max": args.q_max, "seed": args.seed}
    _write_report(args, meta, ["q", "q0", "point", "abs_err", "pass"],
                  rows(), summary)
    return 0 if summary["failures"] == 0 else 2


def _cmd_multiplier_error(args) -> int:
    _require_min(args, "--n-min", 1)
    _require_min(args, "--n-max", args.n_min)
    _require_min(args, "--s-max", 0)
    ns = list(range(args.n_min, args.n_max + 1))
    exceptional = None
    if args.inject_beta is not None:
        exceptional = synthetic_exceptional(args.inject_q, args.inject_beta)
    table = sieve_primes((1 << args.n_max) + 1)
    vals = list(_parallel(
        lambda n: approximation_error(n, args.grid, table, s_max=args.s_max,
                                      exceptional=exceptional),
        ns, args.threads))
    columns = ["n", "grid", "s_max", "sup_error"]
    rows = [[n, args.grid, args.s_max, v] for n, v in zip(ns, vals)]
    by_n = dict(zip(ns, vals))
    trend_ok = all(by_n[n + 4] < by_n[n] for n in ns if n + 4 in by_n)
    summary = {"trend_decreasing_by_4": trend_ok,
               "max_error": max(vals), "min_error": min(vals)}
    meta = {"command": "multiplier-error", "grid": args.grid,
            "n_min": args.n_min, "n_max": args.n_max, "seed": args.seed,
            "injected_beta": np.nan if args.inject_beta is None else args.inject_beta}
    _write_report(args, meta, columns, rows, summary)
    return 0


def _build_set(family: str, size: int, seed: int) -> maximal.Signal:
    if family == "interval":
        return maximal.Signal.interval(0, size)
    if family == "random":
        rng = np.random.default_rng(seed)
        vals = (rng.random(8 * size) < 0.125).astype(np.float64)
        if vals.sum() == 0:
            vals[0] = 1.0
        return maximal.Signal(offset=0, values=vals)
    if family == "primes":
        table = sieve_primes(max(size, 8))
        return maximal.Signal.indicator(table.primes_upto(size))
    if family == "ap":
        return maximal.Signal.indicator(1 + 3 * np.arange(size))
    raise DomainError(f"unknown set family: {family}")


def _cmd_weak_type(args) -> int:
    _require_min(args, "--size", 1)
    _require_min(args, "--n-max", 1)
    F = _build_set(args.family, args.size, args.seed)
    table = sieve_primes((1 << args.n_max) + 1)
    lam = np.asarray(args.lambda_grid, dtype=np.float64)
    report = maximal.weak_type_sweep(F, lam, args.n_max, table)
    columns = ["lambda", "count", "normalized"]
    rows = [[l, c, z] for l, c, z in
            zip(report.lambda_grid, report.counts, report.normalized)]
    summary = {"set_size": report.set_size,
               "max_normalized": report.max_normalized}
    meta = {"command": "weak-type-sweep", "family": args.family,
            "size": args.size, "n_max": args.n_max, "seed": args.seed,
            "grid": ",".join(_fmt(l) for l in lam)}
    _write_report(args, meta, columns, rows, summary)
    return _check_frozen(args, f"weak_type/{args.family}/{args.size}",
                         report.max_normalized)


def _cmd_lp_sweep(args) -> int:
    _require_min(args, "--seeds", 1)
    _require_min(args, "--support", 1)
    _require_min(args, "--n-max", 1)
    table = sieve_primes((1 << args.n_max) + 1)

    def unit(seed: int):
        rng = np.random.default_rng(seed)
        f = maximal.random_signal(rng, args.support)
        ratios = maximal.lp_maximal_ratios(f, args.p_list, args.n_max, table)
        return [(seed, p, r) for p, r in zip(args.p_list, ratios)]

    results = _parallel(unit, range(args.seed, args.seed + args.seeds),
                        args.threads)
    rows = [list(r) for part in results for r in part]
    worst: dict[float, float] = {}
    for _, p, ratio in rows:
        worst[p] = max(worst.get(p, 0.0), ratio)
    summary = {f"max_ratio_p={_fmt(p)}": v for p, v in sorted(worst.items())}
    meta = {"command": "lp-sweep", "seed": args.seed, "seeds": args.seeds,
            "support": args.support, "n_max": args.n_max,
            "grid": ",".join(_fmt(p) for p in args.p_list)}
    _write_report(args, meta, ["seed", "p", "ratio"], rows, summary)
    return 0


def _cmd_residue(args) -> int:
    _require_min(args, "--q", 1)
    _require_min(args, "--support", 1)
    _require_min(args, "--n-max", 0)
    rng = np.random.default_rng(args.seed)
    f = maximal.random_signal(rng, args.support)
    # the classes share one held filtered signal and sup, so they run in order
    outs = [maximal.residue_equidistribution(f, args.q, r, args.s, args.beta, args.n_max,
                                             resolution=args.resolution)
            for r in range(1, args.q + 1)]
    rows = [[o["r"], o["weak_norm"], o["l1_norm"], o["ratio"]] for o in outs]
    ratios = [row[3] for row in rows]
    summary = {"max_ratio": max(ratios), "min_ratio": min(ratios),
               "spread": max(ratios) / min(ratios) if min(ratios) > 0 else np.inf}
    meta = {"command": "residue-equidist", "Q": args.q, "s": args.s,
            "beta": args.beta, "n_max": args.n_max, "seed": args.seed,
            "grid": args.resolution, "support": args.support}
    _write_report(args, meta, ["r", "weak_norm", "l1_norm", "ratio"],
                  rows, summary)
    return _check_frozen(args, f"residue/{args.q}/{args.s}/{_fmt(args.beta)}",
                         max(ratios))


def _cmd_ergodic(args) -> int:
    _require_min(args, "--n-max", 1)
    _require_min(args, "--seeds", 0)
    if args.system == "rotation":
        alpha = args.alpha if args.alpha in ("golden", "silver") else float(args.alpha)
        system = ergodic.DynamicalSystem.rotation(alpha, args.alpha_cf_depth)
    else:
        system = ergodic.DynamicalSystem.shift(args.modulus)
    a, b = args.set
    f = ergodic.interval_indicator(a, b)
    if args.system == "shift":
        m = args.modulus
        circle_f = f

        def f(x):
            return circle_f(np.asarray(x, dtype=np.float64) / m)

    reference = (b - a) % 1.0 if args.system == "rotation" else None
    table = sieve_primes((1 << args.n_max) + 1)
    if args.seeds > 0:
        rng = np.random.default_rng(args.seed)
        starts = list(rng.random(args.seeds)) if args.system == "rotation" \
            else [int(v) for v in rng.integers(0, args.modulus, args.seeds)]
    else:
        starts = [args.x0]

    def unit(x0):
        tr = ergodic.convergence_diagnostic(system, f, x0, args.n_max, table,
                                            reference=reference)
        dist = tr.distances if tr.distances is not None \
            else np.full(len(tr.scales), np.nan)
        return [[x0, n, int(N), v, d, dd]
                for n, (N, v, d, dd) in enumerate(
                    zip(tr.scales, tr.values, tr.diffs, dist), start=1)]

    results = list(_parallel(unit, starts, args.threads))
    rows = [r for part in results for r in part]
    finals = [part[-1][5] for part in results]
    summary = {"starts": len(starts),
               "median_final_distance": float(np.median(finals))}
    meta = {"command": "ergodic-demo", "system": args.system,
            "n_max": args.n_max, "seed": args.seed,
            "set": f"{_fmt(a)},{_fmt(b)}"}
    if args.system == "rotation":
        meta["alpha_num"] = system.num
        meta["alpha_den"] = system.den
    else:
        meta["modulus"] = args.modulus
    _write_report(args, meta, ["x0", "n", "scale", "value", "diff", "distance"],
                  rows, summary)
    return 0


def _cmd_orlicz(args) -> int:
    pairs = []
    lines = csv.reader(io.StringIO(Path(args.input).read_text()))
    for line in lines:
        if not line:
            continue
        try:
            pair = tuple(map(float, line))
        except ValueError:
            if lines.line_num == 1:
                continue  # a header
            pair = ()
        if len(pair) != 2:
            raise DomainError(f"line {lines.line_num} of {args.input} is not a "
                              "value,measure pair of numbers")
        pairs.append(pair)
    r = orlicz.decreasing_rearrangement(pairs)
    norm = orlicz.orlicz_norm(r)
    layers = orlicz.dyadic_layers(r, args.j_max)
    rows = [[j, a, m] for j, (a, m) in enumerate(layers, start=1)]
    summary = {"norm": norm,
               "layer_lower_bound": orlicz.layer_lower_bound(r, args.j_max),
               "steps": int(r.values.size),
               "total_measure": r.total_measure}
    meta = {"command": "orlicz-norm", "input": args.input,
            "j_max": args.j_max, "seed": args.seed}
    _write_report(args, meta, ["j", "layer_value", "layer_measure"],
                  rows, summary)
    return 0


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def _float_pair(text: str) -> tuple[float, float]:
    parts = _float_list(text)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated numbers")
    return parts[0], parts[1]


def build_parser() -> _Parser:
    parser = _Parser(prog="primeavg",
                     description="Prime-average multiplier and maximal-operator experiments")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="report path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--threads", type=int, default=1)
    common.add_argument("--seed", type=int, default=0)
    # for the subcommands that measure a constant (_check_frozen)
    frozen = argparse.ArgumentParser(add_help=False)
    frozen.add_argument("--fixtures", help="frozen-constants JSON path")
    frozen.add_argument("--refreeze", action="store_true",
                        help="record measured constants into --fixtures")

    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("gauss-verify", parents=[common],
                       help="exhaustive closed-form vs brute-force character sums")
    p.add_argument("--q-max", type=int, default=200)
    p.set_defaults(fn=_cmd_gauss_verify)

    p = sub.add_parser("multiplier-error", parents=[common],
                       help="sup-norm error of the glued approximant")
    p.add_argument("--n-min", type=int, default=8)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--grid", type=int, default=1 << 14)
    p.add_argument("--s-max", type=int, default=DEFAULT_S_MAX)
    p.add_argument("--inject-beta", type=float, default=None,
                   help="synthetic real-zero location in [1/2, 1)")
    p.add_argument("--inject-q", type=int, default=5,
                   help="modulus receiving the synthetic zero")
    p.set_defaults(fn=_cmd_multiplier_error)

    p = sub.add_parser("weak-type-sweep", parents=[common, frozen],
                       help="superlevel counts of the dyadic maximal average")
    p.add_argument("--family", choices=("interval", "random", "primes", "ap"),
                   default="interval")
    p.add_argument("--size", type=int, default=1024)
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--lambda-grid", type=_float_list,
                   default=tuple(maximal.default_lambda_grid(10)))
    p.set_defaults(fn=_cmd_weak_type)

    p = sub.add_parser("lp-sweep", parents=[common],
                       help="maximal-operator norm ratios on random signals")
    p.add_argument("--p-list", type=_float_list, default=(1.25, 1.5, 2.0))
    p.add_argument("--seeds", type=int, default=8)
    p.add_argument("--support", type=int, default=256)
    p.add_argument("--n-max", type=int, default=10)
    p.set_defaults(fn=_cmd_lp_sweep)

    p = sub.add_parser("residue-equidist", parents=[common, frozen],
                       help="weak norms of filtered maximal averages on residue classes")
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--beta", type=float, default=0.75)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--support", type=int, default=512)
    p.add_argument("--resolution", type=int, default=1 << 14)
    p.set_defaults(fn=_cmd_residue)

    p = sub.add_parser("ergodic-demo", parents=[common],
                       help="prime orbit averages on a rotation or cyclic shift")
    p.add_argument("--system", choices=("rotation", "shift"), default="rotation")
    p.add_argument("--alpha", default="golden",
                   help="rotation angle: float in [0,1), 'golden', or 'silver'")
    p.add_argument("--alpha-cf-depth", type=int, default=None)
    p.add_argument("--modulus", type=int, default=97)
    p.add_argument("--set", type=_float_pair, default=(0.0, 0.5),
                   help="half-open indicator interval 'a,b'")
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--n-max", type=int, default=16)
    p.add_argument("--seeds", type=int, default=0,
                   help="number of random starting points (0: use --x0)")
    p.set_defaults(fn=_cmd_ergodic)

    p = sub.add_parser("orlicz-norm", parents=[common],
                       help="rearrangement norm of a (value,measure) CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--j-max", type=int, default=30)
    p.set_defaults(fn=_cmd_orlicz)

    return parser


def run(argv=None) -> int:
    """Run one command line (sys.argv[1:] when argv is None) and return its
    exit code.  The parser is the held entry 'parser' (ntheory._held), built
    by the first run and reused by every later one: parsing does not change
    it, and its list defaults are tuples, so no run can change what the next
    one parses."""
    parser = _held("parser", None, None, build_parser)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.threads < 1:
            raise DomainError("--threads must be >= 1")
        if getattr(args, "refreeze", False) and not args.fixtures:
            raise DomainError("--refreeze needs --fixtures")
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise DomainError(f"--out directory of {args.out} does not exist")
        return args.fn(args)
    except (DomainError, CapacityError, OSError, ValueError) as e:
        sys.stderr.write(f"primeavg: error: {e}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
