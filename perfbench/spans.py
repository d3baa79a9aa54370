"""Span tracing installed from outside the package, and per-layer metrics.

`install` wraps every public function of each primeavg module (plus the
methods listed in METHODS) and the `numpy.fft` transforms.  Every alias a
module holds through `from ... import` is rebound to the same wrapper, so
calls such as `maximal.prime_kernel` or `cli.sieve_primes` are seen too.
FFT time is charged to the module whose code called `numpy.fft`.

A span records its kind, parent, start, end, and for some kinds a point
count (frequencies evaluated, or FFT length times batch) and a computed
flop count (5 n log2 n per transform; an n-d transform counts its input
size as n).  Spans stay in compact arrays in
memory and are written out once, at the end of the traced process;
`derive` turns them into self times, call counts and point counts.  A
layer's self time is its span time minus the part covered by child spans,
so the self times of all spans add up to the time of the root spans.

The tracer keeps one span stack and assumes one thread.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from array import array
from time import perf_counter

import numpy as np

# Per-layer metrics, in report order: (name, unit).
PER_LAYER = [
    ("ntheory.sieve_s", "s"), ("ntheory.sieve_calls", "count"),
    ("ntheory.arith_s", "s"), ("ntheory.arith_calls", "count"),
    ("ntheory.self_s", "s"),
    ("characters.lfun_s", "s"), ("characters.lfun_calls", "count"),
    ("characters.enum_s", "s"), ("characters.self_s", "s"),
    ("gauss.closed_s", "s"), ("gauss.closed_calls", "count"),
    ("gauss.brute_s", "s"), ("gauss.audit_self_s", "s"), ("gauss.self_s", "s"),
    ("multipliers.cutoff_time_s", "s"), ("multipliers.cutoff_points", "count"),
    ("multipliers.mbeta_s", "s"), ("multipliers.mbeta_points", "count"),
    ("multipliers.nu_grid_s", "s"), ("multipliers.nu_grid_calls", "count"),
    ("multipliers.kernel_grid_s", "s"),
    ("multipliers.kernel_grid_calls", "count"),
    ("multipliers.prime_kernel_calls", "count"),
    ("multipliers.self_s", "s"), ("multipliers.fft_s", "s"),
    ("maximal.self_s", "s"), ("maximal.calls", "count"),
    ("maximal.fft_s", "s"), ("maximal.fft_calls", "count"),
    ("maximal.fft_points", "count"), ("maximal.fft_gflop", "Gflop"),
    ("ergodic.self_s", "s"), ("ergodic.fft_s", "s"),
    ("orlicz.self_s", "s"),
    ("cli.self_s", "s"), ("cli.report_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"), ("trace.wall_s", "s"),
    ("trace.setup_s", "s"), ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
]

# Metric group -> (time, calls, points, gflop) metric names.
GROUPS = {
    "ntheory.sieve": ("ntheory.sieve_s", "ntheory.sieve_calls", None, None),
    "ntheory.arith": ("ntheory.arith_s", "ntheory.arith_calls", None, None),
    "ntheory.self": ("ntheory.self_s", None, None, None),
    "characters.lfun": ("characters.lfun_s", "characters.lfun_calls", None, None),
    "characters.enum": ("characters.enum_s", None, None, None),
    "characters.self": ("characters.self_s", None, None, None),
    "gauss.closed": ("gauss.closed_s", "gauss.closed_calls", None, None),
    "gauss.brute": ("gauss.brute_s", None, None, None),
    "gauss.audit": ("gauss.audit_self_s", None, None, None),
    "gauss.self": ("gauss.self_s", None, None, None),
    "multipliers.eta": ("multipliers.cutoff_time_s", None,
                        "multipliers.cutoff_points", None),
    "multipliers.eta_s": ("multipliers.cutoff_time_s", None, None, None),
    "multipliers.mbeta": ("multipliers.mbeta_s", None,
                          "multipliers.mbeta_points", None),
    "multipliers.nu_grid": ("multipliers.nu_grid_s", "multipliers.nu_grid_calls",
                            None, None),
    "multipliers.kernel_grid": ("multipliers.kernel_grid_s",
                                "multipliers.kernel_grid_calls", None, None),
    "multipliers.prime_kernel": ("multipliers.self_s",
                                 "multipliers.prime_kernel_calls", None, None),
    "multipliers.self": ("multipliers.self_s", None, None, None),
    "multipliers.fft": ("multipliers.fft_s", None, None, None),
    "maximal.self": ("maximal.self_s", "maximal.calls", None, None),
    "maximal.fft": ("maximal.fft_s", "maximal.fft_calls", "maximal.fft_points",
                    "maximal.fft_gflop"),
    "ergodic.self": ("ergodic.self_s", None, None, None),
    "ergodic.fft": ("ergodic.fft_s", None, None, None),
    "orlicz.self": ("orlicz.self_s", None, None, None),
    "cli.self": ("cli.self_s", None, None, None),
}

# Functions with a group of their own; every other public function of a
# layer belongs to "<layer>.self".
FUNCTION_GROUP = {
    ("ntheory", "sieve_primes"): "ntheory.sieve",
    **{("ntheory", f): "ntheory.arith"
       for f in ("factorize", "euler_phi", "mobius", "divisors")},
    ("characters", "l_function_real"): "characters.lfun",
    **{("characters", f): "characters.enum"
       for f in ("enumerate_characters", "enumerate_quadratic_characters",
                 "conductor")},
    **{("gauss", f): "gauss.closed"
       for f in ("gauss_sum_closed", "twisted_character_sum_closed",
                 "gauss_exponential_sum", "tau", "ramanujan_gauss_principal")},
    **{("gauss", f): "gauss.brute"
       for f in ("gauss_sum_bruteforce", "gauss_sum_bruteforce_all")},
    **{("gauss", f): "gauss.audit"
       for f in ("verify_quadratic_range", "verify_quadratic_rows")},
    ("multipliers", "eta"): "multipliers.eta",
    ("multipliers", "eta_s"): "multipliers.eta_s",
    ("multipliers", "fourier_M_beta"): "multipliers.mbeta",
    **{("multipliers", f): "multipliers.nu_grid"
       for f in ("nu_n_s_grid", "nu_n_grid", "pi_n_t_grid")},
    **{("multipliers", f): "multipliers.kernel_grid"
       for f in ("fourier_kernel_grid", "prime_multiplier_grid")},
    ("multipliers", "prime_kernel"): "multipliers.prime_kernel",
}

# Methods traced besides the module-level functions.
METHODS = {"ergodic": (("DynamicalSystem", "orbit_positions"),)}

# Positional index and keyword name of the frequency argument whose size is
# the span's point count.
POINTS_ARG = {("multipliers", "eta"): (0, "xi"),
              ("multipliers", "fourier_M_beta"): (2, "theta")}

FFT_FUNCS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2", "ifft2",
             "fftn", "ifftn", "rfft2", "irfft2", "rfftn", "irfftn")
_FFT_1D = {"fft", "ifft", "rfft", "irfft", "hfft", "ihfft"}
_FFT_HALF = {"irfft", "hfft"}  # input holds n // 2 + 1 of the n points


class Tracer:
    """In-memory span store with one open-span stack."""

    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self.flop = array("d")
        self._stack = [-1]

    def kind_id(self, label: str) -> int:
        k = self._ids.get(label)
        if k is None:
            k = self._ids[label] = len(self.labels)
            self.labels.append(label)
        return k

    def open(self, kind: int, points: int = 0, flop: float = 0.0) -> int:
        i = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self._stack[-1])
        self.points.append(points)
        self.flop.append(flop)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def save(self, path) -> None:
        np.savez(path, labels=np.asarray(self.labels, dtype=str),
                 kind=np.frombuffer(self.kind, dtype=np.intc),
                 parent=np.frombuffer(self.parent, dtype=np.intc),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 points=np.frombuffer(self.points, dtype=np.int64),
                 flop=np.frombuffer(self.flop, dtype=np.float64))


def _points_getter(spec):
    if spec is None:
        return None
    index, keyword = spec

    def points(args, kwargs) -> int:
        value = args[index] if len(args) > index else kwargs.get(keyword)
        return int(np.size(value))

    return points


def _wrap_function(tracer: Tracer, fn, kind: int, points_of):
    if inspect.isgeneratorfunction(fn):
        # one span per resumption: the work runs while the consumer iterates
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                i = tracer.open(kind)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close(i)
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(kind, points_of(args, kwargs) if points_of else 0)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)
    return wrapper


def _fft_size(name: str, a, args, kwargs) -> tuple[int, int]:
    """(transform length n, number of transforms) of one numpy.fft call."""
    arr = np.asarray(a)
    if name not in _FFT_1D:
        return arr.size, 1
    n = kwargs.get("n", args[0] if args else None)
    axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
    m = arr.shape[axis]
    if n is None:
        n = 2 * (m - 1) if name in _FFT_HALF else m
    return int(n), arr.size // m if m else 0


def _wrap_fft(tracer: Tracer, fn, name: str):
    kinds: dict[str, int] = {}

    @functools.wraps(fn)
    def wrapper(a, *args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "?")
        layer = caller[len("primeavg."):] if caller.startswith("primeavg.") else caller
        k = kinds.get(layer)
        if k is None:
            k = kinds[layer] = tracer.kind_id(f"fft:{layer}:{name}")
        n, batch = _fft_size(name, a, args, kwargs)
        flop = 5.0 * n * math.log2(n) * batch if n > 1 else 0.0
        i = tracer.open(k, n * batch, flop)
        try:
            return fn(a, *args, **kwargs)
        finally:
            tracer.close(i)
    return wrapper


def install(tracer: Tracer, modules: dict) -> None:
    """Trace the public functions of `modules` (layer name -> module).

    Raises LookupError if a function or method named in FUNCTION_GROUP,
    POINTS_ARG or METHODS is gone, so that a renamed or merged function
    fails the traced run instead of reading 0.
    """
    wrapped: dict[int, tuple] = {}
    seen: set[tuple[str, str]] = set()
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            seen.add((layer, name))
            kind = tracer.kind_id(f"fn:{layer}:{name}")
            wrapper = _wrap_function(tracer, obj, kind,
                                     _points_getter(POINTS_ARG.get((layer, name))))
            wrapped[id(obj)] = (obj, wrapper)
        for cls_name, meth in METHODS.get(layer, ()):
            cls = getattr(mod, cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if inspect.isfunction(fn):
                seen.add((layer, f"{cls_name}.{meth}"))
                kind = tracer.kind_id(f"fn:{layer}:{cls_name}.{meth}")
                setattr(cls, meth, _wrap_function(tracer, fn, kind, None))
    named = {*FUNCTION_GROUP, *POINTS_ARG,
             *((layer, f"{c}.{m}") for layer, ms in METHODS.items() for c, m in ms)}
    missing = sorted(f"{layer}.{name}" for layer, name in named - seen if layer in modules)
    if missing:
        raise LookupError("traced functions not found: " + ", ".join(missing))
    # rebind every alias, including `from .x import f` copies in other modules
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "primeavg" or mod_name.startswith("primeavg.")):
            continue
        for name, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
    for name in FFT_FUNCS:
        fn = getattr(np.fft, name, None)
        if fn is not None:
            setattr(np.fft, name, _wrap_fft(tracer, fn, name))


def group_of(label: str) -> str | None:
    """Metric group of a span label, or None for roots and unlisted spans."""
    kind, _, rest = label.partition(":")
    layer, _, name = rest.partition(":")
    if kind == "fn":
        group = FUNCTION_GROUP.get((layer, name), f"{layer}.self")
    elif kind == "fft":
        group = f"{layer}.fft"
    else:
        return None
    return group if group in GROUPS else None


def derive(spans) -> dict[str, float]:
    """Per-layer metrics from saved spans.

    trace.overhead_ratio and cli.report_bytes read 0 here: run.py fills them
    in from the untraced samples and the step outputs.
    """
    labels = [str(x) for x in spans["labels"]]
    kind = spans["kind"].astype(np.int64)
    parent = spans["parent"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    n = kind.size
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=n)
    self_time = dur - covered
    k = len(labels)
    self_by = np.bincount(kind, weights=self_time, minlength=k)
    calls_by = np.bincount(kind, minlength=k)
    points_by = np.bincount(kind, weights=spans["points"].astype(np.float64),
                            minlength=k)
    flop_by = np.bincount(kind, weights=spans["flop"], minlength=k)
    dur_by = np.bincount(kind, weights=dur, minlength=k)

    out = {name: 0.0 for name, _ in PER_LAYER}
    unattributed = 0.0
    for i, label in enumerate(labels):
        group = group_of(label)
        if group is None:
            unattributed += self_by[i]
            if label.startswith("root:step:"):
                out["trace.wall_s"] += dur_by[i]
            elif label == "root:setup":
                out["trace.setup_s"] += dur_by[i]
            continue
        time_m, calls_m, points_m, gflop_m = GROUPS[group]
        out[time_m] += self_by[i]
        if calls_m:
            out[calls_m] += int(calls_by[i])
        if points_m:
            out[points_m] += int(points_by[i])
        if gflop_m:
            out[gflop_m] += flop_by[i] / 1e9
    out["trace.unattributed_s"] = unattributed
    out["trace.spans"] = n
    return {name: float(v) for name, v in out.items()}
