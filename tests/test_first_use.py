"""Importing primeavg only defines things; a table or module is built or
loaded when a call first needs it.

The guards run in a fresh interpreter, since this one has loaded whatever
the other tests needed.  Importing every module, and running the weak-type
and ell^p sweeps on one thread, loads none of numpy.polynomial (whose
leggauss builds the Gauss-Legendre rule), numpy.ma (which np.unique and
np.median import), fractions, decimal or concurrent.futures, and leaves the
Gauss-Legendre memo empty.  The oracles check that each first-use route
keeps every bit of the eager one it replaced.
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import primeavg
import primeavg.characters as ch
import primeavg.ergodic as er
import primeavg.maximal as mx
import primeavg.ntheory as nt

_LAZY = ("numpy.polynomial", "numpy.ma", "fractions", "decimal", "concurrent.futures")

_CHILD = """
import importlib, json, os, sys
import primeavg
for name in primeavg.__all__:
    importlib.import_module("primeavg." + name)
from primeavg import cli, ntheory
for argv in json.loads(sys.argv[1]):
    assert cli.run(argv + ["--out", os.devnull]) == 0, argv
print(json.dumps({"loaded": [m for m in json.loads(sys.argv[2]) if m in sys.modules],
                  "gl_rules": ntheory._gl_rule.cache_info().currsize}))
"""


def _loaded_after(*argvs) -> dict:
    """What a fresh interpreter has loaded once it has imported every
    primeavg module and run the given command lines."""
    src = str(Path(primeavg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs), json.dumps(_LAZY)],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_importing_every_module_loads_nothing_lazy():
    assert _loaded_after() == {"loaded": [], "gl_rules": 0}


_WEAK = ["weak-type-sweep", "--size", "64", "--n-max", "8", "--threads", "1"]
_LP = ["lp-sweep", "--seeds", "2", "--support", "16", "--n-max", "6"]


def test_one_thread_sweeps_load_nothing_lazy():
    # the ergodic command is left out: its np.median imports numpy.ma itself
    out = _loaded_after(*[_WEAK + ["--family", f] for f in ("interval", "random", "primes")],
                        _LP + ["--threads", "1"])
    assert out == {"loaded": [], "gl_rules": 0}


def test_two_threads_load_the_pool():
    # the positive control: the guard sees a module that a run does load
    assert _loaded_after(_LP + ["--threads", "2"])["loaded"] == ["concurrent.futures"]


# --- every first-use route keeps the bits of the eager one ---


def test_gl_rule_is_leggauss_64_read_only_and_built_once():
    nodes, weights = nt._gl_rule()
    want_nodes, want_weights = leggauss(64)
    assert nodes.tobytes() == want_nodes.tobytes()
    assert weights.tobytes() == want_weights.tobytes()
    for a in (nodes, weights):
        with pytest.raises(ValueError):
            a[0] = 0.0
    assert nt._gl_rule() is nt._gl_rule()


def test_euler_maclaurin_coefficients_equal_their_fractions():
    bernoulli = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
                 Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
                 Fraction(43867, 798), Fraction(-174611, 330), Fraction(854513, 138)]
    want = [float(b / math.factorial(2 * j)) for j, b in enumerate(bernoulli, start=1)]
    assert len(ch._EM_COEF) == len(want)
    assert np.array(ch._EM_COEF).tobytes() == np.array(want).tobytes()
    assert ch._EM_NEXT == float(Fraction(236364091, 2730) / math.factorial(24))


def _fraction_cf(x: float) -> list[int]:
    """The partial quotients of Fraction(x) in [0, 1), past a0 = 0."""
    p, q, out = Fraction(x).numerator, Fraction(x).denominator, []
    while q:
        a, r = divmod(p, q)
        out.append(a)
        p, q = q, r
    return out[1:]


@pytest.mark.parametrize("alpha", [0.0, 0.25, 1 / 3, 0.1, math.pi - 3, 2 ** -1074,
                                   math.nextafter(1.0, 0.0), 0.6180339887498949])
def test_rotation_takes_the_convergent_of_fraction_alpha(alpha):
    assert alpha.as_integer_ratio() == (Fraction(alpha).numerator, Fraction(alpha).denominator)
    cf = _fraction_cf(alpha)
    for cf_depth in (None, 1, 3, 12, 1000):
        want = er._convergent_in_range(cf if cf_depth is None else cf[:cf_depth])
        got = er.DynamicalSystem.rotation(alpha, cf_depth=cf_depth)
        assert (got.num, got.den) == want, cf_depth


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.int64, np.uint64])
def test_indicator_equals_the_sorted_unique_construction(dtype):
    rng = np.random.default_rng(11)
    signed = np.dtype(dtype).kind == "i"
    pts = rng.integers(-60 if signed else 0, 100, size=200).astype(dtype)
    for points in (pts, pts[::-1], np.repeat(pts[:3], 4), pts[:1]):
        u = np.unique(points).astype(np.int64)
        want = np.zeros(int(u[-1]) - int(u[0]) + 1)
        want[u - u[0]] = 1.0
        got = mx.Signal.indicator(points)
        assert got.offset == int(u[0]) and type(got.offset) is int
        assert got.values.tobytes() == want.tobytes()
    listed = mx.Signal.indicator([5, -3, 5, 0, -3])
    assert listed.offset == -3 and listed.values.tolist() == [1, 0, 0, 1, 0, 0, 0, 0, 1]
