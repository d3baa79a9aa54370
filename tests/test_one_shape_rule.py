"""The shape rule is written once, in ntheory.

Every entry that takes a number or an array of points answers through
ntheory._shaped: a Python float or complex for a number, the array for an
array.  The first test reads the source of each primeavg module and fails
if another module spells out its own test of whether its input is a
number.  The second calls each such entry on a number, a NumPy number and
an array of three points, and checks the type and shape of the answer, and
that the number's answer is the array's entry at that point.
"""

from pathlib import Path

import numpy as np
import pytest

import primeavg
import primeavg.gauss as ga
import primeavg.maximal as mx
import primeavg.multipliers as mp
from primeavg.characters import enumerate_characters, l_function_real
from primeavg.ntheory import sieve_primes
from primeavg.orlicz import StepRearrangement, phi_weight

_SOURCES = sorted(Path(primeavg.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", _SOURCES, ids=[p.name for p in _SOURCES])
def test_only_ntheory_spells_out_the_shape_rule(path):
    text = path.read_text()
    if path.name == "ntheory.py":
        assert "np.ndim(" in text
    else:
        assert "np.ndim(" not in text and ".ndim == 0" not in text, \
            f"{path.name} has its own shape rule; call ntheory._shaped"


_TABLE = sieve_primes(1 << 8)
_CHI_REAL = next(c for c in enumerate_characters(7) if c.kind == "quadratic")
_CHI_COMPLEX = next(c for c in enumerate_characters(7) if c.kind == "other")
_STEPS = StepRearrangement(values=np.array([2.0, 1.0]), measures=np.array([0.25, 0.5]))
_REAL_POINTS = [0.1, 0.3, -0.05]
_INT_POINTS = [1, 3, 6]

# entry, its points, and the type of its answer at one point
_ENTRIES = {
    "eta": (mp.eta, _REAL_POINTS, float),
    "eta_s": (lambda x: mp.eta_s(1, x), [0.01, 0.02, -0.005], float),
    "fourier_kernel": (lambda x: mp.fourier_kernel(mp.kernel_delta(2), x),
                       _REAL_POINTS, complex),
    "fourier_M_beta-1": (lambda x: mp.fourier_M_beta(8, 1.0, x), _REAL_POINTS, complex),
    "fourier_M_beta-0.75": (lambda x: mp.fourier_M_beta(8, 0.75, x), _REAL_POINTS, complex),
    "approximant_hat": (lambda x: mp.approximant_hat(1, 3, 8, x), _REAL_POINTS, complex),
    "nu_n_s": (lambda x: mp.nu_n_s(4, 1, x), [0.5, 0.52, 0.3], complex),
    "nu_n": (lambda x: mp.nu_n(4, x, s_max=2), _REAL_POINTS, complex),
    "prime_multiplier": (lambda x: mp.prime_multiplier(16, x, _TABLE), _REAL_POINTS, complex),
    "l_function_real-real": (lambda s: l_function_real(_CHI_REAL, s), [0.5, 1.0, 1.5], float),
    "l_function_real-complex": (lambda s: l_function_real(_CHI_COMPLEX, s),
                                [0.5, 1.0, 1.5], complex),
    "phi_weight": (phi_weight, [1.0, 2.5, 100.0], float),
    "evaluate": (_STEPS.evaluate, [0.0, 0.3, 0.9], float),
    "Signal.at-real": (mx.Signal.interval(2, 3).at, _INT_POINTS, float),
    "Signal.at-complex": (mx.Signal(offset=0, values=np.array([1j, 2.0, 3.0, 4.0])).at,
                          [0, 1, 5], complex),
    "gauss_sum_closed": (lambda a: ga.gauss_sum_closed(_CHI_REAL, a), _INT_POINTS, complex),
    "twisted_character_sum_closed": (
        lambda x: ga.twisted_character_sum_closed(_CHI_COMPLEX, x), [0, 3, 7], complex),
    "gauss_exponential_sum": (lambda x: ga.gauss_exponential_sum(_CHI_COMPLEX, x),
                              [0, 3, 7], complex),
    "ramanujan_gauss_principal": (lambda a: ga.ramanujan_gauss_principal(6, a),
                                  [0, 2, 5], float),
}


@pytest.mark.parametrize("entry, points, kind", _ENTRIES.values(), ids=_ENTRIES.keys())
def test_a_number_gets_a_python_number_and_an_array_an_array(entry, points, kind):
    arr = np.array(points)
    out = entry(arr)
    assert type(out) is np.ndarray and out.shape == arr.shape
    for i, x in enumerate(points):
        for number in (x, arr[i]):  # a Python number, then a NumPy one
            got = entry(number)
            assert type(got) is kind, (number, type(got))
            assert got == pytest.approx(out[i], rel=1e-12, abs=1e-15)
