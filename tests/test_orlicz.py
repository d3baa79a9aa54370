"""Decreasing rearrangements and the L log^2 L log log L functional.

scipy.integrate.quad is the oracle for every integral here, computed from
the definition without going through the package's panel quadrature.  The
block evaluation of orlicz_norm is also held, bit for bit, to the
recursive route it replaced, which evaluates each bisection as its own
2 x 64 node block; that route is written out below.
"""

import math
import time

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

import primeavg.orlicz as oz
from primeavg.ntheory import DomainError, _dot


def _phi(t: float) -> float:
    return math.log1p(t) ** 2 * math.log1p(math.log(t))


def _norm_oracle(steps):
    """integral of f*(t) phi(1/t) over [0, 1] for [(value, lo, hi), ...]."""
    total = 0.0
    for a, lo, hi in steps:
        val, err = quad(lambda t: a * _phi(1.0 / t), max(lo, 1e-300), hi,
                        epsabs=1e-13, limit=400)
        assert err < 5e-8  # quad's own estimate near the t = 0 singularity
        total += val
    return total


def test_phi_weight_values_and_domain():
    assert oz.phi_weight(1.0) == 0.0
    want = math.log1p(math.e) ** 2 * math.log(2.0)
    assert oz.phi_weight(math.e) == pytest.approx(want, rel=1e-14)
    arr = oz.phi_weight(np.array([1.0, 2.0, 10.0]))
    assert arr[0] == 0.0 and np.all(np.diff(arr) > 0)
    with pytest.raises(DomainError):
        oz.phi_weight(0.5)


def test_rearrangement_of_two_step_example():
    # |f| = 3 on measure 1/4, 1 on measure 1/2, 0 on the rest
    r = oz.decreasing_rearrangement([(3.0, 0.25), (-1.0, 0.5), (0.0, 0.25)])
    assert r.values.tolist() == [3.0, 1.0]
    assert r.measures.tolist() == [0.25, 0.5]
    assert r.cuts.tolist() == [0.0, 0.25, 0.75]
    assert r.total_measure == 0.75
    # right-continuous evaluation, zero past the support
    assert r.evaluate(0.0) == 3.0
    assert r.evaluate(0.25) == 1.0   # breakpoint takes the right value
    assert r.evaluate(0.74) == 1.0
    assert r.evaluate(0.75) == 0.0
    assert r.evaluate(2.0) == 0.0


def test_rearrangement_merges_equal_magnitudes():
    r = oz.decreasing_rearrangement([(2.0, 0.1), (-2.0, 0.2), (1.0, 0.3)])
    assert r.values.tolist() == [2.0, 1.0]
    assert r.measures.tolist() == [pytest.approx(0.3), pytest.approx(0.3)]


def test_rearrangement_preserves_distribution():
    pairs = [(0.7, 0.2), (2.5, 0.1), (1.0, 0.25), (0.7, 0.05)]
    r = oz.decreasing_rearrangement(pairs)
    for s in [0.0, 0.5, 0.7, 0.9, 1.0, 2.4, 2.5, 3.0]:
        want = sum(m for v, m in pairs if abs(v) > s)
        assert r.distribution(s) == pytest.approx(want)


def test_rearrangement_validation():
    with pytest.raises(DomainError):
        oz.decreasing_rearrangement([(1.0, 0.6), (2.0, 0.6)])  # mass > 1
    with pytest.raises(DomainError):
        oz.decreasing_rearrangement([(1.0, -0.1)])
    with pytest.raises(DomainError):
        oz.StepRearrangement(values=np.array([1.0, 2.0]),
                             measures=np.array([0.1, 0.1]))  # not decreasing
    with pytest.raises(DomainError):
        oz.StepRearrangement(values=np.array([1.0, -2.0]),
                             measures=np.array([0.1, 0.1]))
    empty = oz.decreasing_rearrangement([])
    assert empty.total_measure == 0.0
    assert oz.orlicz_norm(empty) == 0.0


def test_rearrangement_takes_complex_magnitudes():
    r = oz.decreasing_rearrangement([(3 + 4j, 0.25), (-1j, 0.5)])
    assert r.values.tolist() == [5.0, 1.0]


def test_deepest_layer_is_normal_and_finite():
    r = oz.decreasing_rearrangement([(3.0, 0.25), (1.0, 0.5)])
    layers = oz.dyadic_layers(r, 1022)
    assert layers[-1] == (3.0, 2.0 ** -1022)
    assert math.isfinite(oz.layer_lower_bound(r, 1022))


def test_rearrangement_rejects_non_finite():
    nan, inf = math.nan, math.inf
    for pairs in ([(1.0, nan)], [(nan, 0.5)], [(inf, 0.5)], [(-inf, 0.5)],
                  [(1.0, inf)], [(nan, 0.0)]):
        with pytest.raises(DomainError):
            oz.decreasing_rearrangement(pairs)
    for v, m in ((nan, 0.5), (inf, 0.5), (1.0, nan)):
        with pytest.raises(DomainError):
            oz.StepRearrangement(values=np.array([v]), measures=np.array([m]))
    r = oz.decreasing_rearrangement([(2.0, 0.5)])
    with pytest.raises(DomainError):
        r.scale(inf)


def test_step_norms_against_quad():
    # steps broken at lo and hi: one step when lo = 0, else a higher step
    # on [0, lo) and a unit step on [lo, hi)
    for lo, hi in [(0.0, 1.0), (0.0, 0.5), (0.25, 0.75), (1e-6, 1e-3)]:
        if lo == 0.0:
            pairs, steps = [(1.0, hi)], [(1.0, 0.0, hi)]
        else:
            pairs = [(2.0, lo), (1.0, hi - lo)]
            steps = [(2.0, 0.0, lo), (1.0, lo, hi)]
        r = oz.decreasing_rearrangement(pairs)
        assert r.cuts.tolist() == sorted({0.0, lo, hi})
        assert oz.orlicz_norm(r) == pytest.approx(_norm_oracle(steps), abs=1e-9)


@pytest.mark.parametrize("mu", [1.0, 0.5, 0.25])
def test_indicator_norm_against_quad(mu):
    r = oz.decreasing_rearrangement([(1.0, mu)])
    want = _norm_oracle([(1.0, 0.0, mu)])
    assert oz.orlicz_norm(r) == pytest.approx(want, abs=1e-6)


def test_two_step_norm_against_quad():
    r = oz.decreasing_rearrangement([(3.0, 0.25), (1.0, 0.5)])
    want = _norm_oracle([(3.0, 0.0, 0.25), (1.0, 0.25, 0.75)])
    assert oz.orlicz_norm(r) == pytest.approx(want, abs=1e-8)


def test_norm_is_homogeneous_in_value_scale():
    r = oz.decreasing_rearrangement([(2.0, 0.125), (0.5, 0.25)])
    base = oz.orlicz_norm(r)
    assert oz.orlicz_norm(r.scale(3.0)) == pytest.approx(3.0 * base, rel=1e-9)
    with pytest.raises(DomainError):
        r.scale(0.0)


@pytest.mark.parametrize("pairs", [[(1e9, 0.1)], [(1e9, 0.1), (1.0, 0.5)]])
def test_norm_of_a_huge_step_stops_at_the_rounding_floor(pairs):
    # the 1e9 step's share of the tolerance is below the rounding noise of
    # every panel value, so only the relative floor can accept its panels
    r = oz.decreasing_rearrangement(pairs)
    start = time.perf_counter()
    norm = oz.orlicz_norm(r)
    assert time.perf_counter() - start < 1.0
    assert math.isfinite(norm)
    want, lo = 0.0, 0.0
    for a, m in pairs:
        val, _ = quad(lambda t: _phi(1.0 / t), max(lo, 1e-300), lo + m,
                      epsabs=0.0, epsrel=1e-13, limit=400)
        want += a * val
        lo += m
    assert norm == pytest.approx(want, rel=1e-9)


def test_layers_need_an_integer_depth():
    r = oz.decreasing_rearrangement([(3.0, 0.25), (1.0, 0.5)])
    for j_max in (2.5, math.nan, 3.0, -1):
        with pytest.raises(DomainError):
            oz.dyadic_layers(r, j_max)
        with pytest.raises(DomainError):
            oz.layer_lower_bound(r, j_max)
    assert oz.layer_lower_bound(r, np.int64(3)) == oz.layer_lower_bound(r, 3)


def test_dyadic_layers_right_continuous_heights():
    r = oz.decreasing_rearrangement([(3.0, 0.25), (1.0, 0.5)])
    layers = oz.dyadic_layers(r, j_max=4)
    assert [a for a, _m in layers] == [1.0, 1.0, 3.0, 3.0]
    assert [m for _a, m in layers] == [0.5, 0.25, 0.125, 0.0625]
    with pytest.raises(DomainError):
        oz.dyadic_layers(r, j_max=0)


def test_layer_bound_sits_below_norm_on_random_inputs(rng):
    for _ in range(50):
        k = int(rng.integers(1, 12))
        raw_m = rng.random(k)
        m = raw_m / raw_m.sum() * float(rng.uniform(0.3, 1.0))
        v = rng.lognormal(mean=0.0, sigma=2.0, size=k)
        r = oz.decreasing_rearrangement(list(zip(v, m)))
        norm = oz.orlicz_norm(r)
        bound = oz.layer_lower_bound(r)
        assert bound <= norm + 1e-9


def test_layer_bound_zero_for_empty():
    assert oz.layer_lower_bound(oz.decreasing_rearrangement([])) == 0.0


_NODES, _WEIGHTS = leggauss(64)


def _recursive_panels(edges):
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    vals = oz.phi_weight(1.0 / (mid[:, None] + half[:, None] * _NODES))
    return [h * float(_dot(v, _WEIGHTS)) for h, v in zip(half.tolist(), vals)]


def _recursive_adaptive(lo, hi, tol, whole, depth=0):
    mid = 0.5 * (lo + hi)
    left, right = _recursive_panels(np.array([lo, mid, hi]))
    split = left + right
    err = abs(split - whole)
    if (err <= tol or err <= 64 * np.finfo(np.float64).eps * abs(split) or depth >= 60
            or hi - lo < 1e-300):
        return split
    return (_recursive_adaptive(lo, mid, 0.5 * tol, left, depth + 1)
            + _recursive_adaptive(mid, hi, 0.5 * tol, right, depth + 1))


def _recursive_norm(r):
    """orlicz_norm as one recursion per step, each bisection its own block."""
    cuts = r.cuts
    total = 0.0
    for a, lo, hi in zip(r.values, cuts[:-1], cuts[1:]):
        if hi > 1.0:
            hi = 1.0
        if hi <= lo:
            continue
        whole, = _recursive_panels(np.array([lo, hi]))
        total += a * _recursive_adaptive(lo, hi, 1e-9 / (r.values.size * max(a, 1.0)), whole)
    return total


def _audit_shaped(rng, count):
    """Step functions like the benchmark's audit inputs: 3 to 15 steps,
    lognormal values, random measures summing to 1."""
    batch = []
    for _ in range(count):
        k = int(rng.integers(3, 16))
        meas = rng.random(k)
        batch.append(list(zip(rng.lognormal(0.0, 2.0, size=k).tolist(),
                              (meas / meas.sum()).tolist())))
    return batch


_EDGE_STEPS = {
    "huge-step-then-unit": [(1e9, 0.1), (1.0, 0.5)],
    "value-1e300": [(1e300, 0.5)],
    "full-measure": [(1.0, 1.0)],
    "short-first-step": [(2.0, 1e-6), (1.0, 1e-3)],
    # the planned chain at the origin runs into nodes whose 1/t overflows,
    # past the panels the rule reads; they must neither raise nor warn
    "first-step-1e-295": [(1.0, 1e-295)],
    "first-step-1e-295-then-half": [(2.0, 1e-295), (1.0, 0.5)],
    "measure-below-rounding": [(1.0, 0.5), (0.5, 1e-17)],
}


@pytest.mark.parametrize("pairs", _EDGE_STEPS.values(), ids=_EDGE_STEPS.keys())
def test_block_norm_matches_the_recursive_route_on_edge_steps(pairs):
    r = oz.decreasing_rearrangement(pairs)
    assert float(oz.orlicz_norm(r)).hex() == float(_recursive_norm(r)).hex()


def test_block_norm_matches_the_recursive_route_bit_for_bit(rng):
    batch = _audit_shaped(rng, 30)
    for _ in range(20):  # 1 to 40 steps, total measure below 1
        k = int(rng.integers(1, 41))
        m = rng.random(k)
        m = m / m.sum() * float(rng.uniform(0.05, 1.0))
        batch.append(list(zip(rng.lognormal(0.0, 3.0, size=k).tolist(), m.tolist())))
    for pairs in batch:
        r = oz.decreasing_rearrangement(pairs)
        assert float(oz.orlicz_norm(r)).hex() == float(_recursive_norm(r)).hex()


def test_phi_weight_bits_do_not_depend_on_the_block(rng):
    # the block route relies on each element's bits being the same whatever
    # the length and shape of the array it is evaluated in
    t = 1.0 / rng.uniform(1e-12, 1.0, size=(37, 64))
    t[0] = np.exp(rng.uniform(0.0, 690.0, size=64))
    block = oz.phi_weight(t)
    for i in range(len(t)):
        assert block[i].tobytes() == oz.phi_weight(t[i]).tobytes()
        assert block[i].tobytes() == oz.phi_weight(t[i:i + 2])[0].tobytes()
        assert block[i, 5] == oz.phi_weight(float(t[i, 5]))


def test_norm_evaluates_its_panels_in_one_block(rng, monkeypatch):
    # a count, not a timing: the recursive route made about 130 phi_weight
    # calls per norm on these inputs, one per bisection
    calls = []
    phi = oz.phi_weight
    monkeypatch.setattr(oz, "phi_weight", lambda t: calls.append(1) or phi(t))
    batch = _audit_shaped(rng, 50)
    for pairs in batch:
        oz.orlicz_norm(oz.decreasing_rearrangement(pairs))
    assert 0 < len(calls) <= 2 * len(batch)
