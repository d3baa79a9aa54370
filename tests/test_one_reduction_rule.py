"""The reduction rule is written once, in ntheory.

Every float sum of products, norm and table fit goes through ntheory._dot,
numpy's pairwise sum of each output's own products, so that no printed
number depends on the BLAS kernel (a matrix product rounds a row by its
place in the block, and a least-squares fit by its LAPACK kernel) or on the
other rows of a call.  The first test reads the source of each primeavg
module and fails if another module spells out a matrix product, a BLAS or
LAPACK call or a polynomial fit.  The others check the rule's contract: an
output of _dot is the one its row gives alone, in either memory order, and
an L value is the one its point gives alone.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import primeavg
from primeavg.characters import enumerate_characters, l_function_real
from primeavg.ntheory import _dot

_SOURCES = sorted(Path(primeavg.__file__).parent.glob("*.py"))
_SPELLED = re.compile(r"\bmatmul\b|\.dot\b|\bnp\.(inner|vdot|tensordot|einsum|linalg)\b"
                      r"|[a-z]*fit\(")


@pytest.mark.parametrize("path", _SOURCES, ids=[p.name for p in _SOURCES])
def test_only_ntheory_spells_out_a_reduction(path):
    text = path.read_text()
    if path.name == "ntheory.py":
        assert "np.add.reduce(" in text
        return
    spelled = [m.group(0) for m in _SPELLED.finditer(text)]
    spelled += ["@" for node in ast.walk(ast.parse(text)) if isinstance(node, ast.MatMult)]
    assert not spelled, f"{path.name} reduces on its own ({spelled}); call ntheory._dot"


@pytest.mark.parametrize("shape", [(7, 3), (33, 120), (1000, 9), (3, 5, 64)])
@pytest.mark.parametrize("kind", ["real", "complex-real", "complex"])
def test_each_output_is_its_own_row_summed_alone(shape, kind):
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape)
    w = rng.standard_normal(shape[-1])
    if kind != "real":
        a = a + 1j * rng.standard_normal(shape)
    if kind == "complex":
        w = w + 1j * rng.standard_normal(shape[-1])
    full = _dot(a, w)
    rows = a.reshape(-1, shape[-1])
    alone = np.array([_dot(r, w) for r in rows]).reshape(shape[:-1])
    assert np.array_equal(full, alone)
    assert np.array_equal(full, _dot(np.asfortranarray(a), w))
    assert np.allclose(full, a @ w, rtol=1e-12, atol=1e-12)


def test_an_l_value_depends_on_its_own_point_alone():
    # slices of 1, 2, 3 and 7 points out of one 65-point call; the
    # matrix-vector product rounded these by their place in the block
    s = np.linspace(0.5, 1.0, 65)
    for q in range(3, 31):
        for chi in enumerate_characters(q)[1:]:
            full = l_function_real(chi, s)
            for lo, size in ((0, 1), (10, 2), (31, 3), (58, 7)):
                part = l_function_real(chi, s[lo:lo + size])
                assert np.array_equal(part, full[lo:lo + size]), (q, lo, size)
