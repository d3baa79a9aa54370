"""The integer rule is written once, in ntheory.

Every entry point checks an integer argument through ntheory._integer, so
whether a bool, a float or a NumPy integer counts as an integer is one
decision.  This test reads the source of each primeavg module and fails
if another module spells out its own isinstance check against np.integer.
"""

from pathlib import Path

import pytest

import primeavg

_SOURCES = sorted(Path(primeavg.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", _SOURCES, ids=[p.name for p in _SOURCES])
def test_only_ntheory_spells_out_the_integer_rule(path):
    if path.name == "ntheory.py":
        assert "np.integer" in path.read_text()
    else:
        assert "np.integer" not in path.read_text(), \
            f"{path.name} has its own integer rule; call ntheory._integer"
