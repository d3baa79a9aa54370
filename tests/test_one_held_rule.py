"""The held-entry rule is written once, in ntheory.

A run of calls that repeats work on one input (ell^p ratios per exponent,
orbit traces per start, residue-class norms per class, command lines per
process) reuses one entry per name through ntheory._held.  The first test
reads the source of each primeavg module and fails if another module keeps
state of its own with a `global` statement.  The others check the rule's
contract: the key by equality and the table by identity, read-only values,
the held entry dropped before a new one is built, and nothing held when a
build fails.
"""

import ast
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import primeavg
import primeavg.ntheory as nt
from primeavg.ntheory import _held

_SOURCES = sorted(Path(primeavg.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", _SOURCES, ids=[p.name for p in _SOURCES])
def test_only_ntheory_may_spell_global(path):
    text = path.read_text()
    if path.name == "ntheory.py":
        assert "def _held(" in text
        return
    names = [n for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Global)
             for n in node.names]
    assert not names, f"{path.name} holds {names} on its own; call ntheory._held"


@pytest.fixture()
def store(monkeypatch):
    monkeypatch.setattr(nt, "_HELD", {})
    return nt._HELD


class _Table:
    pass


def test_a_hit_needs_an_equal_key_and_the_same_table(store):
    built = []

    def build():
        built.append(len(built))
        return np.arange(3.0), np.arange(2)

    table, twin = _Table(), _Table()
    first = _held("x", (1, b"ab"), table, build)
    assert _held("x", (1, b"ab"), table, build) is first
    assert len(built) == 1
    assert _held("x", (1, b"ac"), table, build) is not first  # another key
    assert _held("x", (1, b"ac"), twin, build) is not first  # another table object
    assert len(built) == 3
    assert _held("y", (1, b"ac"), twin, build) is not store["x"][2]  # one entry per name
    assert len(built) == 4 and set(store) == {"x", "y"}
    assert not any(a.flags.writeable for a in store["x"][2])


def test_a_miss_drops_the_held_entry_before_it_builds(store):
    seen = []

    def build():
        seen.append(store.get("x"))
        return np.zeros(4)

    held = _held("x", 1, None, build)
    assert not held.flags.writeable
    _held("x", 2, None, build)
    assert seen == [None, None]
    assert store["x"][0] == 2


def test_a_failed_build_holds_nothing(store):
    _held("x", 1, None, lambda: np.zeros(2))

    def fail():
        raise ValueError("no value")

    with pytest.raises(ValueError):
        _held("x", 2, None, fail)
    assert store["x"] is None
    assert _held("parser", None, None, lambda: "anything") == "anything"  # not an array


def test_threads_that_race_get_the_value_of_their_own_key(store):
    # a hit returns the value of the entry whose key it compared, even while
    # other threads drop and replace that entry
    wrong, done = [], []

    def worker(seed):
        for i in range(2000):
            key = (seed + i // 8) % 3  # runs of hits, broken by the other threads
            try:
                got = _held("x", key, None, lambda: np.full(4, key))
            except TypeError as e:  # a hit that read the entry again, after a drop
                got = e
            if not (isinstance(got, np.ndarray) and (got == key).all()):
                wrong.append((key, got))
        done.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == list(range(8)) and not wrong
