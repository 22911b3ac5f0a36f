import pytest

from conich1 import enumeration
from conich1.enumeration import _enumerate_full, _enumerate_guided, enumerate_wdn

_guided_cache = {}
_walk_cache = {}
_full_cache = {}


@pytest.fixture(scope="session")
def guided_walk():
    """Memoized enumeration._enumerate_guided: the rank 6/7 walks take about
    5-7 s and 50-70 s of CPU, so the tests of the clean classes at each
    rank and the guided enumeration share one walk.  Each call returns
    fresh containers, as enumerate_wdn adds to the stats it gets."""

    def run(n):
        if n not in _walk_cache:
            _walk_cache[n] = _enumerate_guided(n)
        groups, stats = _walk_cache[n]
        return list(groups), dict(stats)

    return run


@pytest.fixture(scope="session")
def guided_enumeration(guided_walk):
    """Memoized generator-guided enumeration, run on the memoized walk."""

    def run(n):
        if n not in _guided_cache:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(enumeration, "_enumerate_guided", guided_walk)
                _guided_cache[n] = enumerate_wdn(n, "generator_guided")
        return _guided_cache[n]

    return run


@pytest.fixture(scope="session")
def full_lattice():
    """Memoized full-mode lattice, a stand-in for enumeration._enumerate_full:
    rank 5 takes a few seconds, so criterion 5 and the tests that compare
    against the complete lattice share one run per rank.  Each call returns
    fresh containers, as enumerate_wdn adds to the stats it gets."""

    def run(n):
        if n not in _full_cache:
            _full_cache[n] = _enumerate_full(n)
        groups, stats = _full_cache[n]
        return list(groups), dict(stats)

    return run
