import pytest

from conich1.enumeration import _enumerate_full, enumerate_wdn

_guided_cache = {}
_full_cache = {}


@pytest.fixture(scope="session")
def guided_enumeration():
    """Memoized generator-guided enumeration; the rank 6/7 searches take
    about 8 s and 80 s, so the tests at each rank share one run."""

    def run(n):
        if n not in _guided_cache:
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
