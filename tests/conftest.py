from pathlib import Path

import pytest
from hypothesis import settings, strategies as st

from matedrip import Bounds, DripRule, MateRule, Multiset, load_machine

MACHINES = Path(__file__).resolve().parent.parent / "machines"

# Every property test draws the same examples on every run, keeps no example
# database and has no deadline; a test's own settings give only its count.
settings.register_profile("repeatable", derandomize=True, database=None, deadline=None)
settings.load_profile("repeatable")


@pytest.fixture(scope="session")
def even():
    return load_machine(MACHINES / "even.rm")


@pytest.fixture(scope="session")
def mod3():
    return load_machine(MACHINES / "mod3.rm")


@pytest.fixture(scope="session")
def eq():
    return load_machine(MACHINES / "eq.rm")


@pytest.fixture(scope="session")
def trap():
    return load_machine(MACHINES / "trap.rm")


def machine_path(name: str) -> str:
    return str(MACHINES / name)


# A count that fits len(), while two of it make more than sys.maxsize.
HALF = 5 * 10**18


# -- random small systems, shared by the engine tests ---------------------------

# Names that are prefixes of one another, so render order is not name order.
SYMBOLS = ("a", "b", "l1", "l10", "x")


@st.composite
def small_multisets(draw, names, max_size=2):
    """A multiset over `names` with at most `max_size` occurrences."""
    return Multiset.of(*draw(st.lists(st.sampled_from(names), max_size=max_size)))


@st.composite
def small_rules(draw, names):
    """A mate, drip or drip1 rule over `names` whose parts hold at most one
    occurrence each, so needs are often empty."""
    parts = [draw(small_multisets(names, 1)) for _ in range(5)]
    kind = draw(st.sampled_from(("mate", "drip", "drip1")))
    if kind == "mate":
        return MateRule(*parts)
    return DripRule(*parts, one_sided=kind == "drip1")


@st.composite
def small_alphabets(draw):
    return tuple(sorted(draw(st.lists(st.sampled_from(SYMBOLS), min_size=3, max_size=5,
                                      unique=True))))


@st.composite
def small_bounds(draw):
    """Bounds small enough that the from-scratch references stay fast, and
    tight enough that size, population and iteration cuts all occur."""
    return Bounds(max_size=draw(st.integers(1, 6)),
                  max_population=draw(st.integers(4, 40)),
                  max_iterations=draw(st.integers(1, 6)),
                  keep_empty=draw(st.booleans()))
