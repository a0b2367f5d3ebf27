import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from matedrip import EMPTY, Multiset, MultisetError, check_symbol, is_reserved

KERNEL = settings(derandomize=True, max_examples=150, database=None, deadline=None)

ALPHA = ["a", "b", "c", "d", "e", "f"]


def small_multisets(alphabet=ALPHA[:4], max_count=3):
    return st.dictionaries(st.sampled_from(alphabet), st.integers(1, max_count),
                           max_size=len(alphabet)).map(Multiset)


def sized_right(m):
    """len() is cached by the kernels, not recomputed; it must be the sum."""
    return len(m) == sum(c for _, c in m)


def rand_multiset(rng, alphabet=ALPHA, max_size=8):
    size = rng.randint(0, max_size)
    return Multiset.of(*(rng.choice(alphabet) for _ in range(size)))


def brute_splits(m):
    """Independent enumeration of all ordered two-way partitions."""
    items = list(m)
    names = [n for n, _ in items]
    out = set()
    for choice in product(*[range(c + 1) for _, c in items]):
        first = Multiset({n: c for n, c in zip(names, choice)})
        second = m.minus(first)
        out.add((first, second))
    return out


def test_symbol_validation():
    assert check_symbol("a1") == "a1"
    assert check_symbol("@A.l1") == "@A.l1"
    for bad in ("", ".", "a b", "x;y", "x|y", "x^2", "x{", "x}", "x,y", "x(", "x)", "x#y"):
        with pytest.raises(MultisetError):
            check_symbol(bad)
    assert is_reserved("@X")
    assert not is_reserved("l0")


def test_sum_examples():
    assert Multiset.of("a", "a") + Multiset.of("a", "b") == Multiset.of("a", "a", "a", "b")
    assert EMPTY + Multiset.of("X") == Multiset.of("X")
    assert Multiset.of("b1") + Multiset.of("b1") == Multiset({"b1": 2})


def test_diff_examples():
    m = Multiset.of("X", "l1", "b1", "b1")
    assert m.minus(Multiset.of("l1", "b1")) == Multiset.of("X", "b1")
    assert Multiset.of("X").minus(Multiset.of("X")) == EMPTY
    assert Multiset.of("a").minus(Multiset.of("b")) is None


def test_contains_examples():
    assert Multiset.of("X", "l1", "b1").contains(Multiset.of("X", "l1"))
    assert Multiset.of("X").contains(EMPTY)
    assert not Multiset.of("b1").contains(Multiset({"b1": 2}))


def test_support():
    assert Multiset({"a1": 3, "b1": 1}).support == {"a1", "b1"}
    assert EMPTY.support == frozenset()
    assert Multiset.of("X").support == {"X"}


def test_splits_pairs():
    got = Multiset.of("p", "q").splits()
    assert set(got) == {
        (EMPTY, Multiset.of("p", "q")),
        (Multiset.of("p"), Multiset.of("q")),
        (Multiset.of("q"), Multiset.of("p")),
        (Multiset.of("p", "q"), EMPTY),
    }
    # deterministic order, lexicographic in the first component's rendering
    assert [p.render() for p, _ in got] == sorted(p.render() for p, _ in got)
    assert EMPTY.splits() == [(EMPTY, EMPTY)]
    assert len(Multiset({"a": 2}).splits()) == 3


def test_splits_against_brute_force():
    rng = random.Random(1001)
    for _ in range(300):
        m = rand_multiset(rng, max_size=6)
        got = m.splits()
        expected_count = 1
        for _, c in m:
            expected_count *= c + 1
        assert len(got) == expected_count
        assert len(set(got)) == expected_count
        assert set(got) == brute_splits(m)
        for s, w in got:
            assert s + w == m


@KERNEL
@given(small_multisets(), small_multisets())
def test_algebra_sizes(m1, m2):
    assert sized_right(m1 + m2) and len(m1 + m2) == len(m1) + len(m2)
    diff = (m1 + m2).minus(m2)
    assert sized_right(diff) and len(diff) == len(m1)
    for s, w in m1.splits():
        assert sized_right(s) and sized_right(w)


def test_sum_diff_roundtrip():
    rng = random.Random(1002)
    for _ in range(1000):
        m1 = rand_multiset(rng)
        m2 = rand_multiset(rng)
        assert (m1 + m2).minus(m2) == m1
        # contains iff minus is defined
        assert m1.contains(m2) == (m1.minus(m2) is not None)


def test_parse_examples():
    assert Multiset.parse("b1 a1^2 b1") == Multiset({"a1": 2, "b1": 2})
    assert EMPTY.render() == "."
    assert Multiset.parse("X l0").render() == "X l0"
    assert Multiset.parse("l0 X").render() == "X l0"
    assert Multiset.parse(".") == EMPTY


def test_parse_errors():
    for bad in ("a^0", "a^-1", "a^x", "a^", "a .", "^2",
                "a^1_0", "a^+2", "a^\u00b2", "a^\u0663", "a^" + "9" * 5000):
        with pytest.raises(MultisetError):
            Multiset.parse(bad)


def test_parse_render_roundtrip():
    rng = random.Random(1003)
    for _ in range(1000):
        m = rand_multiset(rng, alphabet=ALPHA + ["@X", "a1", "b2", "@A.l1"])
        assert Multiset.parse(m.render()) == m
        assert m.render() == Multiset.parse(m.render()).render()


def test_value_semantics():
    a = Multiset.of("x", "y")
    b = Multiset.parse("x y")
    assert a == b and hash(a) == hash(b)
    assert len(a) == 2
    assert a.count("x") == 1 and a.count("zz") == 0
    assert {a, b} == {a}
