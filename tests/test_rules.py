import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from matedrip import (
    DripRule,
    EMPTY,
    MateRule,
    Multiset,
    RuleError,
    apply_drip,
    apply_drip1,
    apply_mate,
    parse_rule,
)

ALPHA = ["a", "b", "c", "d", "e", "f"]

KERNEL = settings(derandomize=True, max_examples=150, database=None, deadline=None)


def ms(text):
    return Multiset.parse(text)


def rand_multiset(rng, max_size=3, alphabet=ALPHA):
    return Multiset.of(*(rng.choice(alphabet) for _ in range(rng.randint(0, max_size))))


def rand_drip(rng):
    return DripRule(*(rand_multiset(rng, 2) for _ in range(5)))


def brute_drip_outcomes(rule, vesicle):
    """Independent oracle: enumerate residual partitions by per-symbol counts."""
    need = rule.u + rule.c + rule.v
    if not vesicle.contains(need):
        return set()
    residual = vesicle.minus(need)
    items = list(residual)
    names = [n for n, _ in items]
    out = set()
    for choice in product(*[range(c + 1) for _, c in items]):
        s = Multiset({n: c for n, c in zip(names, choice)})
        w = residual.minus(s)
        out.add((s + rule.u + rule.y, rule.z + rule.v + w))
    return out


def small_multisets(max_count=2):
    return st.dictionaries(st.sampled_from(ALPHA[:4]), st.integers(1, max_count),
                           max_size=3).map(Multiset)


def sized_right(m):
    """len() is cached by the kernels, not recomputed; it must be the sum."""
    return len(m) == sum(c for _, c in m)


# -- kernels against the formulas of the paper ---------------------------------


@KERNEL
@given(st.builds(MateRule, *[small_multisets()] * 5), small_multisets(), small_multisets())
def test_fuse_matches_reference(rule, extra1, extra2):
    # s + u + a and b + v + w fuse into s + u + x + v + w
    v1 = rule.u + rule.a + extra1
    v2 = rule.b + rule.v + extra2
    got = apply_mate(rule, v1, v2)
    assert got == extra1 + rule.u + rule.x + rule.v + extra2
    assert sized_right(got)


@KERNEL
@given(st.builds(DripRule, *[small_multisets()] * 5, one_sided=st.just(True)),
       small_multisets(3), st.booleans())
def test_apply_drip1_matches_reference(rule, extra, hosted):
    need = rule.u + rule.c + rule.v
    vesicle = need + extra if hosted else extra
    got = apply_drip1(rule, vesicle)
    if not vesicle.contains(need):
        assert got is None
        return
    assert got == (vesicle.minus(need) + rule.u + rule.y, rule.v + rule.z)
    assert all(sized_right(m) for m in got)


@KERNEL
@given(st.builds(DripRule, *[small_multisets()] * 5), small_multisets(), st.booleans())
def test_apply_drip_matches_reference(rule, extra, hosted):
    need = rule.u + rule.c + rule.v
    vesicle = need + extra if hosted else extra
    got = apply_drip(rule, vesicle)
    expected = []
    if vesicle.contains(need):
        expected = {(s + rule.u + rule.y, rule.z + rule.v + w)
                    for s, w in vesicle.minus(need).splits()}
        expected = sorted(expected, key=lambda pq: (pq[0].render(), pq[1].render()))
    assert got == expected
    assert all(sized_right(m) for pair in got for m in pair)


# -- weights -----------------------------------------------------------------


def test_weight_examples():
    add_rule = MateRule(ms("X"), ms("l1"), ms("A.l1"), ms("l2 b1"), EMPTY)
    assert add_rule.weight == 5
    gen = DripRule(EMPTY, ms("g"), EMPTY, ms("A.l1 l2 b1"), EMPTY)
    assert gen.weight == 4
    assert MateRule(EMPTY, EMPTY, EMPTY, EMPTY, EMPTY).weight == 0


def test_weight_rename_invariance():
    rng = random.Random(2001)
    for _ in range(1000):
        rule = rand_drip(rng)
        renamed = DripRule(*(Multiset({n + "_r": c for n, c in m}) for m in
                             (rule.u, rule.c, rule.v, rule.y, rule.z)))
        assert rule.weight == renamed.weight


# -- mate --------------------------------------------------------------------


def test_apply_mate_examples():
    start = MateRule(ms("X"), EMPTY, ms("Z"), ms("l0"), EMPTY)
    assert apply_mate(start, ms("X"), ms("Z l0")) == ms("X l0")

    add_rule = MateRule(ms("X"), ms("l1"), ms("A.l1"), ms("l2 b1"), EMPTY)
    got = apply_mate(add_rule, ms("X l1 a1^2 b1^2"), ms("A.l1 l2 b1"))
    assert got == ms("X a1^2 b1^3 l2")

    wrong = MateRule(ms("X"), EMPTY, ms("Y"), EMPTY, EMPTY)
    assert apply_mate(wrong, ms("X"), ms("Z l0")) is None


def test_apply_mate_size_conservation():
    rng = random.Random(2002)
    checked = 0
    while checked < 1000:
        rule = MateRule(*(rand_multiset(rng, 2) for _ in range(5)))
        v1 = rule.u + rule.a + rand_multiset(rng, 4)
        v2 = rule.b + rule.v + rand_multiset(rng, 4)
        got = apply_mate(rule, v1, v2)
        assert got is not None
        assert len(got) == len(v1) + len(v2) - len(rule.a) - len(rule.b) + len(rule.x)
        checked += 1


# -- drip --------------------------------------------------------------------


def test_apply_drip_examples():
    gen = DripRule(EMPTY, ms("g"), EMPTY, ms("A.l1 l2 b1"), EMPTY)
    assert apply_drip(gen, ms("g")) == [(ms("A.l1 l2 b1"), EMPTY)]

    four = DripRule(EMPTY, ms("c"), EMPTY, ms("y"), ms("z"))
    got = set(apply_drip(four, ms("c p q")))
    assert got == {
        (ms("y"), ms("z p q")),
        (ms("y p"), ms("z q")),
        (ms("y q"), ms("z p")),
        (ms("y p q"), ms("z")),
    }
    assert apply_drip(four, ms("p")) == []


def test_apply_drip_against_brute_force():
    rng = random.Random(2003)
    for _ in range(1000):
        rule = rand_drip(rng)
        host = rule.u + rule.c + rule.v + rand_multiset(rng, 3)
        vesicle = host if len(host) <= 6 else rule.u + rule.c + rule.v
        if len(vesicle) > 6:
            continue
        got = apply_drip(rule, vesicle)
        assert len(got) == len(set(got))
        assert set(got) == brute_drip_outcomes(rule, vesicle)


def test_apply_drip_size_conservation():
    rng = random.Random(2004)
    for _ in range(1000):
        rule = rand_drip(rng)
        vesicle = rule.u + rule.c + rule.v + rand_multiset(rng, 4)
        for p, q in apply_drip(rule, vesicle):
            assert len(p) + len(q) == len(vesicle) - len(rule.c) + len(rule.y) + len(rule.z)


def test_drip_then_mate_roundtrip():
    rng = random.Random(2005)
    for _ in range(1000):
        rule = rand_drip(rng)
        vesicle = rule.u + rule.c + rule.v + rand_multiset(rng, 4)
        back = MateRule(rule.u, rule.y, rule.z, rule.v, rule.c)
        for p, q in apply_drip(rule, vesicle):
            assert apply_mate(back, p, q) == vesicle


def test_apply_drip1_examples():
    add1 = DripRule(ms("X"), ms("l1"), EMPTY, ms("l2 b1"), EMPTY, one_sided=True)
    assert apply_drip1(add1, ms("X l1 a1 b1")) == (ms("X a1 b1^2 l2"), EMPTY)

    out = DripRule(EMPTY, ms("lh X"), EMPTY, EMPTY, EMPTY, one_sided=True)
    assert apply_drip1(out, ms("lh X a1^2")) == (ms("a1^2"), EMPTY)

    assert apply_drip1(add1, ms("X a1")) is None


def test_apply_drip1_residual_goes_left():
    rng = random.Random(2006)
    for _ in range(500):
        rule = DripRule(rand_multiset(rng, 2), rand_multiset(rng, 2),
                        rand_multiset(rng, 2), rand_multiset(rng, 2),
                        rand_multiset(rng, 2), one_sided=True)
        residual = rand_multiset(rng, 4)
        vesicle = rule.u + rule.c + rule.v + residual
        p, q = apply_drip1(rule, vesicle)
        assert p == residual + rule.u + rule.y
        assert q == rule.v + rule.z


def test_apply_drip_rejects_one_sided():
    rule = DripRule(EMPTY, ms("c"), EMPTY, EMPTY, EMPTY, one_sided=True)
    with pytest.raises(ValueError):
        apply_drip(rule, ms("c"))


# -- text form ---------------------------------------------------------------


def test_rule_text_roundtrip():
    texts = [
        "MATE (X | . , Z | l0 ; .)",
        "MATE (X | l1 , A.l1 | b1 l2 ; .)",
        "MATE (. | @XH , @Z | l0 ; @X)",
        "DRIP (. | g | . ; A.l1 b1 l2 , .)",
        "DRIP1 (X | l1 | . ; b1 l2 , .)",
        "DRIP1 (. | X lh | . ; . , .)",
    ]
    for text in texts:
        rule = parse_rule(text)
        assert rule.render() == text
        assert parse_rule(rule.render()) == rule


def test_rule_text_errors():
    for bad in ("MATE X | , Y | ;", "DRIP (a | b ; c , d)", "PASTE (a | b , c | d ; e)",
                "MATE (a | b , c | d)", "DRIP (a | b | c | d ; e , f)"):
        with pytest.raises(RuleError):
            parse_rule(bad)
