"""Boundary cases of the packed-integer engine, pinned against the Multiset
reference: the rule kernels of `rules.py`, `_naive_closure` and
`_naive_tp_step`."""

import pytest
from hypothesis import example, given, settings, strategies as st

import matedrip.tts
from conftest import SYMBOLS, small_multisets, small_rules
from matedrip import (
    Bounds,
    EMPTY,
    MateRule,
    Multiset,
    TPRule,
    TPState,
    apply_drip,
    apply_drip1,
    apply_mate,
    closure,
    initial_state,
    is_fixpoint,
    parse_rule,
    tp_step,
)
from matedrip.engine import Codec, OperandIndex, drip1, drip2, fill
from matedrip.tts import _productions
from test_tp import _naive_tp_step, system_of
from test_tts import _assert_matches_reference, _naive_productions, one_tube


def ms(text):
    return Multiset.parse(text)


@pytest.mark.parametrize("limits", [(0, 10, 10), (4, -1, 10), (4, 10, 0), (8.0, 10, 10),
                                    (4, 10.5, 10), (4, 10, "3"), (True, 10, 10), (4, 10, True)])
def test_bounds_must_be_positive_integers(limits):
    # field widths come from int.bit_length, so a float max_size is refused;
    # a bool is an int to Python but no count
    with pytest.raises(ValueError, match="positive integers"):
        Bounds(*limits)


@pytest.mark.parametrize("keep_empty", ["no", 0, 1, None])
def test_bounds_keep_empty_must_be_a_bool(keep_empty):
    with pytest.raises(ValueError, match="keep_empty"):
        Bounds(keep_empty=keep_empty)


def test_codec_round_trip_and_need_test():
    rules = [parse_rule("MATE (l1 | a , . | l10 ; b^2)")]
    codec = Codec({"a", "b", "l1", "l10"}, rules, 4)
    for text in (".", "a", "a^4", "b l1 l10", "a^2 b^2 l1^3 l10^4"):
        assert codec.decode(codec.encode(ms(text))) == ms(text)
        assert len(codec.decode(codec.encode(ms(text)))) == len(ms(text))
        assert codec.encode(ms(text)) % codec.field == len(ms(text))
    need = codec.encode(ms("a l1^2"))
    for text, holds in (("a l1^2", True), ("a^3 l1^4 l10", True), ("a l1", False),
                        ("l1^2 l10", False), ("b^4", False), (".", False)):
        raised = codec.encode(ms(text)) | codec.guards
        assert ((raised - need) & codec.guards == codec.guards) is holds, text


def test_oversize_drip1_product_does_not_spill():
    # a count at max_size, raised by the heaviest rule's weight: the largest
    # count the codec must hold without touching the next field's bits
    rule = parse_rule("DRIP1 (. | . | . ; a^5 , .)")
    codec = Codec({"a", "b"}, [rule], 4)
    for text in ("a^4", "a^4 b^3", "b^4"):
        vesicle = ms(text)
        first, second = drip1(codec.compile(rule), codec.encode(vesicle))
        assert (codec.decode(first), codec.decode(second)) == apply_drip1(rule, vesicle)
        assert first & codec.guards == 0
    system = one_tube([rule], [ms("a^4"), ms("a b^3")], {"a", "b"})
    for max_size in (4, 9, 10):
        _assert_matches_reference(system, Bounds(max_size, 100, 10))


def test_fusion_at_max_size_matches_reference():
    rule = parse_rule("MATE (. | a , b | . ; a^2 b^3)")
    codec = Codec({"a", "b", "c"}, [rule], 8)
    packed = codec.compile(rule)
    for left, right in (("a^4", "b^4"), ("a c^3", "b c^2"), ("a^2", "b")):
        v1, v2 = ms(left), ms(right)
        fused = codec.encode(v1) + codec.encode(v2) + packed.delta
        assert codec.decode(fused) == apply_mate(rule, v1, v2)


@settings(max_examples=150)
@given(small_rules(SYMBOLS), small_multisets(SYMBOLS, 4), small_multisets(SYMBOLS, 4))
def test_two_sided_drip_kernel_matches_apply_drip(rule, extra, other):
    # every packed kernel, on operands that hold the rule's needs, against
    # the Multiset reference: a fusion v1 + v2 + delta, drip1, and the
    # packed splits of a two-sided drip's residual against Multiset.splits
    if isinstance(rule, MateRule):
        v1, v2 = rule.u + rule.a + extra, rule.b + rule.v + other
        codec = Codec(SYMBOLS, [rule], len(v1) + len(v2))
        packed = codec.compile(rule)
        fused = apply_mate(rule, v1, v2)
        assert codec.decode(codec.encode(v1) + codec.encode(v2) + packed.delta) == fused
        assert len(fused) == len(v1) + len(v2) + packed.dsize
        return
    vesicle = rule.u + rule.c + rule.v + extra
    codec = Codec(SYMBOLS, [rule], len(vesicle))
    packed = codec.compile(rule)
    if rule.one_sided:
        first, second = drip1(packed, codec.encode(vesicle))
        assert (codec.decode(first), codec.decode(second)) == apply_drip1(rule, vesicle)
        assert len(codec.decode(first)) == len(vesicle) + packed.dsize
        assert len(codec.decode(second)) == packed.second_size
        return
    got = drip2(packed, codec.encode(vesicle), len(vesicle), codec)
    decoded = [tuple((codec.decode(p), n) for p, n in pair) for pair in got]
    assert len(decoded) == len(set(decoded))
    assert all(len(m) == n for pair in decoded for m, n in pair)
    assert {tuple(m for m, _ in pair) for pair in decoded} == set(apply_drip(rule, vesicle))


def _needs(rule):
    """The needs of a rule's operand maps, in the order `operands` lists them."""
    if isinstance(rule, MateRule):
        return rule.u + rule.a, rule.b + rule.v
    return (rule.u + rule.c + rule.v,)


def _buckets(index):
    """Every operand map of `index`, keyed by (rule, side)."""
    return {(packed.rule, side): operands
            for packed, maps in index.operands.items()
            for side, operands in enumerate(maps if isinstance(maps, tuple) else (maps,))}


@settings(max_examples=150)
@given(st.lists(small_rules(SYMBOLS), min_size=1, max_size=5),
       st.lists(small_multisets(SYMBOLS, 4), unique=True, max_size=14), st.data())
def test_planned_index_matches_brute_force(rules, pool, data):
    # rule parts hold one occurrence each, so a need such as u + a can ask
    # for a symbol twice and a need is often empty; the pool's vesicles hold
    # up to 4 occurrences, so a signature holds vesicles on both sides of
    # such a need
    codec = Codec(SYMBOLS, rules, 4)
    packed = [codec.compile(rule) for rule in rules]
    index = OperandIndex(codec, packed)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(pool)), max_size=3)))
    batches = [[codec.encode(v) for v in pool[start:end]]
               for start, end in zip([0, *cuts], [*cuts, len(pool)])]
    for batch in batches:
        index.extend(batch)
    # absorbing one `empty()` copy per batch files every bucket in the same
    # order as extending one index with the batches in turn
    absorbed = OperandIndex(codec, packed)
    for batch in batches:
        part = absorbed.empty()
        part.extend(batch)
        absorbed.absorb(part)
    assert _buckets(absorbed) == _buckets(index)
    # a copy from `empty` plans with the first index's memo and must file
    # like a fresh index, leaving the first index as it was
    copy, fresh = index.empty(), OperandIndex(codec, packed)
    for batch in batches:
        copy.extend(batch)
        fresh.extend(batch)
    assert _buckets(copy) == _buckets(fresh)
    for (rule, side), operands in _buckets(index).items():
        expected = {}
        for v in pool:
            if v.contains(_needs(rule)[side]):
                expected.setdefault(len(v), set()).add(codec.encode(v))
        assert {size: set(bucket) for size, bucket in operands.items()} == expected


@pytest.mark.parametrize("keep_empty", [True, False])
def test_empty_needs_and_empty_vesicle(keep_empty):
    rules = [parse_rule("DRIP1 (. | . | . ; . , a)"),
             parse_rule("MATE (. | . , . | . ; b)"),
             parse_rule("MATE (. | a , a | . ; .)"),
             parse_rule("DRIP (. | . | . ; . , .)")]
    system = one_tube(rules, [EMPTY, ms("a")], {"a", "b"})
    for bounds in (Bounds(3, 100, 10, keep_empty), Bounds(4, 12, 10, keep_empty),
                   Bounds(5, 100, 2, keep_empty)):
        _assert_matches_reference(system, bounds)
    # the size rule: 0, max_size and one past it
    bounds = Bounds(3, 100, 10, keep_empty)
    assert (bounds.keeps(0), bounds.keeps(3), bounds.keeps(4)) == (keep_empty, True, False)


def test_oversize_constant_drip1_product():
    # z + v alone is over max_size: the run is cut even though u + y fits
    system = one_tube([parse_rule("DRIP1 (. | c | . ; . , z^5)")], [ms("c p")], {"c", "p", "z"})
    state = closure(system, Bounds(4, 100, 10))
    assert state.contents[0] == frozenset({ms("c p"), ms("p")})
    assert state.pruned
    _assert_matches_reference(system, Bounds(4, 100, 10))


def test_oversize_drip1_bucket_is_not_fired(monkeypatch):
    # {c p} sits at max_size and the rule grows it: the first product is
    # oversize for the whole bucket, so the drip is not fired at all
    system = one_tube([parse_rule("DRIP1 (. | c | . ; c^2 , .)")], [ms("c p")], {"c", "p"})
    fired = []
    drip1 = matedrip.tts.apply_drip1
    monkeypatch.setattr(matedrip.tts, "apply_drip1",
                        lambda rule, v: fired.append(v) or drip1(rule, v))
    state = closure(system, Bounds(2, 100, 10))
    assert not fired and state.pruned
    assert state.contents[0] == frozenset({ms("c p"), EMPTY})
    # one size up, {c p} fires once and {c^2 p} at the new max_size does not
    state = closure(system, Bounds(3, 100, 10))
    assert len(fired) == 1 and state.pruned
    assert state.contents[0] == frozenset({ms("c p"), ms("c^2 p"), EMPTY})
    _assert_matches_reference(system, Bounds(3, 100, 10))


def test_oversize_axiom():
    # counts far past what max_size lets the codec hold: refused, not encoded
    system = one_tube([parse_rule("DRIP1 (. | a | . ; b , .)")],
                      [ms("a^40"), ms("a b")], {"a", "b"})
    bounds = Bounds(2, 100, 10)
    state = closure(system, bounds)
    assert state.contents[0] == frozenset({ms("a b"), ms("b^2"), EMPTY})
    assert state.pruned
    _assert_matches_reference(system, bounds)

    tissue = system_of(2, [(1, ms("a^40")), (1, ms("a b"))],
                       [TPRule(1, parse_rule("DRIP1 (. | a | . ; b , .)"), 2)], {"a", "b"})
    start = initial_state(tissue, bounds)
    assert start.contents == (frozenset({ms("a b")}), frozenset()) and start.pruned
    # a state built by hand may hold what no step would admit
    crowded = TPState(0, (frozenset({ms("a^40"), ms("a b")}), frozenset()), frozenset(), False)
    assert tp_step(tissue, crowded, bounds) == _naive_tp_step(tissue, crowded, bounds)
    # small counts, but a size past what fields sized by counts can add up
    wide = system_of(2, [], [TPRule(1, parse_rule("DRIP1 (. | a | . ; b , .)"), 2)],
                     {"a", "b", "c", "d", "e"})
    crowded = TPState(0, (frozenset({ms("a^3 b^3 c^3 d^3 e^3")}), frozenset()), frozenset(), False)
    assert tp_step(wide, crowded, bounds) == _naive_tp_step(wide, crowded, bounds)


def test_uncapped_productions_size_fields_from_contents():
    # at max_size 80 every pair fuses, s^40 with itself included, so counts
    # reach twice the contents' largest count
    rules = [parse_rule("MATE (s | . , . | s ; .)"), parse_rule("DRIP1 (. | t | . ; s^3 , t)"),
             parse_rule("DRIP (. | t | . ; . , s)")]
    system = one_tube(rules, [], {"s", "t"})
    contents = (frozenset({ms("s^40"), ms("s^17 t"), ms("t^3")}),)
    assert _productions(system, contents, 80) == _naive_productions(system, contents)
    # small counts, but a size past what fields sized by counts can add up;
    # at max_size 15 every product fits
    wide = one_tube([parse_rule("DRIP1 (. | a | . ; b , .)")], [], {"a", "b", "c", "d", "e"})
    contents = (frozenset({ms("a^3 b^3 c^3 d^3 e^3"), ms("a")}),)
    for max_size in (15, 4):
        fits = {(t, v) for t, v in _naive_productions(wide, contents) if len(v) <= max_size}
        assert _productions(wide, contents, max_size) == fits


def test_render_ordered_fill_with_prefix_names():
    # "l1 l10" < "l10" < "l1^2" as text, while l1 < l10 as field order
    rules = [parse_rule("DRIP1 (. | g | . ; l1 , l10)"), parse_rule("MATE (. | . , . | . ; .)")]
    system = one_tube(rules, [ms("g"), ms("g l1")], {"g", "l1", "l10"})
    for population in range(3, 12):
        _assert_matches_reference(system, Bounds(4, population, 10))

    tissue = system_of(2, [(1, ms("g")), (1, ms("g l1")), (1, ms("g^2"))],
                       [TPRule(1, parse_rule("DRIP (. | g | . ; l1 , l10)"), 2),
                        TPRule(2, parse_rule("MATE (. | . , . | . ; .)"), 1)],
                       {"g", "l1", "l10"})
    for population in range(3, 10):
        bounds = Bounds(4, population)
        state = reference = initial_state(tissue, bounds)
        for _ in range(3):
            state = tp_step(tissue, state, bounds)
            reference = _naive_tp_step(tissue, reference, bounds)
            assert state == reference


# counts up to 14, so that "l1^10" < "l1^2" as text while 10 > 2
_RENDER_CODEC = Codec(SYMBOLS, [], 14)
_packed_vesicles = st.dictionaries(st.sampled_from(SYMBOLS), st.integers(1, 14),
                                   max_size=len(SYMBOLS)).map(
    lambda counts: _RENDER_CODEC.encode(counts.items()))


@settings(max_examples=300)
@given(_packed_vesicles)
@example(0)
def test_codec_render_matches_decoded_render(vesicle):
    assert _RENDER_CODEC.render(vesicle) == _RENDER_CODEC.decode(vesicle).render()


def _naive_fill(fresh, bounds, population, codec):
    """The first `room` vesicles of the whole batch in (compartment, decoded
    render) order, and whether that left any out."""
    room = max(bounds.max_population - population, 0)
    keyed = sorted((c, codec.decode(v).render(), v) for c, vs in enumerate(fresh) for v in vs)
    placed = [set() for _ in fresh]
    for c, _, v in keyed[:room]:
        placed[c].add(v)
    return placed, len(keyed) > room


@settings(max_examples=300)
@given(st.lists(st.sets(_packed_vesicles, max_size=6), min_size=1, max_size=4),
       st.integers(0, 5), st.data())
def test_fill_matches_naive_fill(fresh, population, data):
    # every room from 0 to the batch size: inside each compartment, at each
    # boundary between two, and one that fits the whole batch
    total = sum(map(len, fresh))
    room = data.draw(st.integers(0, total))
    population = max(population, 1 - room)  # max_population is at least 1
    bounds = Bounds(14, population + room)
    placed, cut = fill([set(vs) for vs in fresh], bounds, population, _RENDER_CODEC)
    assert (placed, cut) == _naive_fill(fresh, bounds, population, _RENDER_CODEC)
    assert cut == (total > room)


def test_two_sided_drip_products_match_apply_drip():
    rule = parse_rule("DRIP (p | c | q ; y^2 , z)")
    system = one_tube([rule], [ms("c p q r^2 s"), ms("c^2 p q")], {"c", "p", "q", "r", "s", "y", "z"})
    state = closure(system, Bounds(8, 1000, 1))
    for host in system.axioms[0]:
        for pair in apply_drip(rule, host):
            assert set(pair) <= state.contents[0]
    _assert_matches_reference(system, Bounds(8, 1000, 1))
    assert is_fixpoint(system, closure(system, Bounds(8, 1000, 20)), Bounds(8, 1000, 20))


def test_steps_under_changing_bounds_match_reference():
    # the packed contents a step leaves are re-encoded when a later step's
    # max_size outgrows the fields they were packed for
    tissue = system_of(2, [(1, ms("a b")), (2, ms("a"))],
                       [TPRule(1, parse_rule("DRIP1 (. | b | . ; a^2 b , .)"), 1),
                        TPRule(2, parse_rule("MATE (. | a , a | . ; a^2 b)"), 1)], {"a", "b"})
    state = reference = initial_state(tissue, Bounds(4))
    seen = set()
    for max_size in (4, *[40] * 17, 3, 60):
        bounds = Bounds(max_size)
        state = tp_step(tissue, state, bounds)
        reference = _naive_tp_step(tissue, reference, bounds)
        assert state == reference
        seen |= state.contents[0]
    assert ms("a^37 b") in seen  # past the 5-bit fields the first step packed
