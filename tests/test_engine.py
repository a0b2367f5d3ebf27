"""Boundary cases of the packed-integer engine, pinned against the Multiset
reference: the rule kernels of `rules.py`, `_naive_closure` and
`_naive_tp_step`."""

import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import matedrip.engine
import matedrip.tp
import matedrip.tts
from conftest import SYMBOLS, small_multisets, small_rules
from matedrip import (
    Bounds,
    CompileOptions,
    DripRule,
    EMPTY,
    MateRule,
    Multiset,
    TPRule,
    TPState,
    apply_drip,
    apply_drip1,
    apply_mate,
    closure,
    compile_machine,
    initial_state,
    is_fixpoint,
    parse_rule,
    tp_run,
    tp_step,
)
from matedrip.engine import (
    Codec, OperandIndex, drip, drip1, drip2, fill, join, rule_productions)
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


@settings(max_examples=300)
@given(small_multisets(SYMBOLS, 6), small_multisets(SYMBOLS, 6), st.integers(12, 100))
@example(ms("a"), ms("a"), 12)
@example(ms("a^2 l1"), ms("a l1^2"), 12)
@example(EMPTY, ms("x^6"), 12)
def test_codec_round_trip_and_need_test(m1, m2, largest):
    codec = Codec(SYMBOLS, [], largest)
    for m in (m1, m2, m1 + m2):
        packed = codec.encode(m)
        first, second = codec.decode(packed), codec.decode(packed)
        assert first == second == m
        assert all(p is q for p, q in zip(first._items, second._items, strict=True))
        # the first render may fill the codec's token cache, the second reads it
        for _ in range(2):
            assert codec.render(packed) == m.render()
        assert packed % codec.field == len(m)
    assert codec.encode(m1 + m2) == codec.encode(m1) + codec.encode(m2)
    # each way round, so that whenever the salts differ one case tests a
    # vesicle whose salt is below the need's
    for vesicle, need in ((m1, m2), (m2, m1)):
        raised = codec.encode(vesicle) | codec.guards
        holds = (raised - codec.encode(need)) & codec.guards == codec.guards
        assert holds == vesicle.contains(need)


def test_packed_vesicles_hash_apart(even):
    # CPython hashes an int as its value mod 2**61 - 1 and a set probes
    # first by the hash's low bits; unsalted, the vesicles of one tube agree
    # in those bits, and a set walks long probe chains.  Int hashes are not
    # seeded, so the spread below is the same on every run.
    faithful = CompileOptions(fidelity="faithful")
    compartments = list(closure(compile_machine(even, "cor3", faithful),
                                Bounds(10, 2000, 400))._packed.tubes)
    tissue = compile_machine(even, "thm4", faithful)
    bounds = Bounds(12, 3000, 200)
    state = initial_state(tissue, bounds)
    for _ in range(24):
        state = tp_step(tissue, state, bounds)
    compartments += state._packed.cells
    large = [vesicles for vesicles in compartments if len(vesicles) >= 100]
    assert len(large) >= 4
    for vesicles in large:
        n = len(vesicles)
        hashes = {hash(v) for v in vesicles}
        assert len(hashes) == n
        low = (1 << (2 * n).bit_length()) - 1
        assert len({h & low for h in hashes}) >= n / 2


def test_codec_table_grows_linearly_with_the_alphabet():
    # a 1,000-register machine compiles to about 17,000 symbols, and a mask
    # per field bit would grow with the square of the alphabet
    names = [f"s{i}" for i in range(6000)]
    tracemalloc.start()
    try:
        codec = Codec(names, [], 16)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traced < 8e6
    assert codec.decode(codec.encode([("s0", 3), ("s5999", 16)])) == ms("s0^3 s5999^16")
    # the pair and token caches fill only for the counts met, with one
    # vesicle that holds every symbol
    everything = Multiset.of(*names)
    tracemalloc.start()
    try:
        codec = Codec(names, [], len(names))
        packed = codec.encode(everything)
        decoded, text = codec.decode(packed), codec.render(packed)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traced < 8e6
    assert decoded == everything and text == everything.render()


def test_codec_caches_only_the_counts_met():
    # --max-size 10**9 is a legal bound: a cache sized by 2**width would
    # not fit in memory
    tracemalloc.start()
    try:
        codec = Codec(["a", "b"], [], 10**9)
        vesicle = ms("a^1000000000 b^3")
        packed = codec.encode(vesicle)
        decoded, text = codec.decode(packed), codec.render(packed)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traced < 1e6
    assert decoded == vesicle and text == "a^1000000000 b^3"


def _assert_pairs_shared(compartments):
    pairs = [pair for vesicles in compartments for v in vesicles for pair in v._items]
    assert len({id(pair) for pair in pairs}) == len(set(pairs))


def test_decoded_states_share_their_pairs(even):
    # one (name, count) tuple per distinct value across all compartments; a
    # fresh tuple per field of every vesicle takes about 470 bytes per vesicle
    faithful = CompileOptions(fidelity="faithful")
    state = closure(compile_machine(even, "cor3", faithful), Bounds(10, 2000, 400))
    tracemalloc.start()
    try:
        contents = state.contents
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.population >= 1000
    assert traced < 320 * state.population
    _assert_pairs_shared(contents)
    tissue = compile_machine(even, "thm4", faithful)
    bounds = Bounds(12, 3000, 200)
    cells = initial_state(tissue, bounds)
    for _ in range(24):
        cells = tp_step(tissue, cells, bounds)
    assert cells.population >= 500
    _assert_pairs_shared(cells.contents)


def test_oversize_drip1_product_does_not_spill():
    # a count at max_size, raised by the heaviest rule's weight: the largest
    # count the codec must hold without touching the next field's bits
    rule = parse_rule("DRIP1 (. | . | . ; a^5 , .)")
    codec = Codec({"a", "b"}, [rule], 4)
    packed = codec.compile(rule)
    bucket = [ms(text) for text in ("a^4", "a^4 b^3", "b^4")]
    shifted = drip1(packed, [codec.encode(v) for v in bucket])
    assert len(shifted) == len(bucket)
    for vesicle, first in zip(bucket, shifted):
        assert (codec.decode(first), codec.decode(packed.second)) == apply_drip1(rule, vesicle)
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
    # a bucket of the vesicles of one size that hold the need: the kernels
    # take it whole, and their output is that of one firing per vesicle
    vesicle = rule.u + rule.c + rule.v + extra
    bucket = list(dict.fromkeys(
        [vesicle, *(rule.u + rule.c + rule.v + Multiset({s: len(extra)}) for s in SYMBOLS)]))
    codec = Codec(SYMBOLS, [rule], len(vesicle))
    packed = codec.compile(rule)
    if rule.one_sided:
        shifted = drip1(packed, [codec.encode(v) for v in bucket])
        assert len(shifted) == len(bucket)
        for v, first in zip(bucket, shifted):
            assert (codec.decode(first), codec.decode(packed.second)) == apply_drip1(rule, v)
            assert len(codec.decode(first)) == len(v) + packed.dsize
        assert len(codec.decode(packed.second)) == packed.second_size
        return
    got = drip2(packed, [codec.encode(v) for v in bucket], len(vesicle), codec)
    decoded = [tuple((codec.decode(p), n) for p, n in pair) for pair in got]
    assert all(len(m) == n for pair in decoded for m, n in pair)
    # packed, salt included, exactly as the outcomes encode, in bucket order
    expected = [tuple(map(codec.encode, pair)) for v in bucket for pair in apply_drip(rule, v)]
    assert sorted(tuple(p for p, _ in pair) for pair in got) == sorted(expected)
    start = 0
    for v in bucket:
        # each vesicle's outcomes are distinct and form one run of the list
        n = len(apply_drip(rule, v))
        alone = drip2(packed, [codec.encode(v)], len(v), codec)
        assert got[start:start + n] == alone and len(set(alone)) == n
        start += n


def _size_map(codec, vesicles):
    """The packed `vesicles` as the size -> operands map `join` takes."""
    by_size = {}
    for v in vesicles:
        by_size.setdefault(len(v), []).append(codec.encode(v))
    return by_size


_mate_rules = st.builds(MateRule, *[small_multisets(SYMBOLS, 1)] * 5)
_extras = st.lists(small_multisets(SYMBOLS, 3), min_size=1, max_size=5)


@settings(max_examples=200)
@given(_mate_rules, _extras, _extras, st.integers(1, 7), st.booleans())
# right maps of one size and of several sizes
@example(parse_rule("MATE (. | a , b | . ; x)"), [ms("a"), ms("b^2")], [ms("x"), ms("a")], 3, True)
@example(parse_rule("MATE (. | a , b | . ; x)"), [ms("x")], [EMPTY, ms("a"), ms("a^2 b")], 4, False)
# zero-size fusions, kept or dropped
@example(parse_rule("MATE (. | a , b | . ; .)"), [EMPTY, ms("x")], [EMPTY, ms("b")], 1, True)
@example(parse_rule("MATE (. | a , b | . ; .)"), [EMPTY, ms("x")], [EMPTY, ms("b")], 1, False)
@example(parse_rule("MATE (. | . , . | . ; .)"), [EMPTY], [EMPTY], 1, False)
def test_join_matches_apply_mate_pair_by_pair(rule, left_extras, right_extras, max_size,
                                               keep_empty):
    # every left x right pair through the Multiset kernel and the size
    # rule, against what join adds and its oversize flag
    lefts = list(dict.fromkeys(rule.u + rule.a + e for e in left_extras))
    rights = list(dict.fromkeys(rule.b + rule.v + e for e in right_extras))
    bounds = Bounds(max_size, keep_empty=keep_empty)
    codec = Codec(SYMBOLS, [rule], max(max_size, *map(len, lefts + rights)))
    out = set()
    oversize = join(codec.compile(rule), _size_map(codec, lefts), _size_map(codec, rights),
                    bounds, out)
    fusions = [apply_mate(rule, v1, v2) for v1 in lefts for v2 in rights]
    assert out == {codec.encode(f) for f in fusions if bounds.keeps(len(f))}
    assert oversize == any(len(f) > max_size for f in fusions)


_drip_rules = st.builds(DripRule, *[small_multisets(SYMBOLS, 1)] * 5, one_sided=st.booleans())


@settings(max_examples=200)
@given(_drip_rules, _extras, st.integers(1, 7), st.booleans())
# zero-size products, kept or dropped
@example(parse_rule("DRIP (. | x | . ; . , .)"), [EMPTY, ms("a"), ms("a b")], 1, False)
@example(parse_rule("DRIP (. | x | . ; . , .)"), [EMPTY, ms("a"), ms("a b")], 1, True)
@example(parse_rule("DRIP1 (. | x | . ; . , .)"), [EMPTY, ms("a")], 1, False)
@example(parse_rule("DRIP (l1 | x | . ; a , b)"), [ms("a^2 b"), ms("l10")], 3, True)
def test_drip_matches_apply_drip_product_by_product(rule, extras, max_size, keep_empty):
    # each size bucket of vesicles that hold the need through drip, against
    # every outcome of the Multiset kernel held to the size rule
    vesicles = list(dict.fromkeys(rule.u + rule.c + rule.v + e for e in extras))
    bounds = Bounds(max_size, keep_empty=keep_empty)
    codec = Codec(SYMBOLS, [rule], max(max_size, *map(len, vesicles)))
    packed, out, oversize = codec.compile(rule), set(), False
    for size, bucket in _size_map(codec, vesicles).items():
        if drip(packed, size, bucket, bounds, out, codec, (drip1, drip2)):
            oversize = True
    products = [p for v in vesicles
                for pair in ([apply_drip1(rule, v)] if rule.one_sided else apply_drip(rule, v))
                for p in pair]
    assert out == {codec.encode(p) for p in products if bounds.keeps(len(p))}
    assert oversize == any(len(p) > max_size for p in products)


def _needs(rule):
    """The needs of a rule's operand maps, in the order `_buckets` numbers
    their sides."""
    if isinstance(rule, MateRule):
        return rule.u + rule.a, rule.b + rule.v
    return (rule.u + rule.c + rule.v,)


def _buckets(index, slots):
    """Every operand map of the slot maps `slots` that `index` filed,
    keyed by (rule, side)."""
    return {(packed.rule, side): slots[i] for packed, *sides, _ in index._mates + index._drips
            for side, i in enumerate(sides)}


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
    index = OperandIndex(codec, [(rule, 0) for rule in packed])
    cuts = sorted(data.draw(st.lists(st.integers(0, len(pool)), max_size=3)))
    batches = [[codec.encode(v) for v in pool[start:end]]
               for start, end in zip([0, *cuts], [*cuts, len(pool)])]
    filed = [index.file(batch) for batch in batches]
    # the index plans with the memo those batches warmed and must file them
    # again as a new index does, leaving the slot maps it made before as
    # they were
    fresh = OperandIndex(codec, [(rule, 0) for rule in packed])
    for batch, slots in zip(batches, filed):
        assert index.file(batch) == fresh.file(batch) == slots
    for rule, side in _buckets(index, filed[0]):
        operands, expected = {}, {}
        for slots in filed:
            for size, bucket in _buckets(index, slots)[rule, side].items():
                operands.setdefault(size, set()).update(bucket)
        for v in pool:
            if v.contains(_needs(rule)[side]):
                expected.setdefault(len(v), set()).add(codec.encode(v))
        assert operands == expected


@settings(max_examples=100)
@given(st.lists(small_rules(SYMBOLS), min_size=1, max_size=5),
       st.lists(st.frozensets(st.sampled_from(SYMBOLS)), max_size=3),
       st.lists(small_multisets(SYMBOLS, 4), unique=True, max_size=14))
def test_file_gives_each_batch_slot_maps_of_its_own(rules, forbidden, pool):
    # filing the same batch twice gives equal slot lists that share no map
    # and no bucket, and filing changes none of the index's firing table;
    # an index whose plan memo is warm files a batch as a new index does
    codec = Codec(SYMBOLS, rules, 4)

    def table():
        return OperandIndex(codec, [(codec.compile(rule), t) for t, rule in enumerate(rules)],
                            [(codec.mask(names), t) for t, names in enumerate(forbidden)])

    index = table()
    before = list(index._entries), list(index._mates), list(index._drips), list(index.routes)
    batch = [codec.encode(v) for v in pool]
    first, second = index.file(batch), index.file(batch)
    assert first is not second and first == second == table().file(batch)
    assert (index._entries, index._mates, index._drips, index.routes) == before
    for slot in first:
        for bucket in slot.values():
            bucket.clear()
        slot.clear()
    assert second == table().file(batch) == index.file(batch)


@settings(max_examples=150)
@given(st.lists(small_rules(SYMBOLS), min_size=1, max_size=5),
       st.lists(small_multisets(SYMBOLS, 4), unique=True, max_size=14),
       st.integers(1, 8), st.booleans(), st.data())
def test_semi_naive_fold_matches_one_batch(rules, pool, max_size, keep_empty, data):
    # feeding the pool to `rule_productions` batch by batch, each batch in
    # slot maps `file` makes for it, gives the productions and cut of one
    # batch that holds the whole pool, and those of the from-scratch reference
    codec = Codec(SYMBOLS, rules, max(4, max_size))
    bounds = Bounds(max_size, keep_empty=keep_empty)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(pool)), max_size=3)))

    def fold(batches):
        index = OperandIndex(codec, [(codec.compile(rule), 0) for rule in rules])
        held = index.file(())
        out, cut = set(), False
        for vesicles in batches:
            batch = index.file(codec.encode(v) for v in vesicles)
            if rule_productions(index, held, batch, [out], bounds, codec, (drip1, drip2)):
                cut = True
        # no later round reads a drip operand, so `held` keeps none
        assert not any(held[i] for _, i, _ in index._drips)
        return out, cut

    out, cut = fold(pool[start:end] for start, end in zip([0, *cuts], [*cuts, len(pool)]))
    assert (out, cut) == fold([pool])
    naive = {v for _, v in _naive_productions(one_tube(rules, [], SYMBOLS), [pool])}
    assert {codec.decode(v) for v in out} == {v for v in naive if bounds.keeps(len(v))}
    assert cut == any(len(v) > max_size for v in naive)


def _no_call(*args):
    raise AssertionError("a batch that filed no operand reached a rule")


@settings(max_examples=100)
@given(st.lists(small_rules(SYMBOLS), min_size=1, max_size=5),
       st.lists(small_multisets(SYMBOLS, 4), unique=True, max_size=14),
       st.lists(small_multisets(SYMBOLS + ("z",), 4), unique=True, min_size=1, max_size=8),
       st.integers(1, 8))
def test_a_batch_that_files_into_no_rule_changes_nothing(rules, pool, strays, max_size):
    # after a batch of the pool, a batch whose vesicles hold no rule's need
    # reaches neither join nor drip and leaves the productions, the cut and
    # the index's mate operands as they were
    rules = [rule for rule in rules if all(_needs(rule))]
    strays = [v for v in strays
              if not any(v.contains(need) for rule in rules for need in _needs(rule))]
    codec = Codec(SYMBOLS + ("z",), rules, max(4, max_size))
    bounds = Bounds(max_size)
    index = OperandIndex(codec, [(codec.compile(rule), 0) for rule in rules])
    held = index.file(())
    out = set()

    def file(vesicles):
        batch = index.file(map(codec.encode, vesicles))
        return rule_productions(index, held, batch, [out], bounds, codec, (drip1, drip2))

    file(pool)
    before = set(out), {key: {size: list(bucket) for size, bucket in operands.items()}
                        for key, operands in _buckets(index, held).items()}
    with mock.patch.object(matedrip.engine, "join", _no_call), \
            mock.patch.object(matedrip.engine, "drip", _no_call):
        assert not file(strays)
    assert (out, _buckets(index, held)) == before


def test_joins_and_drips_get_operands(monkeypatch, even):
    # both engines call join with two non-empty maps and drip with a
    # non-empty bucket, and do call each
    calls = []

    def spy_join(rule, lefts, rights, *rest):
        assert lefts and rights
        calls.append("join")
        return join(rule, lefts, rights, *rest)

    def spy_drip(rule, size, vesicles, *rest):
        assert vesicles
        calls.append("drip")
        return drip(rule, size, vesicles, *rest)

    for module in (matedrip.engine, matedrip.tp):
        monkeypatch.setattr(module, "join", spy_join)
        monkeypatch.setattr(module, "drip", spy_drip)
    faithful = compile_machine(even, "thm1", CompileOptions(fidelity="faithful"))
    assert closure(faithful, Bounds(10, 6000, 400)).population == 6000
    assert "join" in calls
    calls.clear()
    tp_run(compile_machine(even, "thm4"), 40, Bounds(12, 20000, 200))
    assert set(calls) == {"join", "drip"}


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
                        lambda rule, vesicles: fired.append(list(vesicles)) or drip1(rule, vesicles))
    state = closure(system, Bounds(2, 100, 10))
    assert not fired and state.pruned
    assert state.contents[0] == frozenset({ms("c p"), EMPTY})
    # one size up, {c p} fires once and {c^2 p} at the new max_size does not
    state = closure(system, Bounds(3, 100, 10))
    codec = Codec({"c", "p"}, system.rules[0], 3)
    assert fired == [[codec.encode(ms("c p"))]] and state.pruned
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


# Names on either side of '.', '^' and one another as text: "-x" < "." <
# "l1" < "l10" < "l1A" < "l1^10" < "l1^2" < "l1a" < "x", while the fields
# go -x, l1, l10, l1A, l1a, x.  A cut fill selects by first token, the
# token of the lowest field, so these are the orders it must not confuse.
_FILL_NAMES = ("-x", "l1", "l10", "l1A", "l1a", "x")
_FILL_CODEC = Codec(_FILL_NAMES, [], 14)
_fill_vesicles = st.dictionaries(st.sampled_from(_FILL_NAMES), st.integers(1, 14),
                                 max_size=4).map(lambda counts: _FILL_CODEC.encode(counts.items()))


@settings(max_examples=300)
@given(st.lists(st.sets(_fill_vesicles, max_size=40), min_size=1, max_size=4),
       st.integers(0, 5), st.data())
def test_fill_matches_naive_fill(fresh, population, data):
    # every room from 0 to the batch size: inside each compartment, at each
    # boundary between two, and one that fits the whole batch
    total = sum(map(len, fresh))
    room = data.draw(st.integers(0, total))
    population = max(population, 1 - room)  # max_population is at least 1
    bounds = Bounds(14, population + room)
    placed, cut = fill([set(vs) for vs in fresh], bounds, population, _FILL_CODEC)
    assert (placed, cut) == _naive_fill(fresh, bounds, population, _FILL_CODEC)
    assert cut == (total > room)


def test_cut_fill_renders_only_the_first_token_group_it_cuts():
    # first-token groups in text order, with the empty vesicle '.' among them
    groups = [["-x", "-x l1a"], ["."], ["l1", "l1 l10", "l1 l1A", "l1 x^3"], ["l10"],
              ["l1A x"], ["l1^10 x"], ["l1^2", "l1^2 x"], ["l1a"], ["x"]]
    codec = Codec(_FILL_NAMES, [], 14)
    render = codec.render
    rendered = []
    codec.render = lambda vesicle: rendered.append(vesicle) or render(vesicle)
    packed = [[codec.encode(Multiset.parse(text)) for text in group] for group in groups]
    fresh = {v for group in packed for v in group}
    start = 0
    for group in packed:
        # a cut on the boundary before the group, then one inside it
        for room in range(start, start + len(group)):
            rendered.clear()
            bounds = Bounds(14, max(room, 1))
            placed, cut = fill([set(fresh)], bounds, bounds.max_population - room, codec)
            assert cut and (placed, cut) == _naive_fill([fresh], bounds,
                                                        bounds.max_population - room, codec)
            assert sorted(rendered) == (sorted(group) if room > start else [])
        start += len(group)


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
