import copy
import gc
import re
import weakref
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import matedrip.tp
from conftest import HALF, small_alphabets, small_bounds, small_multisets, small_rules
from matedrip import (
    Bounds,
    CompileOptions,
    EMPTY,
    FormatError,
    MateRule,
    Multiset,
    SupportFilter,
    TTSState,
    TestTubeSystem,
    TubeFilter,
    apply_drip,
    apply_drip1,
    apply_mate,
    closure,
    compile_machine,
    initial_state,
    is_fixpoint,
    parse_rule,
    parse_tts,
    render_tts,
    results_of_state,
    run_verify,
    tp_step,
    validate_tts,
)
from matedrip.engine import Codec, OperandIndex
from matedrip.tts import _operator, _productions, _round


def ms(text):
    return Multiset.parse(text)


def fs(*vesicles):
    return frozenset(vesicles)


def one_tube(rules, axioms, alphabet, terminal=frozenset(), outputs=frozenset({1})):
    return TestTubeSystem(
        alphabet=frozenset(alphabet),
        terminal=frozenset(terminal),
        tubes=1,
        axioms=(frozenset(axioms),),
        rules=(tuple(rules),),
        filters=(),
        outputs=frozenset(outputs),
    )


def test_filter_pass_examples():
    filt = TubeFilter((SupportFilter(frozenset({"a1", "a2"})),))
    assert filt.passes(ms("a1^3"))
    assert not filt.passes(ms("a1 b1"))
    assert filt.passes(EMPTY)


def test_filter_union():
    filt = TubeFilter((SupportFilter(frozenset({"a"})), SupportFilter(frozenset({"b"}))))
    assert filt.passes(ms("a^2"))
    assert filt.passes(ms("b"))
    assert not filt.passes(ms("a b"))


def test_closure_one_step_example():
    # one tube, axioms {X} and {Z l0}, rule (X|.,Z|l0;.)
    system = one_tube(
        [parse_rule("MATE (X | . , Z | l0 ; .)")],
        [ms("X"), ms("Z l0")],
        {"X", "Z", "l0"},
    )
    bounds = Bounds(max_size=8, max_population=100, max_iterations=20)
    state = closure(system, bounds)
    # both axioms are retained and the fused vesicle appears
    assert fs(ms("X"), ms("Z l0"), ms("X l0")).issubset(state.contents[0])
    assert is_fixpoint(system, state, bounds)


def test_closure_no_rules_is_fixpoint():
    system = one_tube([], [ms("p"), ms("q r")], {"p", "q", "r"})
    state = closure(system, Bounds())
    assert state.contents[0] == fs(ms("p"), ms("q r"))
    assert not state.pruned


def test_closure_axiom_persistence():
    # rules keep firing, axioms never disappear
    system = one_tube(
        [parse_rule("MATE (s | . , . | s ; .)")],
        [ms("s"), ms("s t")],
        {"s", "t"},
    )
    bounds = Bounds(max_size=6, max_population=1000, max_iterations=50)
    state = closure(system, bounds)
    assert fs(ms("s"), ms("s t")).issubset(state.contents[0])


def test_closure_size_bound_sets_pruned():
    system = one_tube(
        [parse_rule("MATE (s | . , . | s ; .)")],
        [ms("s")],
        {"s"},
    )
    state = closure(system, Bounds(max_size=4, max_population=100, max_iterations=50))
    assert state.pruned
    assert state.contents[0] == fs(ms("s"), ms("s^2"), ms("s^3"), ms("s^4"))


def test_closure_population_bound_sets_pruned():
    system = one_tube(
        [parse_rule("DRIP (. | s | . ; s s , .)")],
        [ms("s")],
        {"s"},
    )
    state = closure(system, Bounds(max_size=50, max_population=5, max_iterations=100))
    assert state.pruned
    assert state.population <= 5


def test_closure_iteration_bound_sets_pruned():
    system = one_tube(
        [parse_rule("MATE (s | . , . | s ; .)")],
        [ms("s")],
        {"s"},
    )
    state = closure(system, Bounds(max_size=100, max_population=10000, max_iterations=3))
    assert state.pruned
    assert state.iterations == 3


def test_closure_monotone_in_bounds():
    system = one_tube(
        [parse_rule("MATE (s | . , . | s ; .)")],
        [ms("s")],
        {"s"},
    )
    tight = closure(system, Bounds(max_size=4, max_population=1000, max_iterations=100))
    loose = closure(system, Bounds(max_size=8, max_population=1000, max_iterations=100))
    assert tight.contents[0] <= loose.contents[0]


def test_filters_move_copies():
    system = TestTubeSystem(
        alphabet=frozenset({"a", "b"}),
        terminal=frozenset({"a"}),
        tubes=2,
        axioms=(fs(ms("a"), ms("a b")), frozenset()),
        rules=((), ()),
        filters=((1, TubeFilter((SupportFilter(frozenset({"a"})),)), 2),),
        outputs=frozenset({2}),
    )
    state = closure(system, Bounds())
    assert state.contents[0] == fs(ms("a"), ms("a b"))  # original remains
    assert state.contents[1] == fs(ms("a"))
    assert results_of_state(system, state) == {ms("a")}
    assert not state.pruned


def test_results_respects_terminal_support():
    system = one_tube([], [ms("a1 b1")], {"a1", "b1"}, terminal={"a1"})
    assert results_of_state(system, closure(system, Bounds())) == set()


def tubes_of(count):
    return TestTubeSystem(frozenset("a"), frozenset("a"), count, (fs(ms("a")),) * count,
                          ((),) * count, (), frozenset({count}))


@pytest.mark.parametrize("count", [1, 3], ids=["too-few", "too-many"])
def test_a_state_with_the_wrong_tube_count_is_refused(count):
    # a state built by hand, and one packed by the closure of another system
    system = tubes_of(2)
    for state in (TTSState((fs(ms("a")),) * count, False, 0), closure(tubes_of(count), Bounds())):
        for read in (lambda: is_fixpoint(system, state, Bounds()),
                     lambda: results_of_state(system, state)):
            with pytest.raises(ValueError, match=f"^state has {count} tubes, system has 2$"):
                read()


def test_keep_empty_false_drops_empty_results():
    drip = parse_rule("DRIP (. | c | . ; a , .)")
    system = one_tube([drip], [ms("c")], {"a", "c"}, terminal={"a"})
    with_empty = closure(system, Bounds())
    assert EMPTY in with_empty.contents[0]
    without = closure(system, Bounds(keep_empty=False))
    assert EMPTY not in without.contents[0]
    assert not without.pruned


def test_drip1_in_engine():
    system = one_tube(
        [parse_rule("DRIP1 (. | c | . ; a , b)")],
        [ms("c p")],
        {"a", "b", "c", "p"},
    )
    state = closure(system, Bounds())
    assert ms("a p") in state.contents[0]
    assert ms("b") in state.contents[0]


def test_self_pairing_allowed():
    system = one_tube(
        [parse_rule("MATE (s | . , . | s ; .)")],
        [ms("s")],
        {"s"},
    )
    state = closure(system, Bounds(max_size=2, max_population=10, max_iterations=5))
    assert ms("s^2") in state.contents[0]


def test_mate_operands_need_full_multiplicity():
    system = one_tube(
        [parse_rule("MATE (. | a , b^2 | . ; c)"), parse_rule("MATE (d^2 | . , . | a ; .)")],
        [ms("a"), ms("b"), ms("b^2 e"), ms("d")],
        {"a", "b", "c", "d", "e"},
    )
    state = closure(system, Bounds(max_size=8, max_population=100, max_iterations=10))
    assert state.contents[0] == fs(ms("a"), ms("b"), ms("b^2 e"), ms("d"), ms("c e"))
    assert not state.pruned


def test_validate_tts():
    good = one_tube([], [ms("a")], {"a"})
    assert validate_tts(good) == []

    bad_filter = TestTubeSystem(
        alphabet=frozenset({"a"}),
        terminal=frozenset(),
        tubes=2,
        axioms=(frozenset(), frozenset()),
        rules=((), ()),
        filters=((1, TubeFilter((SupportFilter(frozenset({"zz"})),)), 1),),
        outputs=frozenset(),
    )
    problems = validate_tts(bad_filter)
    assert any("distinct" in p for p in problems)
    assert any("outside the alphabet" in p for p in problems)

    stray = one_tube([], [ms("q")], {"a"})
    assert any("outside the alphabet" in p for p in validate_tts(stray))
    bad_terminal = TestTubeSystem(
        alphabet=frozenset({"a"}), terminal=frozenset({"zz"}), tubes=1,
        axioms=(frozenset(),), rules=((),), filters=(), outputs=frozenset(),
    )
    assert any("terminal" in p for p in validate_tts(bad_terminal))


def test_alphabet_and_terminal_names_are_checked():
    # in a file, the line that declares the name; through the API, at closure
    for text, lineno, name in (("SYSTEM TTS\nALPHABET a b^2 c;d\nTUBES 1\n", 2, "b^2"),
                               ("SYSTEM TTS\nALPHABET a\nTUBES 1\nTERMINAL a\x01b\n", 4, "a\x01b")):
        with pytest.raises(FormatError, match=re.escape(f"line {lineno}: symbol {name!r} contains")):
            parse_tts(text)
    for alphabet, terminal in (({"a", "b^2"}, set()), ({"a", "a\x01b"}, {"a\x01b"})):
        system = one_tube([], [ms("a")], alphabet, terminal)
        assert any("forbidden character" in p for p in validate_tts(system))
        with pytest.raises(ValueError, match="forbidden character"):
            closure(system, Bounds())


def test_format_roundtrip():
    system = TestTubeSystem(
        alphabet=frozenset({"X", "Z", "l0", "a1"}),
        terminal=frozenset({"a1"}),
        tubes=2,
        axioms=(fs(ms("X"), ms("Z l0")), frozenset()),
        rules=((parse_rule("MATE (X | . , Z | l0 ; .)"),), ()),
        filters=((1, TubeFilter((SupportFilter(frozenset({"a1"})),
                                 SupportFilter(frozenset({"X", "a1"})))), 2),),
        outputs=frozenset({2}),
    )
    text = render_tts(system)
    back = parse_tts(text)
    assert render_tts(back) == text
    assert back.alphabet == system.alphabet
    assert back.axioms == system.axioms
    assert back.rules == system.rules
    assert back.outputs == system.outputs
    assert {f[1] for f in back.filters} == {TubeFilter(tuple(sorted(
        system.filters[0][1].branches, key=lambda b: " ".join(sorted(b.allowed)))))}


def _naive_productions(system, contents):
    """Everything one step could add: every rule on every vesicle or pair of
    a tube, plus filter passage.  Mates see every pair whose left vesicle
    holds u+a and whose right vesicle holds b+v, the only pairs that
    `apply_mate` does not reject; oversize fusions are built too."""
    out = set()
    for t, rules in enumerate(system.rules):
        pool = contents[t]
        for rule in rules:
            if isinstance(rule, MateRule):
                lefts = [v for v in pool if v.contains(rule.u + rule.a)]
                rights = [v for v in pool if v.contains(rule.b + rule.v)]
                out.update((t, apply_mate(rule, v1, v2)) for v1 in lefts for v2 in rights)
            elif rule.one_sided:
                for v in pool:
                    outcome = apply_drip1(rule, v)
                    if outcome is not None:
                        out.update((t, w) for w in outcome)
            else:
                for v in pool:
                    out.update((t, w) for pair in apply_drip(rule, v) for w in pair)
    for i, filt, j in system.filters:
        out.update((j - 1, v) for v in contents[i - 1] if filt.passes(v))
    return out


def _naive_closure(system, bounds):
    """Reference saturation: recompute every production from scratch each
    round.  Independent of the engine's operand index, size cut and
    frontier bookkeeping.  Returns (contents, pruned, iterations)."""
    contents = [set() for _ in range(system.tubes)]
    pruned = False
    iterations = 0

    def admissible(v):
        nonlocal pruned
        if len(v) > bounds.max_size:
            pruned = True
            return False
        return len(v) > 0 or bounds.keep_empty

    batch = [(t, v) for t in range(system.tubes) for v in system.axioms[t] if admissible(v)]
    while True:
        for t, v in sorted(batch, key=lambda tv: (tv[0], tv[1].render())):
            if sum(map(len, contents)) >= bounds.max_population:
                return contents, True, iterations
            contents[t].add(v)
        batch = [(t, v) for t, v in _naive_productions(system, contents)
                 if v not in contents[t] and admissible(v)]
        if not batch:
            return contents, pruned, iterations
        if iterations >= bounds.max_iterations:
            return contents, True, iterations
        iterations += 1


def _assert_matches_reference(system, bounds):
    state = closure(system, bounds)
    contents, pruned, iterations = _naive_closure(system, bounds)
    assert [set(c) for c in state.contents] == contents
    assert (state.pruned, state.iterations) == (pruned, iterations)


def test_closure_matches_naive_reference(even):
    bounds = Bounds(max_size=9, max_population=4000, max_iterations=100)
    for construction in ("thm1", "cor2", "cor3"):
        _assert_matches_reference(compile_machine(even, construction), bounds)


@pytest.mark.parametrize("construction, bounds", [
    # cut by size only: no population or iteration cap is reached
    ("thm1", Bounds(4, 3000, 100)),
    ("cor2", Bounds(4, 3000, 100)),
    # cut by size and by population
    ("thm1", Bounds(8, 200, 100)),
    ("cor2", Bounds(8, 200, 100)),
    ("cor3", Bounds(8, 400, 100)),
    # cut by the iteration budget
    ("thm1", Bounds(8, 3000, 4)),
])
def test_faithful_closure_matches_naive_reference(even, construction, bounds):
    system = compile_machine(even, construction, CompileOptions(fidelity="faithful"))
    _assert_matches_reference(system, bounds)


def test_self_pairing_at_size_limit():
    # the only applicable pair is {s p} with itself: {p^2 t}, size 2 + 2 - 1
    system = one_tube([parse_rule("MATE (. | s , s | . ; t)")], [ms("s p")], {"p", "s", "t"})
    fits = closure(system, Bounds(max_size=3, max_population=100, max_iterations=10))
    assert fits.contents[0] == fs(ms("s p"), ms("p^2 t"))
    assert not fits.pruned
    over = closure(system, Bounds(max_size=2, max_population=100, max_iterations=10))
    assert over.contents[0] == fs(ms("s p"))
    assert over.pruned


def test_truncation_seen_only_by_old_left_new_right_pass():
    # {L q^3} is a left operand from the start; the right operand {R} only
    # appears in round 1, so the oversize pair is an old left with a new right
    system = one_tube(
        [parse_rule("MATE (L | . , . | R ; .)"), parse_rule("DRIP1 (. | c | . ; R , .)")],
        [ms("L q^3"), ms("c")],
        {"L", "R", "c", "q"},
    )
    bounds = Bounds(max_size=4, max_population=100, max_iterations=10)
    state = closure(system, bounds)
    assert state.contents[0] == fs(ms("L q^3"), ms("c"), ms("R"), EMPTY)
    assert state.pruned
    assert is_fixpoint(system, state, bounds)
    fits = closure(system, Bounds(max_size=5, max_population=100, max_iterations=2))
    assert ms("L R q^3") in fits.contents[0]


def test_is_fixpoint_sees_oversize_productions_uncapped():
    system = one_tube([parse_rule("MATE (s | . , . | s ; .)")], [ms("s")], {"s"})
    bounds = Bounds(max_size=4, max_population=100, max_iterations=50)
    state = closure(system, bounds)
    assert state.pruned
    # at max_size 8, _productions fuses every pair, s^4 with itself included
    assert {v for _, v in _productions(system, state.contents, 8)} == {
        ms(f"s^{n}") for n in range(2, 9)}
    assert is_fixpoint(system, state, bounds)
    assert not is_fixpoint(system, state, Bounds(max_size=5, max_population=100, max_iterations=50))


# A mate and a drip share the symbols X and q, a mate has an empty left
# need, a drip has no need at all, and one mate is listed twice.
_SHARED_NEED_RULES = [
    parse_rule("MATE (X | p , q | . ; .)"),
    parse_rule("DRIP1 (. | X q | . ; r , .)"),
    parse_rule("MATE (. | . , q | . ; r)"),
    parse_rule("DRIP (. | . | . ; r , .)"),
    parse_rule("MATE (X | p , q | . ; .)"),
]


def _operands(index, slots):
    """The slot maps `slots` that `index` filed, by packed rule: a mate
    rule's (left, right) maps, a drip rule's map."""
    operands = {rule: (slots[left], slots[right]) for rule, left, right, _ in index._mates}
    operands.update((rule, slots[i]) for rule, i, _ in index._drips)
    return operands


def test_symbol_index_operands_match_brute_force():
    pool = [ms("X p"), ms("q"), ms("X q"), ms("X^2 p q"), ms("p r"), EMPTY, ms("q^2 r")]
    codec = Codec({"X", "p", "q", "r"}, _SHARED_NEED_RULES, 4)
    index = OperandIndex(codec, [(codec.compile(rule), 0) for rule in _SHARED_NEED_RULES])
    slots = index.file(map(codec.encode, pool))
    # the mate listed twice fires once
    assert [packed.rule for packed, *_ in index._mates] == _SHARED_NEED_RULES[0:4:2]
    assert [packed.rule for packed, *_ in index._drips] == _SHARED_NEED_RULES[1:4:2]

    def by_size(need):
        out = {}
        for v in pool:
            if v.contains(need):
                out.setdefault(len(v), []).append(v)
        return out

    def decoded(operands):
        return {size: [codec.decode(v) for v in bucket] for size, bucket in operands.items()}

    for packed, operands in _operands(index, slots).items():
        rule = packed.rule
        if isinstance(rule, MateRule):
            assert tuple(map(decoded, operands)) == (
                by_size(rule.u + rule.a), by_size(rule.b + rule.v))
        else:
            assert decoded(operands) == by_size(rule.u + rule.c + rule.v)


# Two mates share their left need X p, and the last mate's two sides share
# the need X, so the index keeps 4 slots for 6 need sides.
_SHARED_SLOT_RULES = [
    parse_rule("MATE (X | p , q | . ; .)"),
    parse_rule("MATE (X | p , r | . ; s)"),
    parse_rule("MATE (X | . , X | . ; .)"),
]


@pytest.mark.parametrize("bounds", [
    Bounds(max_size=6, max_population=3000, max_iterations=100),
    # cut by size and by population
    Bounds(max_size=4, max_population=40, max_iterations=100),
])
def test_shared_slots_match_naive_reference(bounds):
    system = one_tube(_SHARED_SLOT_RULES, [ms("X p"), ms("q"), ms("r"), ms("X"), ms("X^2 q")],
                      {"X", "p", "q", "r", "s"})
    codec = Codec(system.alphabet, _SHARED_SLOT_RULES, 4)
    index = OperandIndex(codec, [(codec.compile(rule), 0) for rule in _SHARED_SLOT_RULES])
    assert len(index._entries) == 4
    _assert_matches_reference(system, bounds)


@pytest.mark.parametrize("fidelity", ["guarded", "faithful"])
def test_compiled_shared_slots_match_naive_reference(even, fidelity):
    # thm1's and cor2's tubes hold mates with equal needs, which share slots
    for construction in ("thm1", "cor2"):
        system = compile_machine(even, construction, CompileOptions(fidelity=fidelity))
        codec = Codec(system.alphabet, [rule for rules in system.rules for rule in rules], 8)
        sides = slots = 0
        for rules in system.rules:
            rules = dict.fromkeys(rules)
            sides += sum(2 if isinstance(rule, MateRule) else 1 for rule in rules)
            slots += len(OperandIndex(codec, [(codec.compile(rule), 0) for rule in rules])._entries)
        assert slots < sides
        _assert_matches_reference(system, Bounds(max_size=8, max_population=300, max_iterations=100))


def _index_lists(index, slots):
    """Every size bucket of every rule side of the slot maps `slots` that
    `index` filed."""
    for operands in _operands(index, slots).values():
        for side in operands if isinstance(operands, tuple) else (operands,):
            yield from side.values()


@settings(max_examples=100)
@given(st.lists(small_multisets(("X", "p", "q", "r"), 4), unique=True, max_size=12), st.data())
def test_batched_index_matches_brute_force(pool, data):
    # each batch is filed into slot maps of its own, which are merged into
    # `held` as a closure merges its mate operands
    codec = Codec({"X", "p", "q", "r"}, _SHARED_NEED_RULES, 4)
    index = OperandIndex(codec, [(codec.compile(rule), 0) for rule in _SHARED_NEED_RULES])
    held = index.file(())
    cuts = sorted(data.draw(st.lists(st.integers(0, len(pool)), max_size=3)))
    for start, end in zip([0, *cuts], [*cuts, len(pool)]):
        batch = set(map(codec.encode, pool[start:end]))
        for slot, filed in zip(held, index.file(batch)):
            for size, bucket in filed.items():
                slot[size] += bucket
        for bucket in _index_lists(index, held):
            assert len(set(bucket)) == len(bucket)

    def by_size(need):
        out = {}
        for v in pool:
            if v.contains(need):
                out.setdefault(len(v), set()).add(codec.encode(v))
        return out

    def as_sets(operands):
        return {size: set(bucket) for size, bucket in operands.items()}

    for packed, operands in _operands(index, held).items():
        rule = packed.rule
        if isinstance(rule, MateRule):
            assert tuple(map(as_sets, operands)) == (
                by_size(rule.u + rule.a), by_size(rule.b + rule.v))
        else:
            assert as_sets(operands) == by_size(rule.u + rule.c + rule.v)


@pytest.mark.parametrize("bounds", [
    Bounds(max_size=5, max_population=2000, max_iterations=50),
    Bounds(max_size=6, max_population=60, max_iterations=50),
    Bounds(max_size=6, max_population=2000, max_iterations=2, keep_empty=False),
])
def test_shared_need_rules_match_naive_reference(bounds):
    system = one_tube(_SHARED_NEED_RULES, [ms("X p"), ms("q"), ms("X q")], {"X", "p", "q", "r"})
    _assert_matches_reference(system, bounds)


def test_format_errors():
    with pytest.raises(FormatError, match="line"):
        parse_tts("SYSTEM TTS\nTUBES x\n")
    with pytest.raises(FormatError):
        parse_tts("SYSTEM TTS\nALPHABET a\nTUBES 1\nAXIOM 1 a\n")
    with pytest.raises(FormatError):
        parse_tts("ALPHABET a\n")
    with pytest.raises(FormatError):
        parse_tts("SYSTEM TTS\nALPHABET a\nTUBES 1\nFILTER 1 -> 1 SUPPORT {a}\n")


@pytest.mark.parametrize("text, lineno", [
    ("SYSTEM TTS\nALPHABET a\nTUBES 1\nAXIOM 5 {a}\n", 4),
    ("SYSTEM TTS\nALPHABET a\nTUBES 1\nRULE 0 MATE (a | . , a | . ; .)\n", 4),
    # the count may come after the line that names the tube
    ("SYSTEM TTS\nALPHABET a\nAXIOM 2 {a}\nTUBES 1\n", 3),
    ("SYSTEM TTS\nALPHABET a\nTUBES 1\nAXIOM 1 a\n", 4),
    ("SYSTEM TTS\nALPHABET a\nTUBES 2\nFILTER 1 -> 2 SUPPORT a\n", 4),
    # numerals are ASCII digits only
    ("SYSTEM TTS\nALPHABET a\nTUBES 1_0\n", 3),
    ("SYSTEM TTS\nALPHABET a\nTUBES 1\nAXIOM +1 {a}\n", 4),
    ("SYSTEM TTS\nALPHABET a\nTUBES 1\nAXIOM 1 {a^1_0}\n", 4),
    ("SYSTEM TTS\nALPHABET a\nTUBES 1\nAXIOM 1 {a^+2}\n", 4),
    ("SYSTEM TTS\nALPHABET a\nTUBES 1\nRULE \u0661 MATE (a | . , a | . ; .)\n", 4),
    ("SYSTEM TTS\nALPHABET a\nTUBES 1\nOUTPUT 1 +1\n", 4),
    ("SYSTEM TTS\nALPHABET a\nTUBES 2\nFILTER 1 -> \u0662 SUPPORT {a}\n", 4),
    # output and filter tubes out of range
    ("SYSTEM TTS\nALPHABET a\nTUBES 1\nOUTPUT 1 2\n", 4),
    ("SYSTEM TTS\nALPHABET a\nTUBES 2\nFILTER 1 -> 5 SUPPORT {a}\n", 4),
    ("SYSTEM TTS\nALPHABET a\nTUBES 2\nFILTER 0 -> 2 SUPPORT {a}\n", 4),
    ("SYSTEM TTS\nALPHABET a\nFILTER 3 -> 1 SUPPORT {a}\nTUBES 2\nOUTPUT 1\n", 3),
    # only AXIOM, RULE and FILTER lines may repeat
    ("SYSTEM TTS\nALPHABET a\nSYSTEM TTS\nTUBES 1\n", 3),
    ("SYSTEM TTS\nALPHABET a b\nALPHABET a\nTUBES 1\nAXIOM 1 {b}\n", 3),
    ("SYSTEM TTS\nALPHABET a\nTERMINAL a\nTUBES 1\nTERMINAL\n", 5),
    ("SYSTEM TTS\nALPHABET a\nTUBES 1\nTUBES 1\n", 4),
    ("SYSTEM TTS\nALPHABET a\nTUBES 1\nOUTPUT 1\nAXIOM 1 {a}\nOUTPUT 1\n", 6),
    # at most 1,000 tubes
    ("SYSTEM TTS\nALPHABET a\nTUBES 1001\n", 3),
    # sizes and rule weights past sys.maxsize, which len() cannot return
    (f"SYSTEM TTS\nALPHABET a\nTUBES 1\nAXIOM 1 {{a^{10**20}}}\n", 4),
    (f"SYSTEM TTS\nALPHABET a\nTUBES 1\nRULE 1 DRIP1 (. | a | . ; a^{10**20} , .)\n", 4),
    (f"SYSTEM TTS\nALPHABET a\nTUBES 1\nRULE 1 MATE (a^{HALF} | a^{HALF} , . | . ; .)\n", 4),
    # problems found in the system once it is read
    ("SYSTEM TTS\nALPHABET a\nTUBES 1\nAXIOM 1 {z}\n", 4),
    ("SYSTEM TTS\nALPHABET a\nTERMINAL q\nTUBES 1\n", 3),
    ("SYSTEM TTS\nALPHABET a\nTUBES 1\nRULE 1 MATE (a | z , a | . ; .)\n", 4),
    ("SYSTEM TTS\nALPHABET a\nTUBES 1\nRULE 1 MATE (a | . , a | . ; .)\n"
     "RULE 1 MATE (a | z , a | . ; .)\n", 5),
    ("SYSTEM TTS\nALPHABET a\nTUBES 1\nFILTER 1 -> 1 SUPPORT {a}\n", 4),
    ("SYSTEM TTS\nALPHABET a\nTUBES 2\nFILTER 1 -> 2 SUPPORT {q}\n", 4),
    ("SYSTEM TTS\nALPHABET a\nTUBES 2\nFILTER 1 -> 2 SUPPORT {a}\nFILTER 1 -> 2 SUPPORT {q}\n", 5),
    ("SYSTEM TTS\nALPHABET a\nTUBES 0\n", 3),
])
def test_format_errors_give_the_line(text, lineno):
    with pytest.raises(FormatError, match=f"^line {lineno}: "):
        parse_tts(text)


def test_system_problems_come_in_line_order():
    text = "SYSTEM TTS\nALPHABET a\nTUBES 2\nFILTER 2 -> 1 SUPPORT {q}\nAXIOM 1 {z}\nTERMINAL q\n"
    with pytest.raises(FormatError) as info:
        parse_tts(text)
    assert str(info.value) == (
        "line 4: filter (2 -> 1) uses symbols outside the alphabet: ['q']; "
        "line 5: tube 1 axiom z uses symbols outside the alphabet: ['z']; "
        "line 6: terminal alphabet must be a subset of the alphabet")


def test_a_thousand_tubes_parse():
    assert parse_tts("SYSTEM TTS\nALPHABET a\nTUBES 1000\nOUTPUT 1000\n").tubes == 1000


@st.composite
def small_tts_systems(draw):
    """2-3 tubes over 3-5 symbols, each with one to three mate, drip or
    drip1 rules and one to three axioms of size at most 4, and union filters
    between distinct tubes."""
    names = draw(small_alphabets())
    tubes = draw(st.integers(2, 3))
    axioms = tuple(frozenset(draw(st.lists(small_multisets(names, 4), min_size=1, max_size=3)))
                   for _ in range(tubes))
    rules = tuple(tuple(draw(st.lists(small_rules(names), min_size=1, max_size=3)))
                  for _ in range(tubes))
    filters = []
    for _ in range(draw(st.integers(0, 3))):
        source, target = draw(st.permutations(range(1, tubes + 1)))[:2]
        branches = draw(st.lists(st.frozensets(st.sampled_from(names)), min_size=1, max_size=2))
        filters.append((source, TubeFilter(tuple(map(SupportFilter, branches))), target))
    return TestTubeSystem(alphabet=frozenset(names), terminal=frozenset(names[:2]), tubes=tubes,
                          axioms=axioms, rules=rules, filters=tuple(filters),
                          outputs=frozenset({tubes}))


@settings(max_examples=100)
@given(small_tts_systems(), small_bounds())
def test_random_systems_match_naive_reference(system, bounds):
    _assert_matches_reference(system, bounds)
    state = closure(system, bounds)
    if not state.pruned:
        assert is_fixpoint(system, state, bounds)


@settings(max_examples=100)
@given(small_tts_systems(), small_bounds())
def test_unread_state_reads_like_decoded_state(system, bounds):
    state = closure(system, bounds)
    unread = (results_of_state(system, state), state.population)
    state.contents
    assert unread == (results_of_state(system, state), state.population)


@settings(max_examples=100)
@given(small_tts_systems(), st.integers(1, 5), st.booleans())
def test_uncapped_results_grow_with_max_size(system, max_size, keep_empty):
    small, large = (closure(system, Bounds(s, 300, 30, keep_empty))
                    for s in (max_size, max_size + 1))
    # cut by size alone: a size-s fixpoint lies inside the size-(s+1) one
    if all(state.population < 300 and state.iterations < 30 for state in (small, large)):
        assert all(a <= b for a, b in zip(small.contents, large.contents))
        assert results_of_state(system, small) <= results_of_state(system, large)


@st.composite
def filtered_rounds(draw):
    """A system of 2-3 tubes with union filters, some of whose tubes have no
    rules and some of whose branches allow every symbol or none, and a
    frontier per tube that may hold the empty vesicle."""
    names = draw(small_alphabets())
    tubes = draw(st.integers(2, 3))
    rules = tuple(tuple(draw(st.lists(small_rules(names), max_size=2))) for _ in range(tubes))
    allowed = st.one_of(st.just(frozenset()), st.just(frozenset(names)),
                        st.frozensets(st.sampled_from(names)))
    filters = []
    for _ in range(draw(st.integers(1, 4))):
        source, target = draw(st.permutations(range(1, tubes + 1)))[:2]
        branches = draw(st.lists(allowed, min_size=1, max_size=3))
        filters.append((source, TubeFilter(tuple(map(SupportFilter, branches))), target))
    system = TestTubeSystem(alphabet=frozenset(names), terminal=frozenset(), tubes=tubes,
                            axioms=(fs(),) * tubes, rules=rules, filters=tuple(filters),
                            outputs=frozenset({1}))
    frontier = [set(draw(st.lists(small_multisets(names, 4), max_size=6))) for _ in range(tubes)]
    return system, frontier


_EVERY_BRANCH = (
    TestTubeSystem(
        alphabet=frozenset({"a", "b"}), terminal=frozenset(), tubes=3, axioms=(fs(),) * 3,
        rules=((parse_rule("DRIP1 (. | a | . ; b , .)"),), (), ()),
        filters=((1, TubeFilter((SupportFilter(frozenset()), SupportFilter(frozenset({"a"})))), 2),
                 (2, TubeFilter((SupportFilter(frozenset({"a", "b"})),)), 3),
                 (2, TubeFilter((SupportFilter(frozenset()),)), 1)),
        outputs=frozenset({3})),
    [{EMPTY, ms("a"), ms("a b"), ms("b^2")}, {EMPTY, ms("b"), ms("a^3 b")}, {ms("a")}])


@settings(max_examples=150)
@given(filtered_rounds())
@example(_EVERY_BRANCH)
def test_round_filter_passage_matches_tube_filter(round_input):
    # the vesicles a round passes through each filter, read from the index's
    # branch slots, against TubeFilter.passes on the decoded frontier; the
    # round's rule productions still come out as the reference's
    system, frontier = round_input
    bounds = Bounds(max_size=8)
    codec = Codec(system.alphabet, [r for rules in system.rules for r in rules], 8)
    passage = [set() for _ in frontier]
    for i, filt, j in system.filters:
        passage[j - 1] |= {v for v in frontier[i - 1] if filt.passes(v)}

    def round_of(system):
        packed = [set(map(codec.encode, tube)) for tube in frontier]
        indexes = _operator(system, codec)
        produced, _ = _round(indexes, [index.file(()) for index in indexes], packed, bounds, codec)
        return [set(map(codec.decode, tube)) for tube in produced]

    ruleless = TestTubeSystem(system.alphabet, system.terminal, system.tubes, system.axioms,
                              ((),) * system.tubes, system.filters, system.outputs)
    assert round_of(ruleless) == passage
    expected = [set() for _ in frontier]
    for t, v in _naive_productions(system, frontier):
        if bounds.keeps(len(v)):
            expected[t].add(v)
    assert round_of(system) == expected


# cor2 drips only to grow its seeds, one vesicle a bucket; cor3 works by drip alone
@pytest.mark.parametrize("construction, per_call", [("cor2", 1), ("cor3", 4)])
def test_a_round_fires_each_drip_once_per_size_bucket(even, construction, per_call, monkeypatch):
    # each kernel call takes a whole bucket: in each tube's batch of a round,
    # one call per (rule, size) at most, and every vesicle of a call has
    # that size; a rule that two tubes hold fires once in each
    system = compile_machine(even, construction, CompileOptions(fidelity="faithful"))
    calls, batches = [], []
    productions = matedrip.tts.rule_productions
    drip1, drip2 = matedrip.tts.apply_drip1, matedrip.tts.apply_drip

    def spied_productions(index, held, batch, outs, bounds, codec, kernels):
        batches.append(codec.field)
        return productions(index, held, batch, outs, bounds, codec, kernels)

    def spy(kernel):
        def call(rule, vesicles, *rest):
            sizes = {v % batches[-1] for v in vesicles}
            calls.append((len(batches), rule, sizes, len(vesicles)))
            return kernel(rule, vesicles, *rest)
        return call

    monkeypatch.setattr(matedrip.tts, "rule_productions", spied_productions)
    monkeypatch.setattr(matedrip.tts, "apply_drip1", spy(drip1))
    monkeypatch.setattr(matedrip.tts, "apply_drip", spy(drip2))
    closure(system, Bounds(8, 3000, 100))
    assert calls and all(len(sizes) == 1 for _, _, sizes, _ in calls)
    buckets = Counter((batch, rule, min(sizes)) for batch, rule, sizes, _ in calls)
    assert max(buckets.values()) == 1
    # cor3's buckets hold many vesicles, so it makes far fewer calls than firings
    assert sum(n for *_, n in calls) >= per_call * len(calls)


def _unordered(system):
    """`system` up to the order of its rules, filters and filter branches,
    which the text format sorts, and the grouping of branches by their
    (source, target), which it merges."""
    return (system.alphabet, system.terminal, system.tubes, system.axioms,
            tuple(map(Counter, system.rules)),
            Counter((i, b, j) for i, filt, j in system.filters for b in filt.branches),
            system.outputs)


@settings(max_examples=100)
@given(small_tts_systems())
def test_random_systems_round_trip(system):
    parsed = parse_tts(render_tts(system))
    assert _unordered(parsed) == _unordered(system)
    assert parse_tts(render_tts(parsed)) == parsed


def _count_decodes(monkeypatch) -> list:
    """The packed vesicle of every Codec.decode call from now on."""
    calls = []
    decode = Codec.decode
    monkeypatch.setattr(Codec, "decode", lambda codec, v: calls.append(v) or decode(codec, v))
    return calls


def test_verify_decodes_only_results(even, monkeypatch):
    system = compile_machine(even, "thm1")
    bounds = Bounds(max_size=8, max_population=3000, max_iterations=100)
    found = 0
    for b in (bounds, bounds.loosened()):
        state = closure(system, b)
        assert state.population < b.max_population  # no fill was cut, so none decoded
        found += len(results_of_state(system, state))
    decoded = _count_decodes(monkeypatch)
    report = run_verify(even, "even.rm", "thm1", bound=2, fuel=200, bounds=bounds)
    assert report.matched and found == 5
    assert len(decoded) <= found


def test_unread_state_readers_decode_nothing_else(even, monkeypatch):
    system = compile_machine(even, "cor2", CompileOptions(fidelity="faithful"))
    bounds = Bounds(max_size=6, max_population=3000, max_iterations=100)
    reference = closure(system, bounds)
    reference.contents
    population, found = reference.population, results_of_state(system, reference)
    assert found and population == sum(map(len, reference.contents)) < bounds.max_population

    state = closure(system, bounds)
    decoded = _count_decodes(monkeypatch)
    assert state.population == population and not decoded
    assert results_of_state(system, state) == found
    assert len(decoded) == len(found)

    # the output tube holds vesicles of non-terminal support too
    system = one_tube([], [ms("a1"), ms("a1 b1"), ms("b1")], {"a1", "b1"}, terminal={"a1"})
    state = closure(system, bounds)
    del decoded[:]
    assert results_of_state(system, state) == {ms("a1")} and len(decoded) == 1


def test_population_cut_decodes_nothing(even, monkeypatch):
    system = compile_machine(even, "thm1", CompileOptions(fidelity="faithful"))
    bounds = Bounds(10, 400, 400)
    decoded = _count_decodes(monkeypatch)
    state = closure(system, bounds)
    assert state.pruned and state.population == bounds.max_population and not decoded
    assert sum(map(len, state.contents)) == bounds.max_population and decoded

    tissue = compile_machine(even, "thm4", CompileOptions(fidelity="faithful"))
    bounds = Bounds(12, 30, 200)
    cuts = []
    fill = matedrip.tp.fill

    def spied_fill(*args):
        placed, cut = fill(*args)
        cuts.append(cut)
        return placed, cut

    monkeypatch.setattr(matedrip.tp, "fill", spied_fill)
    tissue_state = initial_state(tissue, bounds)
    del decoded[:]
    for _ in range(3):
        tissue_state = tp_step(tissue, tissue_state, bounds)
    # the first fill places the axioms
    assert cuts == [False, False, False, True] and not decoded
    assert tissue_state.population == bounds.max_population
    assert sum(map(len, tissue_state.contents)) == bounds.max_population and decoded


def test_lazy_state_compares_and_reprs_like_naive_state(even):
    # one vesicle per tube, so the reprs' set order is fixed
    system = TestTubeSystem(alphabet=frozenset({"a", "b"}), terminal=frozenset({"a"}), tubes=2,
                            axioms=(fs(ms("a")), fs()), rules=((), ()),
                            filters=((1, TubeFilter((SupportFilter(frozenset({"a"})),)), 2),),
                            outputs=frozenset({2}))
    bounds = Bounds(max_size=2)
    state = closure(system, bounds)
    contents, pruned, iterations = _naive_closure(system, bounds)
    reference = TTSState(tuple(map(frozenset, contents)), pruned, iterations)
    assert repr(state) == repr(reference) == (
        "TTSState(contents=(frozenset({Multiset.parse('a')}), frozenset({Multiset.parse('a')})),"
        " pruned=False, iterations=1)")
    assert state == reference
    (first,), (second,) = state.contents
    assert first is second  # found in both tubes, decoded once

    thm1 = compile_machine(even, "thm1", CompileOptions(fidelity="faithful"))
    lazy = closure(thm1, Bounds(8, 400))
    assert lazy != closure(thm1, Bounds(8, 300))
    assert repr(lazy) == repr(TTSState(lazy.contents, lazy.pruned, lazy.iterations))
    assert "_packed" not in repr(lazy) and lazy.contents is lazy.contents


def test_frozen_state_copies_read_like_the_original(even):
    system = compile_machine(even, "thm1")
    bounds = Bounds(max_size=8, max_population=3000, max_iterations=100)
    decoded = closure(system, bounds).contents

    state = closure(system, bounds)
    for name, value in (("contents", ()), ("pruned", True), ("iterations", 0)):
        with pytest.raises(AttributeError):
            setattr(state, name, value)
    assert state == closure(system, bounds)

    # a copy that reads its contents empties the packed sets it shares
    # with the original, which then reads the copy's decoded tubes
    state = closure(system, bounds)
    twin = copy.copy(state)
    assert twin.contents == decoded
    assert state.population == sum(map(len, decoded))
    assert results_of_state(system, state) == results_of_state(system, twin)
    assert state.contents == decoded


@pytest.mark.parametrize("max_population, pruned", [(5, False), (4, True)])
def test_fill_at_and_one_past_the_room(max_population, pruned):
    # round 1 brings {l1}, {l10} and {l1^2} to a tube of two: they fit a cap
    # of 5 exactly, and a cap of 4 keeps the first two in render order
    rules = [parse_rule("DRIP1 (. | g | . ; l1 , l10)")]
    system = one_tube(rules, [ms("g"), ms("g l1")], {"g", "l1", "l10"})
    bounds = Bounds(4, max_population, 10)
    state = closure(system, bounds)
    assert state.pruned is pruned and state.population == 2 + 3 - pruned
    assert (ms("l1^2") in state.contents[0]) is not pruned
    assert {ms("l1"), ms("l10")} <= state.contents[0]
    _assert_matches_reference(system, bounds)


def test_closure_states_are_freed_without_the_cycle_collector(even):
    system = compile_machine(even, "thm1", CompileOptions(fidelity="faithful"))
    bounds = Bounds(max_size=8, max_population=300)
    gc.disable()
    try:
        for read in (False, True):
            state = closure(system, bounds)
            if read:
                state.contents
            freed = weakref.ref(state)
            del state
            assert freed() is None
    finally:
        gc.enable()


def test_tab_separated_directives():
    spaced = ("SYSTEM TTS\nALPHABET a b\nTERMINAL a\nTUBES 2\nOUTPUT 2\nAXIOM 1 {a b}\n"
              "RULE 1 DRIP1 (. | b | . ; a , .)\nFILTER 1 -> 2 SUPPORT {a}\n")
    tabbed = spaced.replace(" ", "\t").replace("(\t.\t|\tb\t|\t.\t;\ta\t,\t.)", "(. | b | . ; a , .)")
    assert "SYSTEM\tTTS" in tabbed and "FILTER\t1\t->\t2\tSUPPORT\t{a}" in tabbed
    assert render_tts(parse_tts(tabbed)) == render_tts(parse_tts(spaced))
