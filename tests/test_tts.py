import pytest

from matedrip import (
    Bounds,
    CompileOptions,
    EMPTY,
    FormatError,
    MateRule,
    Multiset,
    SupportFilter,
    TestTubeSystem,
    TubeFilter,
    apply_drip,
    apply_drip1,
    apply_mate,
    closure,
    compile_machine,
    is_fixpoint,
    parse_rule,
    parse_tts,
    render_tts,
    results,
    results_of_state,
    validate_tts,
)
from matedrip.tts import _SymbolIndex, _productions


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
    assert results(system, Bounds()) == set()


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
    # without a cap, _productions fuses every pair, s^4 with itself included
    assert {v for _, v in _productions(system, state.contents)} == {
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


def test_symbol_index_operands_match_brute_force():
    pool = [ms("X p"), ms("q"), ms("X q"), ms("X^2 p q"), ms("p r"), EMPTY, ms("q^2 r")]
    index = _SymbolIndex(pool, _SHARED_NEED_RULES)
    assert list(index.operands) == _SHARED_NEED_RULES[:4]

    def holding(need):
        return [v for v in pool if v.contains(need)]

    def by_size(need):
        out = {}
        for v in holding(need):
            out.setdefault(len(v), []).append(v)
        return out

    for rule, operands in index.operands.items():
        if isinstance(rule, MateRule):
            assert operands == (by_size(rule.u + rule.a), by_size(rule.b + rule.v))
        else:
            assert operands == holding(rule.u + rule.c + rule.v)


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
])
def test_format_errors_give_the_line(text, lineno):
    with pytest.raises(FormatError, match=f"^line {lineno}: "):
        parse_tts(text)
