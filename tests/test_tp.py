import copy
import gc
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import small_alphabets, small_bounds, small_multisets, small_rules
from matedrip import (
    Bounds,
    CompileOptions,
    EMPTY,
    FormatError,
    MateRule,
    Multiset,
    TissueSystem,
    TPRule,
    TPState,
    apply_drip,
    apply_drip1,
    apply_mate,
    compile_machine,
    initial_state,
    parse_rule,
    parse_tp,
    render_tp,
    tp_run,
    tp_step,
    validate_tp,
)
from matedrip.engine import Codec


def ms(text):
    return Multiset.parse(text)


def fs(*vesicles):
    return frozenset(vesicles)


def system_of(cells, axioms, rules, alphabet, terminal=frozenset(), output=1):
    ax = {i: set() for i in range(1, cells + 1)}
    for i, v in axioms:
        ax[i].add(v)
    return TissueSystem(
        alphabet=frozenset(alphabet),
        terminal=frozenset(terminal),
        cells=cells,
        axioms=tuple(frozenset(ax[i]) for i in range(1, cells + 1)),
        rules=tuple(rules),
        output_cell=output,
    )


def test_step_regeneration_pattern():
    # cell 1 holds {B}; the splitting rule sends {R} and {P B} to cell 2
    system = system_of(
        2,
        [(1, ms("B"))],
        [TPRule(1, parse_rule("DRIP (. | B | . ; R , P B)"), 2)],
        {"B", "P", "R"},
    )
    state = tp_step(system, initial_state(system, Bounds()), Bounds())
    assert state.contents[0] == frozenset()
    assert state.contents[1] == fs(ms("R"), ms("B P"))


def test_step_vesicle_feeding_two_rules():
    # one vesicle matches two rules: both fire, the operand is removed once
    system = system_of(
        2,
        [(1, ms("s t"))],
        [
            TPRule(1, parse_rule("DRIP (. | s | . ; p , .)"), 2),
            TPRule(1, parse_rule("DRIP (. | t | . ; q ,.)"), 2),
        ],
        {"p", "q", "s", "t"},
    )
    state = tp_step(system, initial_state(system, Bounds()), Bounds())
    assert state.contents[0] == frozenset()
    # s-rule: residual {t} splits to either side; t-rule symmetric
    assert ms("p t") in state.contents[1]
    assert ms("q s") in state.contents[1]
    assert EMPTY in state.contents[1]


def test_step_unmatched_vesicle_persists():
    system = system_of(
        2,
        [(1, ms("quiet")), (1, ms("s"))],
        [TPRule(1, parse_rule("DRIP (. | s | . ; p , .)"), 2)],
        {"p", "quiet", "s"},
    )
    state = tp_step(system, initial_state(system, Bounds()), Bounds())
    assert state.contents[0] == fs(ms("quiet"))
    state = tp_step(system, state, Bounds())
    assert state.contents[0] == fs(ms("quiet"))


def test_step_mate_pair_consumed():
    system = system_of(
        2,
        [(1, ms("X")), (1, ms("Y w"))],
        [TPRule(1, parse_rule("MATE (X | . , Y | . ; .)"), 2)],
        {"X", "Y", "w"},
    )
    state = tp_step(system, initial_state(system, Bounds()), Bounds())
    assert state.contents[0] == frozenset()
    assert state.contents[1] == fs(ms("X w"))


def test_run_zero_steps_reads_output_cell():
    system = system_of(1, [(1, ms("a")), (1, ms("a b"))], [], {"a", "b"},
                       terminal={"a"}, output=1)
    result_set, trace = tp_run(system, 0, Bounds())
    assert result_set == {ms("a")}
    assert trace.steps == 0 and not trace.pruned


def test_run_no_rules_contents_constant():
    system = system_of(2, [(1, ms("a")), (2, ms("b"))], [], {"a", "b"})
    state = initial_state(system, Bounds())
    for _ in range(5):
        nxt = tp_step(system, state, Bounds())
        assert nxt.contents == state.contents
        state = nxt


def test_results_accumulate_across_steps():
    # a result visits the output cell once and is logged forever
    system = system_of(
        2,
        [(1, ms("s"))],
        [
            TPRule(1, parse_rule("DRIP (. | s | . ; a , t)"), 2),
            TPRule(2, parse_rule("MATE (a | . , t | . ; s)"), 1),
        ],
        {"a", "s", "t"},
        terminal={"a"},
        output=2,
    )
    result_set, trace = tp_run(system, 4, Bounds())
    assert ms("a") in result_set


def test_oversize_arrival_sets_pruned():
    system = system_of(
        2,
        [(1, ms("s"))],
        [TPRule(1, parse_rule("DRIP (. | s | . ; p^9 , .)"), 2)],
        {"p", "s"},
    )
    _, trace = tp_run(system, 1, Bounds(max_size=4))
    assert trace.pruned


def test_keep_empty_false():
    system = system_of(
        2,
        [(1, ms("s"))],
        [TPRule(1, parse_rule("DRIP (. | s | . ; p , .)"), 2)],
        {"p", "s"},
    )
    _, _ = tp_run(system, 1, Bounds())
    state = tp_step(system, initial_state(system, Bounds(keep_empty=False)),
                    Bounds(keep_empty=False))
    assert EMPTY not in state.contents[1]


def test_tp_run_repeatable(even):
    from matedrip.compilers import compile_thm4

    system = compile_thm4(even)
    bounds = Bounds(max_size=12, max_population=10000, max_iterations=100)
    first_results, first_trace = tp_run(system, 24, bounds)
    second_results, second_trace = tp_run(system, 24, bounds)
    assert first_results == second_results
    assert first_trace == second_trace


def test_oversize_mate_still_consumes_operands():
    # the only firing makes {X w^3}, one over the cap: both operands leave
    # cell 1 and nothing arrives in cell 2
    system = system_of(
        2,
        [(1, ms("X w")), (1, ms("Y w^2")), (1, ms("quiet"))],
        [TPRule(1, parse_rule("MATE (X | . , Y | . ; .)"), 2)],
        {"X", "Y", "quiet", "w"},
    )
    bounds = Bounds(max_size=3)
    state = tp_step(system, initial_state(system, bounds), bounds)
    assert state.contents == (fs(ms("quiet")), frozenset())
    assert state.pruned
    fits = tp_step(system, initial_state(system, Bounds(max_size=4)), Bounds(max_size=4))
    assert fits.contents == (fs(ms("quiet")), fs(ms("X w^3")))
    assert not fits.pruned


def _naive_tp_step(system, state, bounds):
    """Reference step straight from the definition: every applicable firing
    on the pre-step contents happens, every vesicle that took part leaves
    its cell, results arrive in the target cells and are admitted in
    canonical order.  Mates see every pair whose left vesicle holds u+a and
    whose right vesicle holds b+v, the only pairs that `apply_mate` does not
    reject; oversize fusions are built and then refused on admission."""
    used = [set() for _ in range(system.cells)]
    arrivals = [set() for _ in range(system.cells)]
    for tp in system.rules:
        pool, rule = state.contents[tp.source - 1], tp.rule
        if isinstance(rule, MateRule):
            lefts = [v for v in pool if v.contains(rule.u + rule.a)]
            rights = [v for v in pool if v.contains(rule.b + rule.v)]
            firings = [((v1, v2), [apply_mate(rule, v1, v2)]) for v1 in lefts for v2 in rights]
        elif rule.one_sided:
            firings = [((v,), apply_drip1(rule, v)) for v in pool if apply_drip1(rule, v)]
        else:
            firings = [((v,), [w for pair in apply_drip(rule, v) for w in pair])
                       for v in pool if apply_drip(rule, v)]
        for operands, products in firings:
            used[tp.source - 1].update(operands)
            arrivals[tp.target - 1].update(products)
    pruned = state.pruned
    kept = [set(state.contents[c]) - used[c] for c in range(system.cells)]
    fresh = []
    for c in range(system.cells):
        for v in arrivals[c] - kept[c]:
            if len(v) > bounds.max_size:
                pruned = True
            elif len(v) > 0 or bounds.keep_empty:
                fresh.append((c, v))
    for c, v in sorted(fresh, key=lambda cv: (cv[0], cv[1].render())):
        if sum(map(len, kept)) >= bounds.max_population:
            pruned = True
            break
        kept[c].add(v)
    out = kept[system.output_cell - 1]
    log = state.result_log | {v for v in out if v.support <= system.terminal}
    return TPState(state.step + 1, tuple(frozenset(k) for k in kept), log, pruned)


@pytest.mark.parametrize("fidelity, bounds", [
    ("faithful", Bounds(max_size=6, max_population=20000, max_iterations=200)),
    ("faithful", Bounds(max_size=8, max_population=400, max_iterations=200)),
    ("guarded", Bounds(max_size=6, max_population=20000, max_iterations=200)),
])
def test_tp_step_matches_naive_reference(even, fidelity, bounds):
    system = compile_machine(even, "thm4", CompileOptions(fidelity=fidelity))
    state = reference = initial_state(system, bounds)
    for _ in range(32):
        state = tp_step(system, state, bounds)
        reference = _naive_tp_step(system, reference, bounds)
        assert state == reference
    assert state.pruned


@pytest.mark.parametrize("max_population, pruned", [(3, False), (2, True)])
def test_fill_at_and_one_past_the_room(max_population, pruned):
    # step 1 consumes both axioms and brings {l1}, {l10} and {l1^2} to cell 2:
    # they fit a cap of 3 exactly, and a cap of 2 keeps the first two in
    # render order
    system = system_of(2, [(1, ms("g")), (1, ms("g l1"))],
                       [TPRule(1, parse_rule("DRIP1 (. | g | . ; l1 , l10)"), 2)],
                       {"g", "l1", "l10"})
    bounds = Bounds(4, max_population)
    start = initial_state(system, bounds)
    state = tp_step(system, start, bounds)
    kept = fs(ms("l1"), ms("l10")) | (fs() if pruned else fs(ms("l1^2")))
    assert state.contents == (fs(), kept) and state.pruned is pruned
    assert state == _naive_tp_step(system, start, bounds)


@pytest.mark.parametrize("pruned", [False, True])
def test_crowded_step_without_newcomers_keeps_pruned(pruned):
    # the kept cells hold 4 vesicles under a cap of 2, and the drip's
    # products are all in cell 2 already, so nothing new arrives
    system = system_of(2, [], [TPRule(1, parse_rule("DRIP1 (. | g | . ; l1 , l10)"), 2)],
                       {"a", "b", "g", "l1", "l10"})
    crowded = TPState(0, (fs(ms("g"), ms("a"), ms("b")), fs(ms("l1"), ms("l10"))), fs(), pruned)
    bounds = Bounds(4, 2)
    state = tp_step(system, crowded, bounds)
    assert state.contents == (fs(ms("a"), ms("b")), fs(ms("l1"), ms("l10")))
    assert state.pruned is pruned
    assert state == _naive_tp_step(system, crowded, bounds)


def test_drip_rule_with_two_targets_fires_once():
    drip = parse_rule("DRIP1 (. | s | . ; p , q)")
    system = system_of(
        3,
        [(1, ms("s t")), (1, ms("quiet"))],
        [TPRule(1, drip, 2), TPRule(1, drip, 3)],
        {"p", "q", "quiet", "s", "t"},
    )
    start = initial_state(system, Bounds())
    state = tp_step(system, start, Bounds())
    assert state.contents == (fs(ms("quiet")), fs(ms("p t"), ms("q")), fs(ms("p t"), ms("q")))
    assert state == _naive_tp_step(system, start, Bounds())


def test_mate_with_empty_left_need_consumes_every_vesicle():
    # every vesicle is a left operand, so a right operand present uses all
    system = system_of(
        2,
        [(1, ms("q")), (1, ms("p")), (1, ms("p^2 q"))],
        [TPRule(1, parse_rule("MATE (. | . , q | . ; r)"), 2),
         TPRule(2, parse_rule("MATE (. | . , q | . ; r)"), 1)],
        {"p", "q", "r"},
    )
    bounds = Bounds(max_size=4)
    state = reference = initial_state(system, bounds)
    state = tp_step(system, state, bounds)
    assert state.contents[0] == frozenset()
    assert ms("p r") in state.contents[1]
    for _ in range(3):
        reference = _naive_tp_step(system, reference, bounds)
        assert state == reference
        state = tp_step(system, state, bounds)


# -- packed states: contents and result_log decoded on first read ------------


def _stepped(system, bounds, steps):
    state = initial_state(system, bounds)
    for _ in range(steps):
        state = tp_step(system, state, bounds)
    return state


@pytest.mark.parametrize("fidelity, bounds", [
    ("faithful", Bounds(max_size=8, max_population=20000, max_iterations=200)),
    ("faithful", Bounds(max_size=8, max_population=400, max_iterations=200)),
    ("guarded", Bounds(max_size=8, max_population=60, max_iterations=200)),
])
def test_unread_step_chain_matches_naive_reference(even, fidelity, bounds):
    # no step's contents or result log is read before the last, so each step
    # works on the packed form the one before left
    system = compile_machine(even, "thm4", CompileOptions(fidelity=fidelity))
    state = _stepped(system, bounds, 24)
    reference = initial_state(system, bounds)
    for _ in range(24):
        reference = _naive_tp_step(system, reference, bounds)
    assert state.population == reference.population
    assert state == reference
    assert state.result_log and state.pruned


def test_replaced_fields_step_like_naive_reference(even):
    system = compile_machine(even, "thm4", CompileOptions(fidelity="faithful"))
    bounds = Bounds(max_size=8, max_population=400, max_iterations=200)
    twin = _stepped(system, bounds, 10)
    contents, log = twin.contents, twin.result_log
    unreplaced = tp_step(system, twin, bounds)

    # contents replaced while the result log is still packed; the new output
    # cell holds a terminal vesicle past the fields of the packed form
    state = _stepped(system, bounds, 10)
    state.contents = (frozenset(), contents[1], contents[2], contents[3], frozenset({ms("a1^40")}))
    assert state.result_log == log
    after = tp_step(system, state, bounds)
    assert after == _naive_tp_step(system, TPState(10, state.contents, log, state.pruned), bounds)
    assert after != unreplaced and ms("a1^40") in after.result_log

    # the result log replaced while the contents are still packed
    state = _stepped(system, bounds, 10)
    state.result_log = frozenset({ms("a1^50")})
    assert state.contents == contents
    after = tp_step(system, state, bounds)
    assert after == _naive_tp_step(
        system, TPState(10, contents, frozenset({ms("a1^50")}), state.pruned), bounds)
    assert after.result_log == unreplaced.result_log | {ms("a1^50")}

    # a copy reads its fields without touching the original's packed form
    state = _stepped(system, bounds, 10)
    copy.copy(state).contents = ()
    assert tp_step(system, state, bounds) == unreplaced


def test_run_decodes_only_the_final_result_log(even, monkeypatch):
    system = compile_machine(even, "thm4", CompileOptions(fidelity="faithful"))
    bounds = Bounds(max_size=12, max_population=20000, max_iterations=200)
    decoded = []
    decode = Codec.decode
    monkeypatch.setattr(Codec, "decode", lambda codec, v: decoded.append(v) or decode(codec, v))
    results, trace = tp_run(system, 40, bounds)
    assert max(map(sum, trace.populations)) < bounds.max_population  # the cap never cut
    assert trace.pruned and len(results) == 7
    assert len(decoded) <= len(results)


def test_lazy_state_compares_and_reprs_like_naive_state(even):
    # one vesicle per cell, so the reprs' set order is fixed
    system = system_of(3, [(1, ms("a")), (2, ms("b"))],
                       [TPRule(1, parse_rule("DRIP1 (. | a | . ; c , .)"), 3),
                        TPRule(2, parse_rule("DRIP1 (. | b | . ; d , .)"), 3),
                        TPRule(3, parse_rule("MATE (. | c , d | . ; e)"), 3)],
                       {"a", "b", "c", "d", "e"}, terminal={"e"}, output=3)
    bounds = Bounds(max_size=4, keep_empty=False)
    state = reference = initial_state(system, bounds)
    for _ in range(3):
        state = tp_step(system, state, bounds)
        reference = _naive_tp_step(system, reference, bounds)
        assert repr(state) == repr(reference)
        assert state == reference
    assert state.result_log == {ms("e")}

    thm4 = compile_machine(even, "thm4", CompileOptions(fidelity="faithful"))
    lazy = _stepped(thm4, Bounds(8, 400), 6)
    assert lazy != _stepped(thm4, Bounds(8, 400), 7)
    assert repr(lazy) == repr(TPState(6, lazy.contents, lazy.result_log, lazy.pruned))
    assert "_packed" not in repr(lazy) and lazy.contents is lazy.contents


def test_stepped_states_are_freed_without_the_cycle_collector(even):
    system = compile_machine(even, "thm4", CompileOptions(fidelity="faithful"))
    bounds = Bounds(max_size=8, max_population=400)
    gc.disable()
    try:
        for read in (False, True):
            state = _stepped(system, bounds, 3)
            if read:
                state.contents, state.result_log
            freed = weakref.ref(state)
            del state
            assert freed() is None
    finally:
        gc.enable()


def test_validate_tp():
    good = system_of(2, [(1, ms("a"))], [TPRule(1, parse_rule("MATE (a | . , a | . ; .)"), 2)],
                     {"a"})
    problems, warnings = validate_tp(good)
    assert problems == [] and warnings == []

    bad = system_of(2, [(1, ms("a"))], [TPRule(1, parse_rule("MATE (a | . , a | . ; .)"), 0)],
                    {"a"})
    problems, _ = validate_tp(bad)
    assert any("out of range" in p for p in problems)

    selfloop = system_of(2, [(1, ms("a"))], [TPRule(1, parse_rule("MATE (a | . , a | . ; .)"), 1)],
                         {"a"})
    problems, warnings = validate_tp(selfloop)
    assert problems == [] and len(warnings) == 1

    stray = system_of(1, [(1, ms("zz"))], [], {"a"})
    problems, _ = validate_tp(stray)
    assert any("outside the alphabet" in p for p in problems)


def test_format_roundtrip():
    system = system_of(
        3,
        [(1, ms("B")), (3, ms("E l3"))],
        [
            TPRule(1, parse_rule("DRIP (. | B | . ; B , s)"), 2),
            TPRule(2, parse_rule("MATE (B | . , R | . ; .)"), 1),
        ],
        {"B", "E", "R", "l3", "s"},
        terminal={"s"},
        output=3,
    )
    text = render_tp(system)
    back = parse_tp(text)
    assert render_tp(back) == text
    assert back.axioms == system.axioms
    assert set(back.rules) == set(system.rules)
    assert back.output_cell == 3


def test_format_errors():
    with pytest.raises(FormatError):
        parse_tp("SYSTEM TP\nALPHABET a\nCELLS 1\n")  # missing OUTPUT
    with pytest.raises(FormatError, match="line"):
        parse_tp("SYSTEM TP\nALPHABET a\nCELLS 1\nOUTPUT 1\nRULE 1 MATE (a | . , a | . ; .)\n")
    with pytest.raises(FormatError):
        parse_tp("SYSTEM TTS\nALPHABET a\nCELLS 1\nOUTPUT 1\n")


@pytest.mark.parametrize("text, lineno", [
    ("SYSTEM TP\nALPHABET a\nCELLS 1\nOUTPUT 1\nAXIOM 3 {a}\n", 5),
    ("SYSTEM TP\nALPHABET a\nAXIOM 3 {a}\nCELLS 1\nOUTPUT 1\n", 3),
    ("SYSTEM TP\nALPHABET a\nCELLS 2\nOUTPUT 1\nRULE 3 MATE (a | . , a | . ; .) -> 1\n", 5),
    ("SYSTEM TP\nALPHABET a\nCELLS 1\nOUTPUT 1\nAXIOM 1 a\n", 5),
    # numerals are ASCII digits only
    ("SYSTEM TP\nALPHABET a\nCELLS 1_0\nOUTPUT 1\n", 3),
    ("SYSTEM TP\nALPHABET a\nCELLS 1\nOUTPUT +1\n", 4),
    ("SYSTEM TP\nALPHABET a\nCELLS 1\nOUTPUT 1\nAXIOM 1 {a^1_0}\n", 5),
    ("SYSTEM TP\nALPHABET a\nCELLS 2\nOUTPUT 1\nRULE 1 MATE (a | . , a | . ; .) -> \u0662\n", 5),
    # output and target cells out of range
    ("SYSTEM TP\nALPHABET a\nCELLS 2\nOUTPUT 3\n", 4),
    ("SYSTEM TP\nALPHABET a\nCELLS 2\nOUTPUT 1\nRULE 1 MATE (a | . , a | . ; .) -> 3\n", 5),
    ("SYSTEM TP\nALPHABET a\nRULE 1 DRIP (. | a | . ; a , .) -> 0\nCELLS 2\nOUTPUT 1\n", 3),
    # only AXIOM and RULE lines may repeat; a second OUTPUT no longer wins
    ("SYSTEM TP\nSYSTEM TP\nALPHABET a\nCELLS 1\nOUTPUT 1\n", 2),
    ("SYSTEM TP\nALPHABET a\nCELLS 1\nOUTPUT 1\nALPHABET a\n", 5),
    ("SYSTEM TP\nALPHABET a\nTERMINAL\nTERMINAL a\nCELLS 1\nOUTPUT 1\n", 4),
    ("SYSTEM TP\nALPHABET a\nCELLS 2\nCELLS 2\nOUTPUT 1\n", 4),
    ("SYSTEM TP\nALPHABET a\nCELLS 2\nOUTPUT 1\nAXIOM 1 {a}\nOUTPUT 2\n", 6),
    # at most 1,000 cells
    ("SYSTEM TP\nALPHABET a\nCELLS 1001\nOUTPUT 1\n", 3),
])
def test_format_errors_give_the_line(text, lineno):
    with pytest.raises(FormatError, match=f"^line {lineno}: "):
        parse_tp(text)


def test_a_thousand_cells_parse():
    assert parse_tp("SYSTEM TP\nALPHABET a\nCELLS 1000\nOUTPUT 1000\n").cells == 1000


@st.composite
def small_tp_systems(draw):
    """2-3 cells over 3-5 symbols with one to four mate, drip or drip1 rules,
    each anchored at a cell and sending its results to a cell (possibly its
    own), and one to three axioms of size at most 4 per cell."""
    names = draw(small_alphabets())
    cells = draw(st.integers(2, 3))
    axioms = tuple(frozenset(draw(st.lists(small_multisets(names, 4), min_size=1, max_size=3)))
                   for _ in range(cells))
    cell = st.integers(1, cells)
    rules = draw(st.lists(st.builds(TPRule, cell, small_rules(names), cell),
                          min_size=1, max_size=4))
    return TissueSystem(alphabet=frozenset(names), terminal=frozenset(names[:2]), cells=cells,
                        axioms=axioms, rules=tuple(rules), output_cell=cells)


@settings(derandomize=True, max_examples=100, database=None, deadline=None)
@given(small_tp_systems(), small_bounds())
def test_random_systems_step_like_naive_reference(system, bounds):
    state = reference = initial_state(system, bounds)
    for _ in range(4):
        state = tp_step(system, state, bounds)
        reference = _naive_tp_step(system, reference, bounds)
        assert state == reference


@settings(derandomize=True, max_examples=100, database=None, deadline=None)
@given(small_tp_systems())
def test_random_systems_round_trip(system):
    # the text format sorts the rules, so they compare up to order
    parsed = parse_tp(render_tp(system))
    assert Counter(parsed.rules) == Counter(system.rules)
    assert parsed == TissueSystem(**{**vars(system), "rules": parsed.rules})
    assert parse_tp(render_tp(parsed)) == parsed


def test_tab_separated_directives():
    spaced = ("SYSTEM TP\nALPHABET a b\nTERMINAL a\nCELLS 2\nOUTPUT 2\nAXIOM 1 {a b}\n"
              "RULE 1 DRIP1 (. | b | . ; a , .) -> 2\n")
    tabbed = spaced.replace("SYSTEM ", "SYSTEM\t").replace("ALPHABET ", "ALPHABET\t")
    tabbed = tabbed.replace("CELLS ", "CELLS\t").replace("OUTPUT ", "OUTPUT\t")
    tabbed = tabbed.replace("AXIOM 1 ", "AXIOM\t1\t").replace("RULE 1 ", "RULE\t1\t")
    assert render_tp(parse_tp(tabbed)) == render_tp(parse_tp(spaced))
