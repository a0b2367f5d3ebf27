import copy
import gc
import random
import re
import tracemalloc
import weakref
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    HALF, machine_path, small_alphabets, small_bounds, small_multisets, small_rules)
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
    TPTrace,
    apply_drip,
    apply_drip1,
    apply_mate,
    closure,
    compile_machine,
    initial_state,
    load_machine,
    parse_rule,
    parse_tp,
    parse_tts,
    render_tp,
    tp_run,
    tp_step,
    validate_tp,
)
from matedrip.cli import main
from matedrip.engine import Codec, OperandIndex
from matedrip.tp import MAX_STEPS
from test_compilers import rand_machine, small_machines


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


def test_population_cap_holds_from_step_0():
    # the start keeps what a closure's first fill keeps: by cell, then render
    axioms = "".join(f"AXIOM 1 {{{x}}}\n" for x in "abcde")
    system = parse_tp("SYSTEM TP\nALPHABET a b c d e\nTERMINAL a b c d e\nCELLS 2\nOUTPUT 2\n"
                      + axioms)
    bounds = Bounds(max_population=2)
    start = initial_state(system, bounds)
    assert start.contents == (frozenset({ms("a"), ms("b")}), frozenset()) and start.pruned
    _, trace = tp_run(system, 3, bounds)
    assert trace.populations == ((2, 0),) * 4 and trace.pruned
    tube = closure(parse_tts("SYSTEM TTS\nALPHABET a b c d e\nTUBES 1\n" + axioms), bounds)
    assert tube.contents == start.contents[:1] and tube.pruned and tube.iterations == 0

    split = system_of(2, [(1, ms("d")), (1, ms("c")), (2, ms("b")), (2, ms("a"))], [], "abcd",
                      terminal="abcd", output=2)
    start = initial_state(split, Bounds(max_population=3))
    assert start.contents == (frozenset({ms("c"), ms("d")}), frozenset({ms("a")}))
    assert start.pruned and start.result_log == {ms("a")}


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


def test_frozen_step_state_copies_read_like_the_original(even):
    system = compile_machine(even, "thm4", CompileOptions(fidelity="faithful"))
    bounds = Bounds(max_size=8, max_population=400, max_iterations=200)
    twin = _stepped(system, bounds, 10)
    population, log = twin.population, twin.result_log
    following = tp_step(system, twin, bounds)

    state = _stepped(system, bounds, 10)
    for name, value in (("step", 0), ("contents", ()), ("result_log", frozenset()),
                        ("pruned", False)):
        with pytest.raises(AttributeError):
            setattr(state, name, value)
    _, trace = tp_run(system, 2, bounds)
    with pytest.raises(AttributeError):
        trace.pruned = False

    # a copy reads its fields without touching the original's packed form
    state = _stepped(system, bounds, 10)
    assert copy.copy(state).contents == twin.contents
    assert (state.population, state.result_log) == (population, log)
    assert tp_step(system, state, bounds) == following


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
    # a repr prints a frozenset in hash order, so the reprs are compared
    # only where each cell and the log hold at most one vesicle (every state
    # but the one after step 1, whose cell 3 holds c and d); every state is
    # also compared field by field, each set as its sorted renders
    system = system_of(3, [(1, ms("a")), (2, ms("b"))],
                       [TPRule(1, parse_rule("DRIP1 (. | a | . ; c , .)"), 3),
                        TPRule(2, parse_rule("DRIP1 (. | b | . ; d , .)"), 3),
                        TPRule(3, parse_rule("MATE (. | c , d | . ; e)"), 3)],
                       {"a", "b", "c", "d", "e"}, terminal={"e"}, output=3)
    bounds = Bounds(max_size=4, keep_empty=False)

    def fields(s):
        return (s.step, [sorted(map(str, cell)) for cell in s.contents],
                sorted(map(str, s.result_log)), s.pruned)

    state = reference = initial_state(system, bounds)
    compared = 0
    for step in range(4):
        if step:
            state = tp_step(system, state, bounds)
            reference = _naive_tp_step(system, reference, bounds)
        if all(len(cell) <= 1 for cell in (*reference.contents, reference.result_log)):
            assert repr(state) == repr(reference)
            compared += 1
        assert fields(state) == fields(reference)
        assert state == reference
    assert compared == 3
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


def _recorded(state):
    """A copy of the records `state` holds, each set, slot map and bucket
    copied, per generation and cell."""
    return [{src: (set(r.cell), [{size: list(bucket) for size, bucket in slot.items()}
                                 for slot in r.slots],
                   {target: set(out) for target, out in r.products.items()},
                   r.oversize, set(r.fired), set(r.gone))
             for src, r in records.items()}
            for records in state._packed.records]


def test_a_recorded_state_stays_a_value(even):
    # every state is stepped twice and must keep its records as they were:
    # equal states alone would not show a step that appended to a recorded
    # list, since a duplicate in a bucket changes no result, so every bucket
    # of every record a step makes is checked for duplicates too
    system = compile_machine(even, "thm4", CompileOptions(fidelity="faithful"))
    bounds = Bounds(max_size=8, max_population=400)
    start = initial_state(system, bounds)
    state, reference = tp_step(system, start, bounds), _naive_tp_step(system, start, bounds)
    for _ in range(28):
        before = _recorded(state)
        first, again = tp_step(system, state, bounds), tp_step(system, state, bounds)
        reference = _naive_tp_step(system, reference, bounds)
        assert first == again == reference
        assert _recorded(state) == before
        for record in first._packed.records[0].values():
            for slot in record.slots:
                for bucket in slot.values():
                    assert len(set(bucket)) == len(bucket)
        state = again


# a mate's left operand {L} waits in cell 1 beside {idle}, which no rule
# uses, while cell 2 drips {a} to {b} to {c} and then sends {R} to cell 1
WAITING = """SYSTEM TP
ALPHABET L R a b c idle
TERMINAL L R
CELLS 3
OUTPUT 3
AXIOM 1 {L}
AXIOM 1 {idle}
AXIOM 2 {a}
RULE 1 MATE (L | . , . | R ; .) -> 3
RULE 2 DRIP1 (. | a | . ; b , .) -> 2
RULE 2 DRIP1 (. | b | . ; c , .) -> 2
RULE 2 DRIP1 (. | c | . ; R , .) -> 1
"""


def test_a_waiting_operand_is_recorded_until_its_partner_arrives():
    # cell 1 holds {L idle} before steps 1 to 3 and {L idle R} before step
    # 4, so steps 3 and 4 reuse the slot of {L} from the record two steps
    # back, and step 4 fuses only {L} with the new {R}; before steps 5 and
    # 6 cell 1 holds {idle} alone, and the whole cell is filed again
    system, bounds = parse_tp(WAITING), Bounds(max_size=4, keep_empty=False)
    (_, left, _, _), = initial_state(system, bounds)._packed.anchored[0]._mates
    state = reference = initial_state(system, bounds)
    reused = []
    for step in range(1, 7):
        earlier = state._packed.records[1].get(0)
        state = tp_step(system, state, bounds)
        reference = _naive_tp_step(system, reference, bounds)
        assert state == reference
        if earlier and state._packed.records[0][0].slots[left] is earlier.slots[left]:
            reused.append(step)
    assert reused == [3, 4]
    assert state.contents[0] == fs(ms("idle")) and state.result_log == {ms("L R")}


def test_recorded_states_are_freed_without_the_cycle_collector(even):
    # 12 faithful steps in, a cell's step shares slot maps with the record
    # made two steps back
    system = compile_machine(even, "thm4", CompileOptions(fidelity="faithful"))
    bounds = Bounds(max_size=8, max_population=400)
    state = _stepped(system, bounds, 11)
    following = tp_step(system, state, bounds)
    assert any(now is then for src, record in following._packed.records[0].items()
               for now, then in zip(record.slots, state._packed.records[1][src].slots))
    del state, following
    gc.disable()
    try:
        state = _stepped(system, bounds, 11)
        following = tp_step(system, state, bounds)
        freed = weakref.ref(state), weakref.ref(following)
        del state, following
        assert [ref() for ref in freed] == [None, None]
    finally:
        gc.enable()


def test_records_never_chain(even):
    # a state holds the records of its step and of the step before, and a
    # record holds no state: with the cycle collector off, the state three
    # steps back is freed; this run repeats with period 4 from step 51, and
    # over 40 steps of that cycle the traced memory stays flat, where a
    # record kept per step would add kilobytes
    system = compile_machine(even, "thm4", CompileOptions(fidelity="faithful"))
    bounds = Bounds(max_size=6, max_population=150)
    state = initial_state(system, bounds)
    held, traced = [], {}
    gc.disable()
    tracemalloc.start()
    try:
        for step in range(1, 101):
            state = tp_step(system, state, bounds)
            held = [state, *held[:2]]
            if step >= 4:
                assert gone() is None
            gone = weakref.ref(held[-1])
            if step in (60, 96, 100):
                traced[step] = tracemalloc.get_traced_memory()[0], state._packed.cells
    finally:
        tracemalloc.stop()
        gc.enable()
    assert traced[96][1] == traced[100][1]
    assert traced[100][0] - traced[60][0] < 16_000


def _needs(rule):
    """The needs of a rule's sides: a mate's left and right, a drip's one."""
    if isinstance(rule, MateRule):
        return rule.u + rule.a, rule.b + rule.v
    return (rule.u + rule.c + rule.v,)


def test_a_run_files_only_what_is_new_since_two_steps_back(even, monkeypatch):
    # a step files an anchored cell whole, unless the cell holds all it held
    # two steps back, when the step before made a record of it: then only
    # the vesicles it gained since are filed
    system = compile_machine(even, "thm4", CompileOptions(fidelity="faithful"))
    bounds = Bounds(max_size=8, max_population=400)
    filed = []
    file = OperandIndex.file
    monkeypatch.setattr(OperandIndex, "file",
                        lambda index, vesicles: filed.append(len(vesicles)) or file(index, vesicles))
    anchored = {tp.source - 1 for tp in system.rules}
    states = [initial_state(system, bounds)]
    for _ in range(10):
        states.append(tp_step(system, states[-1], bounds))

    expected = whole = 0
    for k, state in enumerate(states[:-1]):
        for c in anchored:
            cell = state.contents[c]
            earlier = states[k - 2].contents[c] if k >= 2 else frozenset()
            expected += len(cell - earlier) if earlier <= cell else len(cell)
            whole += len(cell)
    assert sum(filed) == expected < whole / 2

    # one slot per distinct need: 67 over the anchored cells, where the
    # rules have 98 need sides
    indexes = states[0]._packed.anchored
    for c, index in indexes.items():
        needs = {(isinstance(tp.rule, MateRule), need) for tp in system.rules
                 if tp.source - 1 == c for need in _needs(tp.rule)}
        assert len(index._entries) == len(needs)
    assert sum(len(index._entries) for index in indexes.values()) == 67
    assert sum(len(_needs(rule)) for _, rule in {(tp.source, tp.rule) for tp in system.rules}) == 98


def test_a_changed_bound_files_the_whole_cell(even):
    # a record is reused only under the bounds it was made under: a state
    # stepped under Bounds(10, ...) is stepped under a smaller max_size, and
    # a system that makes an empty vesicle every other step under
    # keep_empty=False, and both steps equal the reference
    system = compile_machine(even, "thm4", CompileOptions(fidelity="faithful"))
    state = _stepped(system, Bounds(10, 20000), 12)
    for bounds in (Bounds(8, 20000), Bounds(10, 20000, keep_empty=False)):
        assert tp_step(system, state, bounds) == _naive_tp_step(system, state, bounds)
    empties = parse_tp(EMPTIES)
    state = _stepped(empties, Bounds(10, 20000), 4)
    assert state.contents == (fs(ms("a"), EMPTY), fs())
    bounds = Bounds(10, 20000, keep_empty=False)
    assert tp_step(empties, state, bounds) == _naive_tp_step(empties, state, bounds)


# cell 1 drips {a} to {a} and {} in cell 2, and cell 2 sends back every
# vesicle and a {} with it, so from step 2 on cell 1 holds {a} and {}: its
# step sends {} to cell 2, which is empty every other step
EMPTIES = """SYSTEM TP
ALPHABET a
TERMINAL a
CELLS 2
OUTPUT 2
AXIOM 1 {a}
RULE 1 DRIP1 (. | a | . ; a , .) -> 2
RULE 2 DRIP1 (. | . | . ; . , .) -> 1
"""


def small_machine_systems():
    """thm4 in both fidelities over each of the 18 small-scope machines."""
    return [compile_machine(machine, "thm4", CompileOptions(fidelity=fidelity))
            for registers in (1, 2) for machine in small_machines(registers)
            for fidelity in ("guarded", "faithful")]


@pytest.mark.parametrize("bounds", [Bounds(8, 20000), Bounds(8, 40)], ids=["uncapped", "capped"])
def test_small_machines_step_like_naive_reference(bounds):
    # many of these cells lose a vesicle between two steps, so their steps
    # file the whole cell, and the others reuse the record two steps back
    covered = uncovered = 0
    for system in small_machine_systems():
        states = [initial_state(system, bounds)]
        reference = states[0]
        for _ in range(14):
            states.append(tp_step(system, states[-1], bounds))
            reference = _naive_tp_step(system, reference, bounds)
            assert states[-1] == reference
        for before, state in zip(states, states[2:-1]):
            for c in {tp.source - 1 for tp in system.rules}:
                if before.contents[c] and state.contents[c]:
                    if before.contents[c] <= state.contents[c]:
                        covered += 1
                    else:
                        uncovered += 1
    assert covered > uncovered > 0


# -- runs: a repeated state ends the stepping --------------------------------


def _plain_run(system, max_steps, bounds):
    """tp_run's outputs from a loop of max_steps tp_step calls."""
    state = initial_state(system, bounds)
    populations = [tuple(map(len, state._packed.cells))]
    for _ in range(max_steps):
        state = tp_step(system, state, bounds)
        populations.append(tuple(map(len, state._packed.cells)))
    return set(state.result_log), TPTrace(tuple(populations), state.step, state.pruned)


# the fixtures, bounds and step budgets of the guarded sweep in bench/workloads.py
SWEEP = [("even.rm", Bounds(12, 20000, 200), 40), ("mod3.rm", Bounds(16, 30000, 300), 60),
         ("eq.rm", Bounds(16, 30000, 300), 60), ("trap.rm", Bounds(8, 4000, 100), 60)]


@pytest.mark.parametrize("fidelity", ["guarded", "faithful"])
@pytest.mark.parametrize("fixture, bounds, steps", SWEEP)
def test_run_matches_a_plain_step_loop(fixture, bounds, steps, fidelity):
    system = compile_machine(load_machine(machine_path(fixture)), "thm4",
                             CompileOptions(fidelity=fidelity))
    # faithful runs never repeat at the sweep's bounds and take seconds past
    # 32 steps there, so those two runs stop at 32
    roomy, looser = (steps, steps + 10) if fidelity == "guarded" else (32, 32)
    for limits, budget in ((bounds, roomy), (bounds.loosened(), looser),
                           (Bounds(6, 150, 100), steps), (Bounds(8, 60, 100), steps)):
        assert tp_run(system, budget, limits) == _plain_run(system, budget, limits)


def test_random_machines_run_like_a_plain_step_loop():
    # every one of these guarded runs repeats within its 60 steps
    rng = random.Random(7)
    bounds = Bounds(10, 3000, 100)
    for _ in range(40):
        system = compile_machine(rand_machine(rng), "thm4", CompileOptions())
        assert tp_run(system, 60, bounds) == _plain_run(system, 60, bounds)


# period 1: no vesicle holds c, so the rule never fires
STILL = """SYSTEM TP
ALPHABET a b c
TERMINAL a
CELLS 2
OUTPUT 2
AXIOM 1 {a}
AXIOM 2 {a}
AXIOM 2 {a b}
RULE 1 DRIP1 (. | c | . ; a , .) -> 2
"""

# period 2 without empty vesicles: {a} moves from cell 1 to cell 2 and back
BOUNCE = """SYSTEM TP
ALPHABET a
TERMINAL a
CELLS 2
OUTPUT 2
AXIOM 1 {a}
RULE 1 DRIP1 (. | a | . ; a , .) -> 2
RULE 2 DRIP1 (. | a | . ; a , .) -> 1
"""

# period 3 without empty vesicles: {a} moves from cell 1 to cell 2 to cell 3
# and back, so no state repeats one 1 or 2 steps back
ROTATE = """SYSTEM TP
ALPHABET a
TERMINAL a
CELLS 3
OUTPUT 3
AXIOM 1 {a}
RULE 1 DRIP1 (. | a | . ; a , .) -> 2
RULE 2 DRIP1 (. | a | . ; a , .) -> 3
RULE 3 DRIP1 (. | a | . ; a , .) -> 1
"""


def _counted_steps(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr("matedrip.tp.tp_step", lambda *args: calls.append(1) or tp_step(*args))
    return calls


@pytest.mark.parametrize("text, keep_empty, calls, sizes", [
    (STILL, True, 1, [(1, 2)] * 21),
    (BOUNCE, False, 2, [(1, 0), (0, 1)] * 10 + [(1, 0)]),
    (ROTATE, False, 20, [(1, 0, 0), (0, 1, 0), (0, 0, 1)] * 7),
], ids=["still", "bounce", "rotate"])
def test_run_of_a_periodic_system(text, keep_empty, calls, sizes, monkeypatch):
    system, bounds = parse_tp(text), Bounds(keep_empty=keep_empty)
    assert tp_run(system, 20, bounds) == _plain_run(system, 20, bounds)
    made = _counted_steps(monkeypatch)
    results, trace = tp_run(system, 20, bounds)
    assert (results, list(trace.populations), trace.steps) == ({ms("a")}, sizes, 20)
    assert len(made) == calls


def test_a_repeated_state_ends_the_stepping(even, eq, monkeypatch, tmp_path, capsys):
    calls = _counted_steps(monkeypatch)
    guarded = compile_machine(eq, "thm4", CompileOptions())
    _, trace = tp_run(guarded, 60, Bounds(16, 30000, 300))
    assert len(calls) == 51 and len(trace.populations) == 61 and trace.steps == 60

    calls.clear()
    faithful = compile_machine(even, "thm4", CompileOptions(fidelity="faithful"))
    _, trace = tp_run(faithful, 40, Bounds(12, 20000, 200))
    assert len(calls) == 40 and len(trace.populations) == 41

    calls.clear()
    results, trace = tp_run(parse_tp(BOUNCE), 10**6, Bounds(keep_empty=False))
    assert len(calls) == 2 and results == {ms("a")}
    assert len(trace.populations) == 10**6 + 1 and trace.populations[-2:] == ((0, 1), (1, 0))

    path = tmp_path / "bounce.tp"
    path.write_text(BOUNCE)
    assert main(["run", str(path), "--max-steps", str(10**6), "--no-keep-empty"]) == 0
    assert capsys.readouterr().out == "a\n"


@pytest.mark.parametrize("max_steps, message", [
    (-1, "max_steps must be non-negative, got -1"),
    (True, "max_steps must be an int, not True"),
    (False, "max_steps must be an int, not False"),
    (2.5, "max_steps must be an int, not 2.5"),
    ("3", "max_steps must be an int, not '3'"),
    (None, "max_steps must be an int, not None"),
], ids=["-1", "True", "False", "2.5", "3", "None"])
def test_run_refuses_a_step_budget_that_is_no_count(max_steps, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tp_run(parse_tp(BOUNCE), max_steps, Bounds())


def test_run_refuses_a_step_budget_over_the_limit(tmp_path, capsys):
    # the trace keeps one population tuple per step, so a budget is capped;
    # 10**6 itself runs (test_a_repeated_state_ends_the_stepping)
    with pytest.raises(ValueError, match="max_steps 1000001 is over the limit of 1000000"):
        tp_run(parse_tp(BOUNCE), MAX_STEPS + 1, Bounds())
    path = tmp_path / "bounce.tp"
    path.write_text(BOUNCE)
    assert main(["run", str(path), "--max-steps", str(MAX_STEPS + 1)]) == 2
    captured = capsys.readouterr()
    assert "max_steps 1000001 is over the limit" in captured.err and captured.out == ""


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


def test_alphabet_and_terminal_names_are_checked():
    # in a file, the line that declares the name; through the API, at tp_run
    for text, lineno, name in (("SYSTEM TP\nALPHABET a b^2\nCELLS 1\nOUTPUT 1\n", 2, "b^2"),
                               ("SYSTEM TP\nALPHABET a\nTERMINAL a\x1bb\nCELLS 1\nOUTPUT 1\n",
                                3, "a\x1bb")):
        with pytest.raises(FormatError, match=re.escape(f"line {lineno}: symbol {name!r} contains")):
            parse_tp(text)
    for alphabet, terminal in (({"a", "b^2"}, set()), ({"a", "a\x1bb"}, {"a\x1bb"})):
        system = system_of(1, [(1, ms("a"))], [], alphabet, terminal)
        problems, _ = validate_tp(system)
        assert any("forbidden character" in p for p in problems)
        with pytest.raises(ValueError, match="forbidden character"):
            tp_run(system, 1, Bounds())


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
    # sizes and rule weights past sys.maxsize, which len() cannot return
    (f"SYSTEM TP\nALPHABET a\nCELLS 1\nOUTPUT 1\nAXIOM 1 {{a^{10**20}}}\n", 5),
    (f"SYSTEM TP\nALPHABET a\nCELLS 1\nOUTPUT 1\nRULE 1 DRIP (a^{10**19} | . | . ; . , .) -> 1\n", 5),
    (f"SYSTEM TP\nALPHABET a\nCELLS 1\nOUTPUT 1\nRULE 1 DRIP (a^{HALF} | . | . ; . , a^{HALF}) -> 1\n",
     5),
    # problems found in the system once it is read
    ("SYSTEM TP\nALPHABET a\nCELLS 2\nOUTPUT 1\nRULE 1 DRIP (. | a | . ; z , .) -> 2\n", 5),
    ("SYSTEM TP\nALPHABET a\nCELLS 2\nOUTPUT 1\nRULE 1 DRIP (. | a | . ; a , .) -> 2\n"
     "RULE 1 DRIP (. | a | . ; z , .) -> 2\n", 6),
    ("SYSTEM TP\nALPHABET a\nCELLS 1\nOUTPUT 1\nAXIOM 1 {z}\n", 5),
    ("SYSTEM TP\nALPHABET a\nTERMINAL q\nCELLS 1\nOUTPUT 1\n", 3),
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


@settings(max_examples=100)
@given(small_tp_systems(), small_bounds())
def test_random_systems_step_like_naive_reference(system, bounds):
    state = reference = initial_state(system, bounds)
    for _ in range(4):
        state = tp_step(system, state, bounds)
        reference = _naive_tp_step(system, reference, bounds)
        assert state == reference


@st.composite
def ring_runs(draw, grow: bool):
    """(system, bounds) of 2-4 cells in a ring, each passing every vesicle
    that holds the alphabet's first symbol m to the next cell by the drip1
    rule (. | m | . ; m , .), or, when it `grow`s, by (. | m | . ; m g , .),
    which adds one g, the second symbol, each time.  Cell 1 holds {m}, and
    each cell up to two more axioms of size at most 4.  A steady ring comes
    with `small_bounds()`, and mostly repeats with the ring's period, 2 to
    4; a growing one with bounds that keep every vesicle of 12 steps, so no
    state of those steps repeats an earlier one."""
    names = draw(small_alphabets())
    mover, grown = names[:2]
    cells = draw(st.integers(2, 4))
    rule = parse_rule(f"DRIP1 (. | {mover} | . ; {mover} {grown if grow else ''} , .)")
    axioms = tuple(frozenset(draw(st.lists(small_multisets(names, 4), max_size=2)))
                   | ({Multiset.of(mover)} if c == 1 else set()) for c in range(1, cells + 1))
    system = TissueSystem(alphabet=frozenset(names), terminal=frozenset(names[:2]), cells=cells,
                          axioms=axioms, output_cell=cells,
                          rules=tuple(TPRule(c, rule, c % cells + 1) for c in range(1, cells + 1)))
    bounds = Bounds(16, 1000, keep_empty=draw(st.booleans())) if grow else draw(small_bounds())
    return system, bounds


@settings(max_examples=100)
@given(st.one_of(st.tuples(small_tp_systems(), small_bounds()), ring_runs(grow=False),
                 ring_runs(grow=True)))
@example((parse_tp(BOUNCE), Bounds(keep_empty=False)))
@example((parse_tp(ROTATE), Bounds(keep_empty=False)))
def test_a_run_stops_at_its_first_repeated_state(run):
    # a run steps up to the first state whose cells equal those of one of
    # the two states before it, or through its budget when none does; most
    # small systems repeat the state one step back, rings of 2 cells, and
    # BOUNCE, the one two steps back, and longer or growing rings, and
    # ROTATE, of period 3, neither
    system, bounds = run
    budget = 12
    states = [initial_state(system, bounds)]
    for _ in range(budget):
        states.append(tp_step(system, states[-1], bounds))
    cells = [state.contents for state in states]
    first = next((step for step in range(1, budget + 1)
                  if cells[step] in cells[max(step - 2, 0):step]), budget)
    with pytest.MonkeyPatch.context() as patch:
        calls = _counted_steps(patch)
        run = tp_run(system, budget, bounds)
    assert run == _plain_run(system, budget, bounds)
    assert len(calls) == first


# cell 1 drips {a} to itself; the other cells stay empty
SELF = """SYSTEM TP
ALPHABET a
TERMINAL a
CELLS {}
OUTPUT 1
AXIOM 1 {{a}}
RULE 1 DRIP1 (. | a | . ; a , .) -> 1
"""


@pytest.mark.parametrize("count", [1, 3], ids=["too-few", "too-many"])
def test_a_state_with_the_wrong_cell_count_is_refused(count):
    # a state built by hand, and a packed one of a system with the same
    # rules and another cell count
    system = parse_tp(SELF.format(2))
    for state in (TPState(0, (fs(ms("a")),) * count, fs(), False),
                  initial_state(parse_tp(SELF.format(count)), Bounds())):
        with pytest.raises(ValueError, match=f"^state has {count} cells, system has 2$"):
            tp_step(system, state, Bounds())


@settings(max_examples=100)
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
