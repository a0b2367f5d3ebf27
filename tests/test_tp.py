import pytest

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
])
def test_format_errors_give_the_line(text, lineno):
    with pytest.raises(FormatError, match=f"^line {lineno}: "):
        parse_tp(text)
