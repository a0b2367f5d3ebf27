"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Engine bounds are pinned per fixture; every tolerance is exact.
"""

import random
import time
from itertools import product

from matedrip import (
    Bounds,
    DripRule,
    MateRule,
    Multiset,
    apply_drip,
    apply_mate,
    closure,
    compile_machine,
    compile_thm4,
    enumerate_accepted,
    initial_state,
    is_fixpoint,
    load_tp,
    load_tts,
    metrics,
    parse_rule,
    render_tp,
    render_tts,
    results_of_state,
    tp_step,
)
from matedrip.cli import main
from matedrip.compilers import CompileOptions
from matedrip.verify import run_verify

from conftest import machine_path
from test_compilers import rand_machine

GUARDED = CompileOptions()
FAITHFUL = CompileOptions(fidelity="faithful")

ALPHA = ["a", "b", "c", "d", "e"]


def ms(text):
    return Multiset.parse(text)


def rand_multiset(rng, max_size, alphabet=ALPHA):
    return Multiset.of(*(rng.choice(alphabet) for _ in range(rng.randint(0, max_size))))


# -- criterion 1: metrics bounds, exact --------------------------------------


def test_criterion_1_metrics_bounds(even, mod3, eq):
    start = time.monotonic()
    rng = random.Random(9001)
    machines = [even, mod3, eq] + [rand_machine(rng) for _ in range(2)]
    assert len(machines) >= 5
    for machine in machines:
        m1 = metrics(compile_machine(machine, "thm1", GUARDED))
        assert m1.compartments == 3 and m1.max_axiom_weight <= 3
        assert m1.max_mate_weight <= 5 and m1.drip_rules == 0 and m1.drip1_rules == 0

        m2 = metrics(compile_machine(machine, "cor2", GUARDED))
        assert m2.compartments == 3 and m2.max_axiom_weight == 1
        assert m2.max_drip_weight <= 4 and m2.max_mate_weight <= 5

        m3 = metrics(compile_machine(machine, "cor3", GUARDED))
        assert m3.compartments == 3 and m3.max_axiom_weight == 1
        assert m3.max_drip1_weight <= 4 and m3.mate_rules == 0 and m3.drip_rules == 0

        m4 = metrics(compile_machine(machine, "thm4", GUARDED))
        assert m4.compartments == 5 and m4.max_axiom_weight <= 3
        assert m4.max_mate_weight <= 5 and m4.max_drip_weight <= 5
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"metrics criterion took {elapsed:.2f}s"
    print(f"\n[C1] metrics bounds on {len(machines)} machines in {elapsed:.2f}s: PASS")


# -- criterion 2: language equivalence, guarded mode --------------------------


CASES = [
    ("even.rm", 4, {(0,), (2,), (4,)}, Bounds(12, 20000, 200), 40),
    ("mod3.rm", 6, {(0,), (3,), (6,)}, Bounds(16, 30000, 300), 60),
    ("eq.rm", 3, {(0, 0), (1, 1), (2, 2), (3, 3)}, Bounds(16, 30000, 300), 60),
]


def test_criterion_2_language_equivalence(even, mod3, eq):
    machines = {"even.rm": even, "mod3.rm": mod3, "eq.rm": eq}
    lines = []
    for name, bound, expected, bounds, steps in CASES:
        machine = machines[name]
        oracle = enumerate_accepted(machine, bound, 500)
        assert oracle == expected
        for construction in ("thm1", "cor2", "cor3", "thm4"):
            start = time.monotonic()
            report = run_verify(machine, name, construction, bound=bound, fuel=500,
                                bounds=bounds, max_steps=steps, opts=GUARDED)
            elapsed = time.monotonic() - start
            assert elapsed < 60.0, f"{name}/{construction} took {elapsed:.1f}s"
            assert report.matched, f"{name}/{construction}: {report.missing} {report.unexpected}"
            assert not report.pruned, f"{name}/{construction} unstable under looser bounds"
            if construction in ("cor2", "cor3"):
                assert report.excluded == {(0,) * machine.inputs}
            else:
                assert report.excluded == frozenset()
            lines.append(f"{name}/{construction} {elapsed:.1f}s")
    print(f"\n[C2] language equivalence, 12 verifications, all match, pruned=false: PASS")
    for line in lines:
        print(f"     {line}")


# -- criterion 3: injection anomaly pin ----------------------------------------


def test_criterion_3_injection_anomaly(trap):
    faithful = run_verify(trap, "trap.rm", "thm1", bound=2, fuel=200,
                          bounds=Bounds(4, 4000, 100), opts=FAITHFUL)
    assert faithful.oracle == frozenset()
    assert faithful.system == {(1,)}
    assert not faithful.matched

    guarded = run_verify(trap, "trap.rm", "thm1", bound=2, fuel=200,
                         bounds=Bounds(8, 4000, 100), opts=GUARDED)
    assert guarded.matched and guarded.system == frozenset()
    print("\n[C3] loading re-fire anomaly pinned (faithful mismatch, guarded match): PASS")


# -- criterion 4: rule semantics properties ------------------------------------


def test_criterion_4_rule_properties():
    rng = random.Random(9004)

    # drip then matching mate reconstructs the host
    for _ in range(1000):
        rule = DripRule(*(rand_multiset(rng, 2) for _ in range(5)))
        host = rule.u + rule.c + rule.v + rand_multiset(rng, 4)
        assert len(host) <= 8 + len(rule.u + rule.c + rule.v)
        back = MateRule(rule.u, rule.y, rule.z, rule.v, rule.c)
        outcomes = apply_drip(rule, host)
        assert outcomes
        for p, q in outcomes:
            assert apply_mate(back, p, q) == host

    # size conservation for both operations
    for _ in range(1000):
        mate = MateRule(*(rand_multiset(rng, 2) for _ in range(5)))
        v1 = mate.u + mate.a + rand_multiset(rng, 3)
        v2 = mate.b + mate.v + rand_multiset(rng, 3)
        fused = apply_mate(mate, v1, v2)
        assert len(fused) == len(v1) + len(v2) - len(mate.a) - len(mate.b) + len(mate.x)

        drip = DripRule(*(rand_multiset(rng, 2) for _ in range(5)))
        host = drip.u + drip.c + drip.v + rand_multiset(rng, 3)
        for p, q in apply_drip(drip, host):
            assert len(p) + len(q) == len(host) - len(drip.c) + len(drip.y) + len(drip.z)

    # two-sided outcomes equal independent brute-force partition enumeration
    checked = 0
    while checked < 1000:
        drip = DripRule(*(rand_multiset(rng, 1) for _ in range(5)))
        host = drip.u + drip.c + drip.v + rand_multiset(rng, 3)
        if len(host) > 6:
            continue
        residual = host.minus(drip.u + drip.c + drip.v)
        expected = set()
        items = list(residual)
        for choice in product(*[range(c + 1) for _, c in items]):
            s = Multiset({n: c for (n, _), c in zip(items, choice)})
            w = residual.minus(s)
            expected.add((s + drip.u + drip.y, drip.z + drip.v + w))
        assert set(apply_drip(drip, host)) == expected
        checked += 1

    # weight equals the sum of component sizes
    for _ in range(1000):
        parts = [rand_multiset(rng, 2) for _ in range(5)]
        assert MateRule(*parts).weight == sum(len(p) for p in parts)
        assert DripRule(*parts).weight == sum(len(p) for p in parts)
        assert DripRule(*parts, one_sided=True).weight == sum(len(p) for p in parts)
    print("\n[C4] rule semantics properties (4 x 1000 randomized cases): PASS")


# -- criterion 5: tissue dynamics ----------------------------------------------


def _checker_symbols(system):
    return {name for name in system.alphabet if name.startswith("@K")}


def _expected_cell3(system, machine):
    subs = [(label, inst) for label, inst in machine.instructions.items()
            if type(inst).__name__ == "Sub"]
    odd = set()
    even_ = set()
    for r in sorted({inst.register for _, inst in subs}):
        odd.add(ms(f"@KB.{r}"))
        odd.add(ms(f"@KA.{r} @KC.{r}"))
    for r, exit_label in sorted({(inst.register, inst.zero) for _, inst in subs}):
        even_.add(Multiset.of(f"@KE.{r}", exit_label))
        even_.add(Multiset.of(f"@KF.{r}", f"@KD.{r}"))
    return odd, even_


def test_criterion_5_tissue_dynamics(even, mod3, eq):
    from matedrip.regmach import normalize_clearing

    bounds = Bounds(max_size=14, max_population=30000, max_iterations=200)
    for machine in (even, mod3, eq):
        system = compile_thm4(machine, GUARDED)
        checker = _checker_symbols(system)
        odd_expected, even_expected = _expected_cell3(system, normalize_clearing(machine))
        state = initial_state(system, bounds)
        first_killed: dict[Multiset, int] = {}
        for step_no in range(1, 25):
            state = tp_step(system, state, bounds)
            # parity: configuration vesicles carry @X in cell 1 at even steps only
            x_in_cell1 = {v for v in state.contents[0] if "@X" in v.support}
            if step_no % 2 == 1:
                assert not x_in_cell1, f"step {step_no}: {x_in_cell1}"
            # checker cycle: period two, exact vesicle sets
            cell3 = {v for v in state.contents[2] if v.support & checker}
            expected = odd_expected if step_no % 2 == 1 else even_expected
            assert cell3 == expected, f"step {step_no}: {cell3} != {expected}"
            # killed vesicles persist in cell 4 forever
            for v in state.contents[3]:
                if not v.support & checker:
                    first_killed.setdefault(v, step_no)
            for v, born in first_killed.items():
                assert v in state.contents[3], f"killed vesicle {v} vanished after {born}"
        assert first_killed, "expected at least one killed vesicle"
    print("\n[C5] tissue parity, checker period-2, and kill persistence over 24 steps: PASS")


# -- criterion 6: engine soundness and monotonicity -----------------------------


def test_criterion_6_closure_soundness(even):
    # a system that saturates without truncation is a verified fixpoint
    from matedrip import TestTubeSystem, SupportFilter, TubeFilter

    small = TestTubeSystem(
        alphabet=frozenset({"X", "Y", "Z", "l0", "a1"}),
        terminal=frozenset({"a1"}),
        tubes=2,
        axioms=(frozenset({ms("X"), ms("Z l0"), ms("a1")}), frozenset()),
        rules=((parse_rule("MATE (. | X , Z | l0 ; Y)"),), ()),
        filters=((1, TubeFilter((SupportFilter(frozenset({"a1"})),)), 2),),
        outputs=frozenset({2}),
    )
    bounds = Bounds(max_size=6, max_population=1000, max_iterations=50)
    state = closure(small, bounds)
    assert not state.pruned
    assert is_fixpoint(small, state, bounds)

    # axioms persist and results are monotone in every bound on a compiled system
    system = compile_machine(even, "thm1", GUARDED)
    base = Bounds(10, 8000, 120)
    state0 = closure(system, base)
    for t in range(system.tubes):
        assert system.axioms[t] <= state0.contents[t]
    base_results = results_of_state(system, state0)
    for looser in (Bounds(12, 8000, 120), Bounds(10, 16000, 120),
                   Bounds(10, 8000, 240), Bounds(14, 20000, 300)):
        bigger = results_of_state(system, closure(system, looser))
        assert base_results <= bigger
    print("\n[C6] fixpoint verification, axiom persistence, bound monotonicity: PASS")


# -- criterion 7: round-trips ----------------------------------------------------


def test_criterion_7_roundtrips(tmp_path, capsys):
    rng = random.Random(9007)
    for _ in range(1000):
        m = rand_multiset(rng, 8, ALPHA + ["@X", "a1", "@A.l1"])
        assert Multiset.parse(m.render()) == m

    for construction in ("thm1", "cor2", "cor3", "thm4"):
        out = tmp_path / f"rt.{construction}"
        assert main(["compile", construction, machine_path("eq.rm"), "-o", str(out)]) == 0
        capsys.readouterr()
        data = out.read_text(encoding="utf-8")
        if construction == "thm4":
            assert render_tp(load_tp(out)) == data
        else:
            assert render_tts(load_tts(out)) == data

    # exit code contract: 0 success/match, 1 semantic failure, 2 usage/parse
    assert main(["rm", "run", machine_path("even.rm"), "--input", "2"]) == 0
    assert main(["rm", "run", machine_path("even.rm"), "--input", "3", "--fuel", "50"]) == 1
    assert main(["rm", "run", str(tmp_path / "nope.rm")]) == 2
    assert main(["bogus"]) == 2
    assert main(["verify", "thm1", machine_path("even.rm"), "--bound", "4",
                 "--max-size", "12", "--max-pop", "20000", "--max-iter", "200"]) == 0
    assert main(["verify", "thm1", machine_path("trap.rm"), "--faithful", "--bound", "2",
                 "--max-size", "6", "--max-pop", "4000", "--max-iter", "100"]) == 1
    capsys.readouterr()
    print("\n[C7] parse/render, file reserialization, CLI exit-code contract: PASS")
