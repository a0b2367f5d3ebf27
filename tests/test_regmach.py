import tracemalloc
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

import matedrip.regmach
from matedrip import (
    Add,
    Halt,
    MachineError,
    RegisterMachine,
    RunResult,
    Sub,
    enumerate_accepted,
    normalize_clearing,
    parse_machine,
    run,
    step,
)


def test_step_trace_even(even):
    assert step(even, ("l0", (2,))) == ("l1", (1,))
    assert step(even, ("lh", (0,))) is None
    assert step(even, ("l0", (0,))) == ("lh", (0,))


def test_step_unknown_label(even):
    with pytest.raises(MachineError):
        step(even, ("nope", (0,)))


def test_run_even(even):
    assert run(even, (2,), 100).accepted
    result = run(even, (3,), 100)
    assert not result.accepted and result.reason == "timeout"
    assert run(even, (0,), 100).accepted


def test_run_fuel_accounting(even):
    # zero branch then halt: one step, checked before the budget runs out
    result = run(even, (0,), 1)
    assert result.accepted and result.steps == 1
    # input 2 needs three steps, so fuel 2 is not enough
    assert not run(even, (2,), 2).accepted
    assert run(even, (2,), 3).accepted


def test_run_detects_tight_loops():
    machine = parse_machine(
        "REGISTERS 1\nINPUTS 1\nSTART l0\nl0 SUB 1 l0 l1\nl1 SUB 1 l1 l1\nlh HALT\n"
    )
    result = run(machine, (0,), 1000)
    assert not result.accepted and result.reason == "nonterminating-detected"
    assert result.steps < 10


def test_run_memory_does_not_grow_with_fuel(eq):
    # (1, 0) drains register 1, then loops on ADD 1 without a repeat: the
    # run times out, and keeps no configuration per step
    tracemalloc.start()
    try:
        result = run(eq, (1, 0), 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == RunResult(False, "timeout", "ld", (199_998, 0), 200_000)
    assert peak < 2**20


def _seen_set_run(machine, inputs, fuel):
    """`run` as it was written first: every configuration kept in a set."""
    config = (machine.start, tuple(inputs) + (0,) * (machine.registers - len(inputs)))
    seen = set()
    steps = 0
    while True:
        nxt = step(machine, config)
        if nxt is None:
            return RunResult(True, None, config[0], config[1], steps)
        if config in seen:
            return RunResult(False, "nonterminating-detected", config[0], config[1], steps)
        seen.add(config)
        if steps >= fuel:
            return RunResult(False, "timeout", config[0], config[1], steps)
        config = nxt
        steps += 1


def _outcome(call, *args):
    """What a call returns, or the message of the MachineError it raises."""
    try:
        return call(*args)
    except MachineError as exc:
        return f"MachineError: {exc}"


_LABELS = ("l0", "l1", "l2", "l3", "l4")


@st.composite
def random_machines(draw):
    """A machine of 1-3 registers over some of `_LABELS`, started at l0,
    that is not validated: it may hold any number of HALTs and may jump to
    the undefined label `lx`."""
    registers = draw(st.integers(1, 3))
    labels = _LABELS[:draw(st.integers(1, len(_LABELS)))]
    targets = st.sampled_from(labels + ("lx",))
    instructions = {}
    for label in labels:
        kind = draw(st.sampled_from(("ADD", "SUB", "SUB", "HALT")))
        register = draw(st.integers(1, registers))
        if kind == "ADD":
            instructions[label] = Add(register, draw(targets))
        elif kind == "SUB":
            instructions[label] = Sub(register, draw(targets), draw(targets))
        else:
            instructions[label] = Halt()
    return RegisterMachine(registers, draw(st.integers(0, registers)), "l0", instructions)


# drains register 1 in a tail of input + 1 steps, then cycles through c0..c3
# with register 2 going 0, 1, 2, 1: the first repeat is step input + 5
_TAIL_THEN_CYCLE = parse_machine(
    "REGISTERS 2\nINPUTS 1\nSTART l0\nl0 SUB 1 l0 c0\nc0 ADD 2 c1\nc1 ADD 2 c2\n"
    "c2 SUB 2 c3 c3\nc3 SUB 2 c0 c0\nlh HALT\n")
# accepts every input in input + 1 steps, and names a label it never reaches
_UNREACHED_UNDEFINED = RegisterMachine(1, 1, "l0", {
    "l0": Sub(1, "l0", "lh"), "l1": Add(1, "lx"), "lh": Halt()})


@settings(max_examples=300)
@given(random_machines(), st.lists(st.integers(0, 4), min_size=3, max_size=3),
       st.integers(1, 60))
@example(_TAIL_THEN_CYCLE, [2, 0, 0], 7)
@example(_TAIL_THEN_CYCLE, [2, 0, 0], 6)
@example(_TAIL_THEN_CYCLE, [0, 0, 0], 1)
def test_run_matches_the_seen_set_run(machine, values, fuel):
    inputs = tuple(values[:machine.inputs])
    assert _outcome(run, machine, inputs, fuel) == _outcome(_seen_set_run, machine, inputs, fuel)


def test_run_reports_the_first_repeat_at_every_fuel():
    # the repeat comes at step input + 5, at c0 with both registers zero;
    # with less fuel the run times out wherever step `fuel` leaves it
    for value in range(7):
        for fuel in range(1, value + 12):
            result = run(_TAIL_THEN_CYCLE, (value,), fuel)
            assert result == _seen_set_run(_TAIL_THEN_CYCLE, (value,), fuel)
            if fuel >= value + 5:
                assert result == RunResult(
                    False, "nonterminating-detected", "c0", (0, 0), value + 5)
            else:
                assert result.reason == "timeout" and result.steps == fuel


def _accepted_by_run(machine, bound, fuel):
    return {vec for vec in product(range(bound + 1), repeat=machine.inputs)
            if run(machine, vec, fuel).accepted}


@settings(max_examples=300)
@given(random_machines(), st.integers(0, 4), st.integers(1, 60))
@example(_UNREACHED_UNDEFINED, 4, 60)
@example(_UNREACHED_UNDEFINED, 4, 3)  # input 2 halts in exactly 3 steps
@example(_TAIL_THEN_CYCLE, 4, 60)
def test_enumerate_matches_run(machine, bound, fuel):
    assert (_outcome(enumerate_accepted, machine, bound, fuel)
            == _outcome(_accepted_by_run, machine, bound, fuel))


def test_enumerate_halting_in_exactly_fuel_steps():
    # input n halts in n + 1 steps, and lx is never reached
    assert enumerate_accepted(_UNREACHED_UNDEFINED, 6, 3) == {(0,), (1,), (2,)}
    reached = RegisterMachine(1, 1, "l0", {"l0": Add(1, "l1"), "l1": Add(1, "lx"), "lh": Halt()})
    # every run reaches lx at step 2: past a fuel of 1, not past a fuel of 2
    assert enumerate_accepted(reached, 3, 1) == set()
    with pytest.raises(MachineError, match="^unknown label 'lx'$"):
        enumerate_accepted(reached, 3, 2)


def test_enumerate_calls_neither_run_nor_step(even, eq, monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle ran a vector through the interpreter")

    monkeypatch.setattr(matedrip.regmach, "run", refuse)
    monkeypatch.setattr(matedrip.regmach, "step", refuse)
    assert enumerate_accepted(even, 5, 100) == {(0,), (2,), (4,)}
    assert enumerate_accepted(eq, 3, 200) == {(0, 0), (1, 1), (2, 2), (3, 3)}


@pytest.mark.parametrize("call, message", [
    (lambda m: run(m, (2,), 2.5), "fuel must be an int, not 2.5"),
    (lambda m: run(m, (2,), True), "fuel must be an int, not True"),
    (lambda m: enumerate_accepted(m, 2.5, 100), "bound must be an int, not 2.5"),
    (lambda m: enumerate_accepted(m, True, 100), "bound must be an int, not True"),
], ids=["run-float-fuel", "run-bool-fuel", "enumerate-float-bound", "enumerate-bool-bound"])
def test_fuel_and_bound_must_be_ints(even, call, message):
    with pytest.raises(MachineError, match=f"^{message}$"):
        call(even)


def test_fuel_over_the_limit_is_refused(even):
    # a run that neither halts nor repeats makes up to twice its fuel in steps
    over = matedrip.regmach.MAX_FUEL + 1
    for call in (lambda: run(even, (3,), over), lambda: enumerate_accepted(even, 2, over)):
        with pytest.raises(MachineError, match=f"^fuel {over} is over the limit of {over - 1}$"):
            call()
    assert run(even, (4,), over - 1).accepted


def test_run_fuel_monotonicity(even):
    for value in range(5):
        for fuel in (1, 2, 5, 50):
            if run(even, (value,), fuel).accepted:
                assert run(even, (value,), fuel + 25).accepted


def test_enumerate(even, mod3, eq):
    assert enumerate_accepted(even, 5, 100) == {(0,), (2,), (4,)}
    assert enumerate_accepted(mod3, 6, 100) == {(0,), (3,), (6,)}
    assert enumerate_accepted(eq, 3, 200) == {(0, 0), (1, 1), (2, 2), (3, 3)}
    # bound 0 probes the single zero vector
    assert enumerate_accepted(even, 0, 100) == {(0,)}
    assert enumerate_accepted(eq, 0, 100) == {(0, 0)}


def _dirty_machine():
    # accepts everything, halts with register 2 holding 3
    return RegisterMachine(2, 1, "l0", {
        "l0": Add(2, "l1"),
        "l1": Add(2, "l2"),
        "l2": Add(2, "lh"),
        "lh": Halt(),
    })


def test_normalize_clears_registers():
    machine = _dirty_machine()
    before = run(machine, (2,), 100)
    assert before.accepted and before.registers == (2, 3)
    cleared = normalize_clearing(machine)
    after = run(cleared, (2,), 100)
    assert after.accepted and after.registers == (0, 0)
    assert enumerate_accepted(cleared, 4, 100) == enumerate_accepted(machine, 4, 100)


def test_normalize_accepted_set_unchanged(even):
    cleared = normalize_clearing(even)
    assert enumerate_accepted(cleared, 5, 200) == {(0,), (2,), (4,)}
    for value in range(5):
        result = run(cleared, (value,), 200)
        if result.accepted:
            assert set(result.registers) == {0}


def test_normalize_idempotent():
    once = normalize_clearing(_dirty_machine())
    twice = normalize_clearing(once)
    assert twice is once
    assert enumerate_accepted(twice, 3, 100) == enumerate_accepted(once, 3, 100)


def test_parse_rejects_bad_lines():
    with pytest.raises(MachineError, match="line 2"):
        parse_machine("REGISTERS 1\nBOGUS\n")
    with pytest.raises(MachineError, match="reserved"):
        parse_machine("REGISTERS 1\nINPUTS 1\nSTART @x\n@x HALT\n")
    with pytest.raises(MachineError, match="duplicate"):
        parse_machine("REGISTERS 1\nINPUTS 1\nSTART l0\nl0 HALT\nl0 HALT\n")
    with pytest.raises(MachineError, match="HALT"):
        parse_machine("REGISTERS 1\nINPUTS 1\nSTART l0\nl0 ADD 1 l0\n")
    with pytest.raises(MachineError, match="out of range"):
        parse_machine("REGISTERS 1\nINPUTS 1\nSTART l0\nl0 ADD 2 lh\nlh HALT\n")
    with pytest.raises(MachineError, match="arity"):
        parse_machine("REGISTERS 1\nINPUTS 2\nSTART l0\nl0 HALT\n")
    with pytest.raises(MachineError, match="not defined"):
        parse_machine("REGISTERS 1\nINPUTS 1\nSTART l0\nl0 ADD 1 missing\nlh HALT\n")
    with pytest.raises(MachineError, match="^line 2: register count must be positive$"):
        parse_machine("# none\nREGISTERS 0\nINPUTS 0\nSTART lh\nlh HALT\n")


@pytest.mark.parametrize("text, message", [
    ("REGISTERS 1\nINPUTS 1\nSTART l0\nl0 ADD 3 lh\nlh HALT\n",
     "line 4: l0: register 3 out of range"),
    ("REGISTERS 1\nINPUTS 1\nSTART l0\n\nl0 SUB 1 l9 lh\nlh HALT\n",
     "line 5: l0: target label 'l9' is not defined"),
    ("REGISTERS 1\n# no l7\nSTART l7\nINPUTS 1\nlh HALT\n",
     "line 3: start label 'l7' is not defined"),
    ("INPUTS 2\nREGISTERS 1\nSTART lh\nlh HALT\n",
     "line 1: input arity 2 exceeds register count 1"),
    ("# too many\nREGISTERS 1001\nINPUTS 1\nSTART lh\nlh HALT\n",
     "line 2: REGISTERS 1001 is over the limit of 1000"),
    # line problems first, in line order, then those of the whole machine
    ("REGISTERS 1\nl1 ADD 1 l9\nl0 ADD 2 l1\nINPUTS 2\nSTART l5\n",
     "line 2: l1: target label 'l9' is not defined; line 3: l0: register 2 out of range; "
     "line 4: input arity 2 exceeds register count 1; line 5: start label 'l5' is not defined; "
     "expected exactly one HALT instruction, found 0"),
])
def test_semantic_errors_name_their_line(text, message):
    with pytest.raises(MachineError) as info:
        parse_machine(text)
    assert str(info.value) == message


@pytest.mark.parametrize("line", [
    "REGISTERS ²", "INPUTS ²", "l0 ADD ² lh", "l0 SUB ² l0 lh", "l0 SUB ٣ l0 lh",
])
def test_parse_rejects_non_ascii_digits(line):
    # '²' passes str.isdigit but not int(); '٣' passes int() but is no ASCII numeral
    text = "REGISTERS 1\nINPUTS 1\nSTART l0\nlh HALT\n"
    head = line.split()[0]
    if head in ("REGISTERS", "INPUTS"):
        text = text.replace(f"{head} 1", line)
    else:
        text += line + "\n"
    lineno = text.splitlines().index(line) + 1
    with pytest.raises(MachineError, match=f"line {lineno}:"):
        parse_machine(text)


def test_parse_comments_and_arity(even):
    assert even.inputs == 1 and even.registers == 1
    assert even.start == "l0"
    assert even.halt_label == "lh"


def test_run_input_arity(even):
    with pytest.raises(MachineError):
        run(even, (1, 2), 10)


def test_run_rejects_negative_inputs(even, eq):
    with pytest.raises(MachineError, match="non-negative"):
        run(even, (-3,), 100)
    with pytest.raises(MachineError, match="non-negative"):
        run(eq, (1, -1), 100)


def test_enumerate_rejects_negative_bound(even, eq):
    with pytest.raises(MachineError, match="non-negative"):
        enumerate_accepted(even, -1, 100)
    with pytest.raises(MachineError, match="non-negative"):
        enumerate_accepted(eq, -2, 100)
    assert enumerate_accepted(even, 0, 100) == {(0,)}


def test_enumerate_refuses_a_box_past_max_vectors(even, eq, monkeypatch):
    # (bound + 1) ** k vectors: 100001 ** 2 is refused before any is run
    with pytest.raises(MachineError, match="more than 1000000 vectors"):
        enumerate_accepted(eq, 100_000, 1)
    with pytest.raises(MachineError, match="more than 1000000 vectors"):
        enumerate_accepted(even, 1_000_000, 1)
    # the count stops at the first factor past the limit, whatever k is
    wide = parse_machine("REGISTERS 1000\nINPUTS 1000\nSTART h\nh HALT\n")
    with pytest.raises(MachineError, match="over 1000 inputs"):
        enumerate_accepted(wide, 10**100, 1)
    assert enumerate_accepted(wide, 0, 1) == {(0,) * 1000}
    # a box of exactly the limit runs, one vector more is refused
    monkeypatch.setattr(matedrip.regmach, "MAX_VECTORS", 16)
    assert enumerate_accepted(eq, 3, 200) == {(0, 0), (1, 1), (2, 2), (3, 3)}
    with pytest.raises(MachineError, match="more than 16 vectors"):
        enumerate_accepted(eq, 4, 200)
    assert enumerate_accepted(even, 15, 100) == {(n,) for n in range(0, 16, 2)}
    with pytest.raises(MachineError, match="more than 16 vectors"):
        enumerate_accepted(even, 16, 100)


def test_enumerate_refuses_a_box_past_max_oracle_steps(even, eq, monkeypatch):
    # vectors times fuel: 10**6 vectors at fuel 10**6 are refused before any is run
    with pytest.raises(MachineError, match="allows 1000000000000 steps, over the limit of 100000000"):
        enumerate_accepted(even, 999_999, 1_000_000)
    # a box at exactly the limit runs, one step more is refused
    monkeypatch.setattr(matedrip.regmach, "MAX_ORACLE_STEPS", 3200)
    assert enumerate_accepted(eq, 3, 200) == {(0, 0), (1, 1), (2, 2), (3, 3)}
    with pytest.raises(MachineError, match="^bound 3 over 2 inputs at fuel 201 allows 3216 steps, "
                                           "over the limit of 3200$"):
        enumerate_accepted(eq, 3, 201)
