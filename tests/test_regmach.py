import pytest

import matedrip.regmach
from matedrip import (
    Add,
    Halt,
    MachineError,
    RegisterMachine,
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
