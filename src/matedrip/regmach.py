"""Deterministic register machines: model, interpreter, and acceptance oracle.

A machine accepts an input vector when it reaches HALT from the start label
with registers 1..k loaded; rejection is operational (non-halting), so every
run carries an explicit fuel budget, a non-bool int of at most MAX_FUEL;
a bound is a non-bool int too.

`run` and `step` are the reference interpreter: `run` reports how a run
ended and finds a repeated configuration with one checkpoint, so its memory
does not grow with the fuel.  The acceptance oracle `enumerate_accepted`
does not go through them: it compiles the machine once into a list of
instruction tuples indexed by label number and runs each vector of its box
in a loop that asks only whether HALT comes within the fuel.

`.rm` files are read through `multiset.directives`, the line reader of the
`.tts` and `.tp` formats too, and every problem that belongs to a line,
such as an undefined target label, names it.
"""

from __future__ import annotations

from itertools import product, repeat
from pathlib import Path

from .multiset import (
    check_count, check_symbol, directives, is_reserved, located, parse_number, value_class)


class MachineError(ValueError):
    """Malformed machine text or structure."""


@value_class(frozen=True)
class Add:
    register: int
    next_label: str


@value_class(frozen=True)
class Sub:
    register: int
    nonzero: str
    zero: str


@value_class(frozen=True)
class Halt:
    pass


Instruction = Add | Sub | Halt


@value_class
class RegisterMachine:
    """n registers, labelled ADD/SUB/HALT program, input arity as metadata."""

    registers: int
    inputs: int
    start: str
    instructions: dict[str, Instruction]  # insertion order is program order

    @property
    def halt_label(self) -> str:
        labels = [l for l, i in self.instructions.items() if isinstance(i, Halt)]
        if len(labels) != 1:
            raise MachineError(f"machine must have exactly one HALT, found {len(labels)}")
        return labels[0]

    def validate(self) -> list[str]:
        return [problem for _, problem in self._problems()]

    def _problems(self) -> list[tuple[str | None, str]]:
        """(where, problem) pairs; `where` is the label of the instruction at
        fault, "REGISTERS", "INPUTS", "START", or None for the machine as a
        whole."""
        problems = []
        if self.registers < 1:
            problems.append(("REGISTERS", "register count must be positive"))
        if not 0 <= self.inputs <= self.registers:
            problems.append(
                ("INPUTS", f"input arity {self.inputs} exceeds register count {self.registers}"))
        if self.start not in self.instructions:
            problems.append(("START", f"start label {self.start!r} is not defined"))
        halts = [l for l, i in self.instructions.items() if isinstance(i, Halt)]
        if len(halts) != 1:
            problems.append((None, f"expected exactly one HALT instruction, found {len(halts)}"))
        for label, inst in self.instructions.items():
            if isinstance(inst, (Add, Sub)) and not 1 <= inst.register <= self.registers:
                problems.append((label, f"{label}: register {inst.register} out of range"))
            targets = ()
            if isinstance(inst, Add):
                targets = (inst.next_label,)
            elif isinstance(inst, Sub):
                targets = (inst.nonzero, inst.zero)
            for t in targets:
                if t not in self.instructions:
                    problems.append((label, f"{label}: target label {t!r} is not defined"))
        return problems


Config = tuple[str, tuple[int, ...]]


@value_class(frozen=True)
class RunResult:
    accepted: bool
    reason: str | None  # None | "timeout" | "nonterminating-detected"
    label: str
    registers: tuple[int, ...]
    steps: int


def step(machine: RegisterMachine, config: Config) -> Config | None:
    """One instruction; None when the configuration is at HALT."""
    label, regs = config
    inst = machine.instructions.get(label)
    if inst is None:
        raise MachineError(f"unknown label {label!r}")
    if isinstance(inst, Halt):
        return None
    if isinstance(inst, Add):
        nxt = list(regs)
        nxt[inst.register - 1] += 1
        return (inst.next_label, tuple(nxt))
    if regs[inst.register - 1] > 0:
        nxt = list(regs)
        nxt[inst.register - 1] -= 1
        return (inst.nonzero, tuple(nxt))
    return (inst.zero, regs)


# The largest fuel: a run that neither halts nor repeats makes up to twice
# its fuel in steps, and `matedrip rm run machines/even.rm --input 3` takes
# 1.8-2.3 s at this fuel on a shared 2-core box.
MAX_FUEL = 1_000_000


def run(machine: RegisterMachine, inputs: tuple[int, ...], fuel: int) -> RunResult:
    """Run from the start label; registers 1..k hold the input, others zero.

    The HALT check happens before the budget check, so a run reaching HALT
    in exactly `fuel` steps is accepted.  Revisiting a configuration of a
    deterministic machine proves divergence and is reported as such, at
    the first repeat, if that comes within `fuel` steps.

    The repeat is found with Brent's cycle finding (BIT 20, 1980), which
    keeps one checkpoint configuration instead of every one visited, so
    memory does not grow with `fuel`.  The checkpoint moves up to the run's
    head after phases of 1, 2, 4, ... steps, and last to the configuration
    at `fuel`; a repeat within `fuel` steps puts that one on the cycle, so
    the run meets its checkpoint again within `fuel` more steps.  Meeting it gives
    the cycle length λ, and a replay with two configurations λ steps apart
    gives the length μ of the path into the cycle: the first repeat is
    step μ + λ, in the configuration of step μ.  A run that neither halts
    nor repeats within `fuel` steps thus makes up to 2 * fuel steps, and
    what it reaches past `fuel` (HALT, an undefined label) does not count.
    """
    if len(inputs) != machine.inputs:
        raise MachineError(f"expected {machine.inputs} inputs, got {len(inputs)}")
    if any(x < 0 for x in inputs):
        raise MachineError(f"inputs must be non-negative, got {tuple(inputs)}")
    check_count(MachineError, "fuel", fuel, 1, MAX_FUEL)
    start: Config = (machine.start, tuple(inputs) + (0,) * (machine.registers - len(inputs)))
    config, steps = start, 0
    mark, power, lam = start, 1, 0  # the checkpoint, its phase length, steps since it
    while True:
        try:
            nxt = step(machine, config)
        except MachineError:
            if steps <= fuel:
                raise
            nxt = None  # past the budget: the run timed out before this label
        if nxt is None:
            if steps <= fuel:
                return RunResult(True, None, config[0], config[1], steps)
            break
        config = nxt
        steps += 1
        lam += 1
        if config == mark:
            (label, regs), repeat_at = _first_repeat(machine, start, lam)
            if repeat_at <= fuel:
                return RunResult(False, "nonterminating-detected", label, regs, repeat_at)
            break
        if steps == fuel:
            mark, lam = config, 0  # the last checkpoint
        elif lam == power and steps < fuel:
            mark, power, lam = config, 2 * power, 0
        elif steps - fuel == fuel:
            break
    return RunResult(False, "timeout", mark[0], mark[1], fuel)


def _first_repeat(machine: RegisterMachine, start: Config, lam: int) -> tuple[Config, int]:
    """(the configuration of the first repeat, its step) of a run from
    `start` that enters a cycle of length `lam`."""
    ahead = start
    for _ in range(lam):
        ahead = step(machine, ahead)
    behind, mu = start, 0
    while behind != ahead:
        behind, ahead = step(machine, behind), step(machine, ahead)
        mu += 1
    return behind, mu + lam


def enumerate_accepted(machine: RegisterMachine, bound: int, fuel: int) -> set[tuple[int, ...]]:
    """All accepted vectors in {0..bound}^k; the oracle for verification.
    A box of more than MAX_VECTORS vectors, or one whose vectors times
    `fuel` pass MAX_ORACLE_STEPS, is refused before any vector is run.

    The vectors accepted are those `run(machine, v, fuel).accepted` names,
    found without `run`: the machine is compiled once into a list indexed
    by label number, one (register index, whether it adds, next, zero
    target) tuple per instruction and None for HALT, and each vector runs
    in a loop that asks only whether HALT comes within `fuel` steps.  Like
    `run` it checks HALT before the budget, and it raises `MachineError`
    for an undefined label only when a run reaches it.  It keeps no
    configuration, so a diverging run costs its `fuel` steps whether or not
    it repeats.
    """
    check_count(MachineError, "bound", bound, 0)
    k = machine.inputs
    vectors = 1
    for _ in range(k):  # stops at the first factor past the limit
        vectors *= bound + 1
        if vectors > MAX_VECTORS:
            raise MachineError(f"bound {bound} over {k} inputs gives more than "
                               f"{MAX_VECTORS} vectors to run")
    check_count(MachineError, "fuel", fuel, 1, MAX_FUEL)
    if vectors * fuel > MAX_ORACLE_STEPS:
        raise MachineError(f"bound {bound} over {k} inputs at fuel {fuel} allows "
                           f"{vectors * fuel} steps, over the limit of {MAX_ORACLE_STEPS}")
    number = {label: i for i, label in enumerate(machine.instructions)}

    def at(label: str) -> int:  # an undefined label is numbered past the program
        return number.setdefault(label, len(number))

    program: list = []  # None: HALT, or past the end an undefined label
    for inst in machine.instructions.values():
        if isinstance(inst, Add):
            program.append((inst.register - 1, True, at(inst.next_label), None))
        elif isinstance(inst, Sub):
            program.append((inst.register - 1, False, at(inst.nonzero), at(inst.zero)))
        else:
            program.append(None)
    defined = len(program)
    start = at(machine.start)
    program += [None] * (len(number) - defined)
    zeros = [0] * (machine.registers - k)
    accepted = set()
    for vec in product(range(bound + 1), repeat=k):
        regs = [*vec, *zeros]
        pc = start
        for _ in repeat(None, fuel):
            op = program[pc]
            if op is None:
                break
            r, add, nxt, zero = op
            if add:
                regs[r] += 1
                pc = nxt
            elif regs[r]:
                regs[r] -= 1
                pc = nxt
            else:
                pc = zero
        if program[pc] is None:  # the HALT check at step `fuel` too
            if pc >= defined:
                raise MachineError(f"unknown label {list(number)[pc]!r}")
            accepted.add(vec)
    return accepted


DRAIN_HALT = "@h"


def _drain_label(i: int) -> str:
    return f"@c{i}"


def normalize_clearing(machine: RegisterMachine) -> RegisterMachine:
    """Make every accepting run halt with all registers zero.

    The halt label becomes the head of a chain of SUB self-loops draining
    registers 1..n, ending in a fresh HALT.  Accepted language is unchanged.
    Machines already carrying the generated drain halt are returned as-is;
    user-authored labels cannot start with '@', so the marker is reliable.
    """
    if DRAIN_HALT in machine.instructions:
        return machine
    old_halt = machine.halt_label
    n = machine.registers
    chain = [old_halt] + [_drain_label(i) for i in range(2, n + 1)] + [DRAIN_HALT]
    instructions = dict(machine.instructions)
    for i in range(1, n + 1):
        instructions[chain[i - 1]] = Sub(i, chain[i - 1], chain[i])
    instructions[DRAIN_HALT] = Halt()
    return RegisterMachine(machine.registers, machine.inputs, machine.start, instructions)


# -- text format -------------------------------------------------------------


# The most registers a machine file may declare: thm1 and cor3 texts grow as the count squared.
MAX_REGISTERS = 1000
# The most vectors `enumerate_accepted` runs: its box holds (bound + 1) ** k.
MAX_VECTORS = 1_000_000
# The most steps `enumerate_accepted` may allow, its vectors times its
# fuel: at this cap `rm enum` of a machine that never halts takes about 8 s
# on a shared 2-core box.
MAX_ORACLE_STEPS = 100_000_000
# What each declaration line gives, as its error message names it.
_DECLARATIONS = {"REGISTERS": "n", "INPUTS": "k", "START": "label"}


def parse_machine(text: str) -> RegisterMachine:
    """Line format: REGISTERS n / INPUTS k / START l / label ADD r next /
    label SUB r nonzero zero / label HALT.  '#' starts a comment.  Errors
    carry their line number, and so do the problems `_problems` ties to a
    declaration or an instruction label."""
    declared: dict[str, int | str] = {}  # the value of REGISTERS, INPUTS and START
    instructions: dict[str, Instruction] = {}
    at: dict[str, int] = {}  # line of each declaration and instruction label
    for lineno, label, rest in directives(text):
        tokens = rest.split()
        head = label.upper()
        try:
            if head in _DECLARATIONS:
                if head in declared or len(tokens) != 1:
                    raise MachineError(f"expected a single {head} <{_DECLARATIONS[head]}> line")
                declared[head] = tokens[0] if head == "START" else parse_number(tokens[0])
                at[head] = lineno
                if head == "REGISTERS" and declared[head] > MAX_REGISTERS:
                    raise MachineError(f"REGISTERS {declared[head]} is over the limit of {MAX_REGISTERS}")
            else:
                check_symbol(label)
                if is_reserved(label):
                    raise MachineError(f"label {label!r} uses the reserved '@' prefix")
                if label in instructions:
                    raise MachineError(f"duplicate label {label!r}")
                at[label] = lineno
                op = tokens[0].upper() if tokens else ""
                if op == "ADD" and len(tokens) == 3:
                    instructions[label] = Add(parse_number(tokens[1]), tokens[2])
                elif op == "SUB" and len(tokens) == 4:
                    instructions[label] = Sub(parse_number(tokens[1]), tokens[2], tokens[3])
                elif op == "HALT" and len(tokens) == 1:
                    instructions[label] = Halt()
                else:
                    raise MachineError(f"unrecognized instruction: {f'{label} {rest}'.strip()!r}")
        except ValueError as exc:  # MultisetError included
            raise MachineError(f"line {lineno}: {exc}") from exc

    for head in _DECLARATIONS:
        if head not in declared:
            raise MachineError(f"missing {head} line")
    machine = RegisterMachine(
        declared["REGISTERS"], declared["INPUTS"], declared["START"], instructions)
    problems = machine._problems()
    if problems:
        raise MachineError(located(problems, at))
    return machine


def load_machine(path: str | Path) -> RegisterMachine:
    return parse_machine(Path(path).read_text(encoding="utf-8"))
