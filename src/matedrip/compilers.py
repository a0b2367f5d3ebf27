"""Compile deterministic register machines into vesicle computing systems.

Four constructions are provided: a three-tube system driven purely by mate
rules (thm1), the same system bootstrapped from a single axiom by drip rules
(cor2), a variant using one-sided drip rules only (cor3), and a five-cell
tissue system (thm4).  Register r holds value m as m copies of the symbol
b<r>; accepted vectors appear over the terminal symbols a1..ak.

Fidelity modes: `faithful` transcribes the source constructions literally;
`guarded` (the default) loads inputs through a separate symbol @XH that is
consumed when the start label attaches, so input loading can never re-fire
on a mid-computation vesicle.
"""

from __future__ import annotations

import re

from .multiset import EMPTY, Multiset, is_reserved, value_class
from .regmach import Add, RegisterMachine, Sub, normalize_clearing
from .rules import DripRule, MateRule, Rule
from .tp import TissueSystem, TPRule
from .tts import SupportFilter, TestTubeSystem, TubeFilter

SYM_X = "@X"
SYM_Y = "@Y"
SYM_Z = "@Z"
SYM_F = "@F"
SYM_LOAD = "@XH"
SYM_SEED = "@g"
SYM_R = "@R"
SYM_RSEED = "@BR"

CONSTRUCTIONS = ("thm1", "cor2", "cor3", "thm4")
FIDELITIES = ("guarded", "faithful")

_NORMALIZE_LABEL = re.compile(r"@(c\d+|h)\Z")


class CompileError(ValueError):
    pass


@value_class(frozen=True)
class CompileOptions:
    fidelity: str = "guarded"
    normalize: bool = True

    def __post_init__(self):
        if self.fidelity not in FIDELITIES:
            raise ValueError(f"fidelity must be one of {FIDELITIES}")


@value_class(frozen=True)
class SystemMetrics:
    kind: str  # "TTS" | "TP"
    compartments: int
    max_axiom_weight: int
    max_mate_weight: int
    max_drip_weight: int
    max_drip1_weight: int
    mate_rules: int
    drip_rules: int
    drip1_rules: int

    def summary(self) -> str:
        unit = "tubes" if self.kind == "TTS" else "cells"
        return (f"{self.kind} {unit}={self.compartments}"
                f" axiom={self.max_axiom_weight} mate={self.max_mate_weight}"
                f" drip={self.max_drip_weight} drip1={self.max_drip1_weight}"
                f" rules(mate/drip/drip1)={self.mate_rules}/{self.drip_rules}/{self.drip1_rules}")


def term_symbol(i: int) -> str:
    return f"a{i}"


def reg_symbol(r: int) -> str:
    return f"b{r}"


def _add_marker(label: str) -> str:
    return f"@A.{label}"


def _guess_marker(label: str) -> str:
    return f"@Ap.{label}"


def _confirm_marker(label: str) -> str:
    return f"@App.{label}"


def _seed_symbol(s: Multiset) -> str:
    return "@B." + s.render().replace(" ", "_")


def _checker(letter: str, r: int) -> str:
    return f"@K{letter}.{r}"


def _single(name: str) -> Multiset:
    return Multiset.of(name)


def _prepare(machine: RegisterMachine, opts: CompileOptions) -> RegisterMachine:
    problems = machine.validate()
    if problems:
        raise CompileError("machine does not validate: " + "; ".join(problems))
    if machine.inputs < 1:
        raise CompileError("compilation requires input arity k >= 1")
    for label in machine.instructions:
        if is_reserved(label) and not _NORMALIZE_LABEL.match(label):
            raise CompileError(f"label {label!r} uses the reserved '@' prefix")
        m = re.fullmatch(r"([ab])(\d+)", label)
        if m:
            limit = machine.inputs if m.group(1) == "a" else machine.registers
            if 1 <= int(m.group(2)) <= limit:
                raise CompileError(f"label {label!r} collides with a generated register/terminal symbol")
    return normalize_clearing(machine) if opts.normalize else machine


# where a simulation mate sends its result: on to the next instruction, to
# the zero check of a guessed SUB, or out as a halted configuration
_STEP, _GUESS, _HALT = "step", "guess", "halt"


@value_class
class _MateEntry:
    rule: MateRule
    partners: tuple[Multiset, ...]  # axiom vesicles serving as the second operand
    goes: str = _STEP

    def __post_init__(self):
        for partner in self.partners:
            if not partner.contains(self.rule.b + self.rule.v):
                raise CompileError(f"internal: partner {partner} does not cover {self.rule.render()}")


@value_class
class _Skeleton:
    """The register-machine simulation shared by all four constructions:
    the working vesicles (tube-1 axioms, thm4's species) and their mates."""

    machine: RegisterMachine  # validated and, if asked, normalised
    alphabet: set[str]
    terminal: frozenset[str]
    axioms: list[Multiset]
    mates: list[_MateEntry]


def _sub_instructions(machine: RegisterMachine) -> list[tuple[str, Sub]]:
    return [(l, i) for l, i in machine.instructions.items() if isinstance(i, Sub)]


def _skeleton(machine: RegisterMachine, opts: CompileOptions) -> _Skeleton:
    machine = _prepare(machine, opts)
    k = machine.inputs
    guarded = opts.fidelity == "guarded"
    start_symbol = SYM_LOAD if guarded else SYM_X
    halt = machine.halt_label

    start_vesicle = _single(start_symbol)
    z_axiom = Multiset.of(SYM_Z, machine.start)
    f_axiom = _single(SYM_F)
    load_axioms = [Multiset.of(term_symbol(i), reg_symbol(i), SYM_Y) for i in range(1, k + 1)]
    axioms = [start_vesicle, z_axiom, f_axiom] + list(load_axioms)

    # input loading and start of the simulation
    if guarded:
        load_rule = MateRule(_single(SYM_LOAD), EMPTY, _single(SYM_Y), EMPTY, EMPTY)
        start_rule = MateRule(EMPTY, _single(SYM_LOAD), _single(SYM_Z),
                              _single(machine.start), _single(SYM_X))
    else:
        load_rule = MateRule(_single(SYM_X), EMPTY, _single(SYM_Y), EMPTY, EMPTY)
        start_rule = MateRule(_single(SYM_X), EMPTY, _single(SYM_Z),
                              _single(machine.start), EMPTY)
    # halting: erase the halt label and the configuration marker
    output_rule = MateRule(EMPTY, Multiset.of(halt, SYM_X), _single(SYM_F), EMPTY, EMPTY)
    mates = [_MateEntry(load_rule, tuple(load_axioms)), _MateEntry(start_rule, (z_axiom,)),
             _MateEntry(output_rule, (f_axiom,), _HALT)]

    for label, inst in machine.instructions.items():
        if isinstance(inst, Add):
            axiom = Multiset.of(_add_marker(label), inst.next_label, reg_symbol(inst.register))
            axioms.append(axiom)
            rule = MateRule(_single(SYM_X), _single(label), _single(_add_marker(label)),
                            Multiset.of(inst.next_label, reg_symbol(inst.register)), EMPTY)
            mates.append(_MateEntry(rule, (axiom,)))
        elif isinstance(inst, Sub):
            dec_axiom = Multiset.of(_add_marker(label), inst.nonzero)
            guess_axiom = _single(_guess_marker(label))
            axioms.extend([dec_axiom, guess_axiom])
            dec_rule = MateRule(_single(SYM_X), Multiset.of(label, reg_symbol(inst.register)),
                                _single(_add_marker(label)), _single(inst.nonzero), EMPTY)
            guess_rule = MateRule(_single(SYM_X), _single(label), EMPTY,
                                  _single(_guess_marker(label)), EMPTY)
            mates.append(_MateEntry(dec_rule, (dec_axiom,)))
            mates.append(_MateEntry(guess_rule, (guess_axiom,), _GUESS))

    alphabet = set(machine.instructions)
    alphabet.update((SYM_X, SYM_Y, SYM_Z, SYM_F))
    alphabet.update(term_symbol(i) for i in range(1, k + 1))
    alphabet.update(reg_symbol(r) for r in range(1, machine.registers + 1))
    for axiom in axioms:
        alphabet.update(axiom.support)
    terminal = frozenset(term_symbol(i) for i in range(1, k + 1))
    return _Skeleton(machine, alphabet, terminal, axioms, mates)


def _three_tube_system(machine: RegisterMachine, opts: CompileOptions, rules,
                       seeded: bool = False) -> TestTubeSystem:
    """Tube 1 simulates, tube 2 confirms each zero guess, tube 3 collects.

    `rules(mates, axioms)` gives a working tube's rules from the mates and
    axioms of the literal construction.  A `seeded` system starts both
    working tubes from the single axiom @g instead of those axioms.
    """
    skel = _skeleton(machine, opts)
    n = skel.machine.registers
    subs = _sub_instructions(skel.machine)
    alphabet = skel.alphabet | {_confirm_marker(l) for l, _ in subs}
    if seeded:
        alphabet.add(SYM_SEED)

    axioms2: list[Multiset] = []
    mates2: list[_MateEntry] = []
    for label, inst in subs:
        confirm_axiom = Multiset.of(_confirm_marker(label), inst.zero)
        axioms2.append(confirm_axiom)
        confirm_rule = MateRule(_single(SYM_X), _single(_guess_marker(label)),
                                _single(_confirm_marker(label)), _single(inst.zero), EMPTY)
        mates2.append(_MateEntry(confirm_rule, (confirm_axiom,)))

    filters: list[tuple[int, TubeFilter, int]] = []
    sub_registers = sorted({inst.register for _, inst in subs})
    if sub_registers:
        branches = []
        for r in sub_registers:
            allowed = set(skel.terminal)
            allowed.add(SYM_X)
            allowed.update(reg_symbol(i) for i in range(1, n + 1) if i != r)
            allowed.update(_guess_marker(l) for l, i in subs if i.register == r)
            branches.append(SupportFilter(frozenset(allowed)))
        filters.append((1, TubeFilter(tuple(branches)), 2))
        blocked = {_guess_marker(l) for l, _ in subs} | {_confirm_marker(l) for l, _ in subs}
        filters.append((2, TubeFilter((SupportFilter(frozenset(alphabet - blocked)),)), 1))
    filters.append((1, TubeFilter((SupportFilter(skel.terminal),)), 3))

    working = ((skel.mates, skel.axioms), (mates2, axioms2))
    seed_axiom = frozenset({_single(SYM_SEED)})
    return TestTubeSystem(
        alphabet=frozenset(alphabet),
        terminal=skel.terminal,
        tubes=3,
        axioms=(*(seed_axiom if seeded else frozenset(axioms) for _, axioms in working), frozenset()),
        rules=(*(rules(mates, axioms) for mates, axioms in working), ()),
        filters=tuple(filters),
        outputs=frozenset({3}),
    )


def _mate_rules(mates: list[_MateEntry]) -> tuple[MateRule, ...]:
    return tuple(e.rule for e in mates)


def _seed_drips(axioms: list[Multiset], one_sided: bool = False) -> tuple[DripRule, ...]:
    """Drips growing each axiom, and the seed itself, from the seed @g."""
    seed = _single(SYM_SEED)
    return tuple(DripRule(EMPTY, seed, EMPTY, v, EMPTY, one_sided=one_sided) for v in (*axioms, seed))


def compile_thm1(machine: RegisterMachine, opts: CompileOptions = CompileOptions()) -> TestTubeSystem:
    """Three tubes, mate rules of weight at most five, axioms of weight at most three."""
    return _three_tube_system(machine, opts, lambda mates, axioms: _mate_rules(mates))


def compile_cor2(machine: RegisterMachine, opts: CompileOptions = CompileOptions()) -> TestTubeSystem:
    """As thm1, but both working tubes start from the single axiom @g and
    grow every other axiom with weight-four drip rules."""
    return _three_tube_system(
        machine, opts, lambda mates, axioms: _mate_rules(mates) + _seed_drips(axioms), seeded=True)


def _one_sided(entry: _MateEntry) -> list[DripRule]:
    """Translate a mate whose second operand is a fixed axiom vesicle into a
    one-sided drip carrying the whole axiom remainder."""
    rule = entry.rule
    out = []
    for partner in entry.partners:
        remainder = partner.minus(rule.b)
        out.append(DripRule(rule.u, rule.a, EMPTY, remainder + rule.x, EMPTY, one_sided=True))
    return out


def _cor3_tube(mates: list[_MateEntry], axioms: list[Multiset]) -> tuple[DripRule, ...]:
    """One-sided drips for a working tube: its mates translated, then the
    seed drips for every axiom no mate uses as a partner."""
    partnered = {partner for entry in mates for partner in entry.partners}
    rules: list[DripRule] = []
    for entry in mates:
        rules.extend(_one_sided(entry))
    return tuple(rules) + _seed_drips([a for a in axioms if a not in partnered], one_sided=True)


def compile_cor3(machine: RegisterMachine, opts: CompileOptions = CompileOptions()) -> TestTubeSystem:
    """One-sided drip rules only, weight at most four, single axiom @g."""
    return _three_tube_system(machine, opts, _cor3_tube, seeded=True)


def compile_thm4(machine: RegisterMachine, opts: CompileOptions = CompileOptions()) -> TissueSystem:
    """Five cells; every mate and drip rule stays within weight five.

    Cell 1 re-derives each working vesicle s every two steps from a seed
    vesicle via a weight-bounded splitting rule; an @R token produced the
    same way anchors the return rules in cell 2.  The zero check runs on a
    two-step cycle through cells 3 and 4, killing vesicles that still carry
    the tested register symbol; survivors leave with the zero-branch label.
    Cell 5 collects the results.
    """
    skel = _skeleton(machine, opts)
    subs = _sub_instructions(skel.machine)
    sub_registers = sorted({inst.register for _, inst in subs})
    sub_exits = sorted({(inst.register, inst.zero) for _, inst in subs})

    species = skel.axioms
    seed_names = [_seed_symbol(s) for s in species]
    if len(set(seed_names)) != len(seed_names):
        raise CompileError("seed symbol encoding collides; rename the machine labels")

    alphabet = skel.alphabet | {SYM_R, SYM_RSEED} | set(seed_names)
    for r in sub_registers:
        alphabet.update(_checker(letter, r) for letter in "ABCDEF")

    r_token = _single(SYM_R)
    rules: list[TPRule] = []
    # vesicle factory: every working vesicle s and the @R token reappear in
    # their home cells with period two
    for s, seed_name in zip(species, seed_names):
        seed = _single(seed_name)
        rules.append(TPRule(1, DripRule(EMPTY, seed, EMPTY, seed, s), 2))
        rules.append(TPRule(2, MateRule(seed, EMPTY, r_token, EMPTY, EMPTY), 1))
        rules.append(TPRule(2, MateRule(s, EMPTY, r_token, EMPTY, EMPTY), 1))
    rseed = _single(SYM_RSEED)
    rules.append(TPRule(1, DripRule(EMPTY, rseed, EMPTY, rseed, r_token), 2))
    rules.append(TPRule(2, MateRule(rseed, EMPTY, r_token, EMPTY, EMPTY), 1))
    # configurations returning from cell 2 are anchored on @X, which the
    # loop above has done when {@X} is a species
    if _single(SYM_X) not in species:
        rules.append(TPRule(2, MateRule(_single(SYM_X), EMPTY, r_token, EMPTY, EMPTY), 1))

    # the simulation: a step returns through cell 2, a zero guess goes to the
    # check in cell 3, a halted configuration to the output cell
    for entry in skel.mates:
        rules.append(TPRule(1, entry.rule, {_STEP: 2, _GUESS: 3, _HALT: 5}[entry.goes]))
    for label, inst in subs:
        rules.append(TPRule(3, MateRule(EMPTY, _single(_guess_marker(label)),
                                        _single(_checker("E", inst.register)), _single(inst.zero), EMPTY), 2))

    for r in sub_registers:
        ka, kb, kc = (_single(_checker(l, r)) for l in "ABC")
        rules.append(TPRule(3, MateRule(EMPTY, kb, _single(SYM_X), _single(reg_symbol(r)), EMPTY), 4))
        rules.append(TPRule(4, DripRule(EMPTY, ka, EMPTY, kb, kc + ka), 3))
        rules.append(TPRule(3, MateRule(EMPTY, kb, kc, ka, EMPTY), 4))
    for r, exit_label in sub_exits:
        kd, ke, kf = (_single(_checker(l, r)) for l in "DEF")
        e_vesicle = ke + _single(exit_label)
        rules.append(TPRule(4, DripRule(EMPTY, kd, EMPTY, e_vesicle, kf + kd), 3))
        rules.append(TPRule(3, MateRule(EMPTY, e_vesicle, kf, kd, EMPTY), 4))

    axioms1 = frozenset(_single(name) for name in seed_names) | {rseed}
    axioms3 = frozenset(
        v
        for r, exit_label in sub_exits
        for v in (Multiset.of(_checker("E", r), exit_label),
                  Multiset.of(_checker("F", r), _checker("D", r)))
    )
    axioms4 = frozenset(_single(_checker("A", r)) for r in sub_registers)

    return TissueSystem(
        alphabet=frozenset(alphabet),
        terminal=skel.terminal,
        cells=5,
        axioms=(axioms1, frozenset(), axioms3, axioms4, frozenset()),
        rules=tuple(rules),
        output_cell=5,
    )


_COMPILERS = {
    "thm1": compile_thm1,
    "cor2": compile_cor2,
    "cor3": compile_cor3,
    "thm4": compile_thm4,
}


def compile_machine(machine: RegisterMachine, construction: str,
                    opts: CompileOptions = CompileOptions()):
    if construction not in _COMPILERS:
        raise CompileError(f"unknown construction {construction!r}; expected one of {CONSTRUCTIONS}")
    return _COMPILERS[construction](machine, opts)


def metrics(system: TestTubeSystem | TissueSystem) -> SystemMetrics:
    """Descriptional complexity: compartment count, weight maxima, rule counts."""
    if isinstance(system, TestTubeSystem):
        kind = "TTS"
        compartments = system.tubes
        axioms = [ax for tube in system.axioms for ax in tube]
        all_rules: list[Rule] = [r for tube in system.rules for r in tube]
    else:
        kind = "TP"
        compartments = system.cells
        axioms = [ax for cell in system.axioms for ax in cell]
        all_rules = [tp.rule for tp in system.rules]
    mates = [r for r in all_rules if isinstance(r, MateRule)]
    drips = [r for r in all_rules if isinstance(r, DripRule) and not r.one_sided]
    drip1s = [r for r in all_rules if isinstance(r, DripRule) and r.one_sided]
    return SystemMetrics(
        kind=kind,
        compartments=compartments,
        max_axiom_weight=max((len(a) for a in axioms), default=0),
        max_mate_weight=max((r.weight for r in mates), default=0),
        max_drip_weight=max((r.weight for r in drips), default=0),
        max_drip1_weight=max((r.weight for r in drip1s), default=0),
        mate_rules=len(mates),
        drip_rules=len(drips),
        drip1_rules=len(drip1s),
    )
