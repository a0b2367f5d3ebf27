"""Tissue systems: synchronous maximal rule application over sets of vesicles.

Each rule is anchored at a source cell and names a target cell.  In one step
every applicable firing on the current contents happens: all results land in
the target cells and every vesicle that took part in at least one firing is
removed from its cell.  Untouched vesicles stay put.  The computation never
stops by itself; runs are cut off by an explicit step budget and results are
accumulated from the output cell as they appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .engine import (
    Bounds, Codec, OperandIndex, PackedMate, admissible, drip, fill, join, lazy_field)
from .engine import drip1 as apply_drip1, drip2 as apply_drip
from .multiset import Multiset
from .rules import Rule, apply_mate, parse_rule
from .tts import FormatError, parse_number, parse_system, split_head

# bench/tracer.py wraps the module attributes apply_drip1 and apply_drip
# (here the packed one-sided and two-sided drips) and apply_mate.  tp_step
# looks the first two up when it starts and calls them once per drip
# firing; no engine calls apply_mate.


@dataclass(frozen=True)
class TPRule:
    source: int
    rule: Rule
    target: int

    def render(self) -> str:
        return f"{self.rule.render()} -> {self.target}"


@dataclass
class TissueSystem:
    alphabet: frozenset[str]
    terminal: frozenset[str]
    cells: int
    axioms: tuple[frozenset[Multiset], ...]  # [i] = cell i+1
    rules: tuple[TPRule, ...]
    output_cell: int


@dataclass(frozen=True)
class TPState:
    """A tissue state.  A state `tp_step` returns holds its contents and
    result log packed; `contents` and `result_log` are decoded on first
    read and then kept."""

    step: int
    contents: tuple[frozenset[Multiset], ...]
    result_log: frozenset[Multiset]
    pruned: bool
    # the packed form tp_step left, so the next step need not encode it
    _packed: "_Packed | None" = field(default=None, init=False, repr=False, compare=False)

    @property
    def population(self) -> int:
        return sum(self._cell_sizes())

    def _cell_sizes(self) -> tuple[int, ...]:
        cells = self.contents if self._packed is None else self._packed.cells
        return tuple(map(len, cells))


@dataclass(frozen=True)
class TPTrace:
    """Per-step population counts of a run."""

    populations: tuple[tuple[int, ...], ...]
    steps: int
    pruned: bool


def validate_tp(system: TissueSystem) -> tuple[list[str], list[str]]:
    """Returns (violations, warnings)."""
    problems: list[str] = []
    warnings: list[str] = []
    n = system.cells
    if n < 1:
        problems.append("cell count must be positive")
    if len(system.axioms) != n:
        problems.append("axiom sequence must have one entry per cell")
    if not system.terminal <= system.alphabet:
        problems.append("terminal alphabet must be a subset of the alphabet")
    if not 1 <= system.output_cell <= n:
        problems.append(f"output cell {system.output_cell} out of range")
    for c, axioms in enumerate(system.axioms, start=1):
        for ax in axioms:
            extra = ax.support - system.alphabet
            if extra:
                problems.append(f"cell {c} axiom {ax} uses symbols outside the alphabet: {sorted(extra)}")
    for tp in system.rules:
        if not (1 <= tp.source <= n and 1 <= tp.target <= n):
            problems.append(f"rule {tp.source}: {tp.render()} references a cell out of range")
        elif tp.source == tp.target:
            warnings.append(f"rule {tp.source}: {tp.render()} keeps results in its own cell")
        extra = tp.rule.symbols() - system.alphabet
        if extra:
            problems.append(f"rule {tp.source}: {tp.render()} uses symbols outside the alphabet: {sorted(extra)}")
    return problems, warnings


class _Packed:
    """A tissue state's contents and result log in packed form.

    `cells[c]` holds the packed vesicles of cell c and `log` those of the
    result log.  `anchored[c]` holds an empty operand index over the rules
    anchored at cell c and the (packed rule, target cell) pairs of those
    rules.  Each step files a cell into a copy of that index, and the
    copies share its plans, so a support signature is planned once per
    run.  Valid for the system whose (alphabet, rules) is `source`.
    """

    __slots__ = ("source", "codec", "anchored", "cells", "log")

    def __init__(self, source: tuple, codec: Codec, anchored: dict[int, tuple],
                 cells: list[frozenset[int]], log: frozenset[int]):
        self.source = source
        self.codec = codec
        self.anchored = anchored
        self.cells = cells
        self.log = log

    def serves(self, system: TissueSystem, bounds: Bounds) -> bool:
        return (self.codec.largest >= bounds.max_size
                and self.source == (system.alphabet, system.rules))

    def contents(self) -> tuple[frozenset[Multiset], ...]:
        return tuple(frozenset(map(self.codec.decode, cell)) for cell in self.cells)

    def result_log(self) -> frozenset[Multiset]:
        return frozenset(map(self.codec.decode, self.log))


TPState.contents = lazy_field("contents", _Packed.contents)
TPState.result_log = lazy_field("result_log", _Packed.result_log)


def _pack(system: TissueSystem, state: TPState, bounds: Bounds) -> _Packed:
    # sized by vesicle size, which bounds every count and must stay below
    # 2**width - 1 for OperandIndex.extend
    largest = max((len(v) for cell in (*state.contents, state.result_log) for v in cell),
                  default=0)
    codec = Codec(system.alphabet, [tp.rule for tp in system.rules],
                  max(largest, bounds.max_size))
    firings: dict[int, list] = {}
    for tp in system.rules:
        firings.setdefault(tp.source - 1, []).append((codec.compile(tp.rule), tp.target - 1))
    anchored = {src: (OperandIndex(codec, [rule for rule, _ in pairs]), pairs)
                for src, pairs in firings.items()}
    cells = [frozenset(map(codec.encode, cell)) for cell in state.contents]
    log = frozenset(map(codec.encode, state.result_log))
    return _Packed((system.alphabet, system.rules), codec, anchored, cells, log)


def initial_state(system: TissueSystem, bounds: Bounds) -> TPState:
    contents: list[set[Multiset]] = [set() for _ in range(system.cells)]
    admitted, pruned = admissible(
        ((c, v) for c in range(system.cells) for v in system.axioms[c]), bounds)
    for c, v in admitted:
        contents[c].add(v)
    log = frozenset(
        v for v in contents[system.output_cell - 1] if v.support <= system.terminal
    )
    return TPState(0, tuple(frozenset(c) for c in contents), log, pruned)


def tp_step(system: TissueSystem, state: TPState, bounds: Bounds) -> TPState:
    """One synchronous step computed from the pre-step contents.

    Each cell's operands come from one index over the rules anchored at that
    cell, so a rule listed for several targets finds its operands once and
    its results land in every target.  A drip applies to every vesicle in
    its operand lists and consumes all of them.  A mate rule applies to
    every pair of a left and a right operand, so when both kinds are present
    all of them are consumed, oversize fusions included.  Only the fusions
    that fit `max_size` are built; `pruned` is set when some do not.

    The step works on packed vesicles and decodes none.  It reuses the
    packed form the step before left on `state` and returns a state that
    holds only its packed form.
    """
    packed = state._packed
    if packed is None or not packed.serves(system, bounds):
        packed = _pack(system, state, bounds)
    codec = packed.codec
    kernels = (apply_drip1, apply_drip)  # looked up per call, so bench/tracer.py sees them
    pruned = state.pruned
    used: list[set[int]] = [set() for _ in range(system.cells)]
    arrivals: list[set[int]] = [set() for _ in range(system.cells)]

    for src, (template, firings) in packed.anchored.items():
        cell = packed.cells[src]
        if not cell:
            continue
        index = template.empty()
        index.extend(cell)
        for rule, target in firings:
            operands, out = index.operands[rule], arrivals[target]
            if isinstance(rule, PackedMate):
                lefts, rights = operands
                if lefts and rights:
                    for bucket in (*lefts.values(), *rights.values()):
                        used[src].update(bucket)
                    if join(rule, lefts, rights, bounds, out):
                        pruned = True
            else:
                for size, bucket in operands.items():
                    used[src].update(bucket)
                    if drip(rule, size, bucket, bounds, out, codec, kernels):
                        pruned = True

    kept = [cell - gone if gone else cell for cell, gone in zip(packed.cells, used)]
    for new, cell in zip(arrivals, kept):
        new -= cell
    placed, cut = fill(arrivals, bounds, sum(map(len, kept)), codec)
    pruned |= cut
    cells = [cell | new if new else cell for cell, new in zip(kept, placed)]

    nonterminal = codec.mask(system.alphabet - system.terminal)
    results = {v for v in cells[system.output_cell - 1] if not v & nonterminal}
    log = packed.log | results
    after = object.__new__(TPState)
    after.__dict__.update(step=state.step + 1, pruned=pruned,
                          _packed=_Packed(packed.source, codec, packed.anchored, cells, log))
    return after


def tp_run(system: TissueSystem, max_steps: int, bounds: Bounds) -> tuple[set[Multiset], TPTrace]:
    """Run max_steps synchronous steps from the axioms; results accumulate.
    Only the final result log is decoded."""
    problems, _ = validate_tp(system)
    if problems:
        raise ValueError("invalid system: " + "; ".join(problems))
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    state = initial_state(system, bounds)
    populations = [state._cell_sizes()]
    for _ in range(max_steps):
        state = tp_step(system, state, bounds)
        populations.append(state._cell_sizes())
    return set(state.result_log), TPTrace(tuple(populations), state.step, state.pruned)


# -- text format -------------------------------------------------------------


def render_tp(system: TissueSystem) -> str:
    lines = ["SYSTEM TP"]
    lines.append("ALPHABET " + " ".join(sorted(system.alphabet)))
    lines.append("TERMINAL " + " ".join(sorted(system.terminal)))
    lines.append(f"CELLS {system.cells}")
    lines.append(f"OUTPUT {system.output_cell}")
    for c in range(system.cells):
        for ax in sorted(system.axioms[c], key=Multiset.render):
            lines.append(f"AXIOM {c + 1} {{{ax}}}")
    for tp in sorted(system.rules, key=lambda r: (r.source, r.rule.render(), r.target)):
        lines.append(f"RULE {tp.source} {tp.rule.render()} -> {tp.target}")
    return "\n".join(lines) + "\n"


def parse_tp(text: str) -> TissueSystem:
    output: int | None = None
    rules: list[TPRule] = []

    def on_output(rest):
        nonlocal output
        output = parse_number(rest)
        return (output,)

    def on_rule(rest):
        idx, body = split_head(rest)
        rule_text, arrow, tgt = body.rpartition("->")
        if not arrow:
            raise FormatError("rule must name a target cell: RULE i KIND (...) -> j")
        tp = TPRule(parse_number(idx), parse_rule(rule_text), parse_number(tgt.strip()))
        rules.append(tp)
        return (tp.source, tp.target)

    alphabet, terminal, cells, axioms = parse_system(
        text, "TP", "CELLS", {"OUTPUT": on_output, "RULE": on_rule})
    if alphabet is None or cells is None or output is None:
        raise FormatError("system must declare ALPHABET, CELLS and OUTPUT")
    system = TissueSystem(
        alphabet=alphabet,
        terminal=terminal,
        cells=cells,
        axioms=tuple(frozenset(axioms.get(i, set())) for i in range(1, cells + 1)),
        rules=tuple(rules),
        output_cell=output,
    )
    problems, _ = validate_tp(system)
    if problems:
        raise FormatError("; ".join(problems))
    return system


def load_tp(path: str | Path) -> TissueSystem:
    return parse_tp(Path(path).read_text(encoding="utf-8"))
