"""Tissue systems: synchronous maximal rule application over sets of vesicles.

Each rule is anchored at a source cell and names a target cell.  In one step
every applicable firing on the current contents happens: all results land in
the target cells and every vesicle that took part in at least one firing is
removed from its cell.  Untouched vesicles stay put.  The computation never
stops by itself; runs are cut off by an explicit step budget and results are
accumulated from the output cell as they appear.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .multiset import Multiset
from .rules import (  # the apply_* stay module attributes for bench/tracer.py
    MateRule, Rule, apply_drip, apply_drip1, apply_mate, parse_rule)
from .tts import (
    Bounds, FormatError, _admissible, _drip, _fill, _join, _number, _parse_system, _SymbolIndex)


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


@dataclass
class TPState:
    step: int
    contents: tuple[frozenset[Multiset], ...]
    result_log: frozenset[Multiset]
    pruned: bool

    @property
    def population(self) -> int:
        return sum(len(c) for c in self.contents)


@dataclass
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


def initial_state(system: TissueSystem, bounds: Bounds) -> TPState:
    contents: list[set[Multiset]] = [set() for _ in range(system.cells)]
    admitted, pruned = _admissible(
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
    its operand list and consumes all of them.  A mate rule applies to every
    pair of a left and a right operand, so when both kinds are present all
    of them are consumed, oversize fusions included.  Only the fusions that
    fit `max_size` are built; `pruned` is set when some do not.
    """
    pruned = state.pruned
    used: list[set[Multiset]] = [set() for _ in range(system.cells)]
    arrivals: list[set[Multiset]] = [set() for _ in range(system.cells)]
    anchored: dict[int, list[TPRule]] = {}
    for tp in system.rules:
        anchored.setdefault(tp.source - 1, []).append(tp)

    for src, tps in anchored.items():
        if not state.contents[src]:
            continue
        operands = _SymbolIndex(state.contents[src], [tp.rule for tp in tps]).operands
        for tp in tps:
            rule, sink = tp.rule, arrivals[tp.target - 1].add
            if isinstance(rule, MateRule):
                lefts, rights = operands[rule]
                if lefts and rights:
                    for bucket in (*lefts.values(), *rights.values()):
                        used[src].update(bucket)
                    if _join(rule, lefts, rights, bounds.max_size, sink):
                        pruned = True
            else:
                used[src].update(operands[rule])
                for v in operands[rule]:
                    _drip(rule, v, sink)

    kept: list[set[Multiset]] = [set(state.contents[c]) - used[c] for c in range(system.cells)]
    fresh, oversize = _admissible(
        ((c, v) for c in range(system.cells) for v in arrivals[c] if v not in kept[c]), bounds)
    capped = _fill(fresh, bounds, sum(map(len, kept)), lambda c, v: kept[c].add(v))
    pruned = pruned or oversize or capped

    out = kept[system.output_cell - 1]
    log = state.result_log | {v for v in out if v.support <= system.terminal}
    return TPState(state.step + 1, tuple(frozenset(k) for k in kept), log, pruned)


def tp_run(system: TissueSystem, max_steps: int, bounds: Bounds) -> tuple[set[Multiset], TPTrace]:
    """Run max_steps synchronous steps from the axioms; results accumulate."""
    problems, _ = validate_tp(system)
    if problems:
        raise ValueError("invalid system: " + "; ".join(problems))
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    state = initial_state(system, bounds)
    populations = [tuple(len(c) for c in state.contents)]
    for _ in range(max_steps):
        state = tp_step(system, state, bounds)
        populations.append(tuple(len(c) for c in state.contents))
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
        output = _number(rest)
        return (output,)

    def on_rule(rest):
        idx, _, body = rest.partition(" ")
        rule_text, arrow, tgt = body.rpartition("->")
        if not arrow:
            raise FormatError("rule must name a target cell: RULE i KIND (...) -> j")
        tp = TPRule(_number(idx), parse_rule(rule_text), _number(tgt.strip()))
        rules.append(tp)
        return (tp.source, tp.target)

    alphabet, terminal, cells, axioms = _parse_system(
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
