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

from .multiset import Multiset, MultisetError
from .rules import (  # apply_mate stays a module attribute for bench/tracer.py
    MateRule, Rule, RuleError, apply_drip, apply_drip1, apply_mate, parse_rule)
from .tts import Bounds, FormatError, _join, _SymbolIndex


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
    pruned = False
    contents: list[set[Multiset]] = [set() for _ in range(system.cells)]
    for c in range(system.cells):
        for v in system.axioms[c]:
            if len(v) > bounds.max_size:
                pruned = True
            elif len(v) == 0 and not bounds.keep_empty:
                pass
            else:
                contents[c].add(v)
    log = frozenset(
        v for v in contents[system.output_cell - 1] if v.support <= system.terminal
    )
    return TPState(0, tuple(frozenset(c) for c in contents), log, pruned)


def _operands(index: _SymbolIndex, need: Multiset) -> dict[int, list[Multiset]]:
    """The indexed vesicles that contain `need`, as a size -> vesicles map."""
    by_size: dict[int, list[Multiset]] = {}
    for v in index.candidates(need):
        if v.contains(need):
            by_size.setdefault(len(v), []).append(v)
    return by_size


def tp_step(system: TissueSystem, state: TPState, bounds: Bounds) -> TPState:
    """One synchronous step computed from the pre-step contents.

    A mate rule applies to every pair of a left and a right operand, so when
    both kinds are present all of them are consumed, oversize fusions
    included.  Only the fusions that fit `max_size` are built; `pruned` is
    set when some do not.
    """
    pruned = state.pruned
    used: list[set[Multiset]] = [set() for _ in range(system.cells)]
    arrivals: list[set[Multiset]] = [set() for _ in range(system.cells)]
    indexes: dict[int, _SymbolIndex] = {}

    def index_of(cell: int) -> _SymbolIndex:
        if cell not in indexes:
            indexes[cell] = _SymbolIndex(state.contents[cell])
        return indexes[cell]

    for tp in system.rules:
        src = tp.source - 1
        tgt = tp.target - 1
        if not state.contents[src]:
            continue
        index = index_of(src)
        rule = tp.rule
        if isinstance(rule, MateRule):
            lefts = _operands(index, rule._left_need)
            rights = _operands(index, rule._right_need)
            if lefts and rights:
                for bucket in (*lefts.values(), *rights.values()):
                    used[src].update(bucket)
                if _join(rule, lefts, rights, bounds.max_size, arrivals[tgt].add):
                    pruned = True
        elif rule.one_sided:
            for v in index.candidates(rule._need):
                outcome = apply_drip1(rule, v)
                if outcome is not None:
                    used[src].add(v)
                    arrivals[tgt].add(outcome[0])
                    arrivals[tgt].add(outcome[1])
        else:
            for v in index.candidates(rule._need):
                outcomes = apply_drip(rule, v)
                if outcomes:
                    used[src].add(v)
                    for p, q in outcomes:
                        arrivals[tgt].add(p)
                        arrivals[tgt].add(q)

    kept: list[set[Multiset]] = [set(state.contents[c]) - used[c] for c in range(system.cells)]
    population = sum(len(k) for k in kept)
    flat = []
    for c in range(system.cells):
        for v in arrivals[c]:
            if v in kept[c]:
                continue
            if len(v) > bounds.max_size:
                pruned = True
            elif len(v) == 0 and not bounds.keep_empty:
                pass
            else:
                flat.append((c, v))
    for c, v in sorted(flat, key=lambda cv: (cv[0], cv[1].render())):
        if population >= bounds.max_population:
            pruned = True
            break
        kept[c].add(v)
        population += 1

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
    alphabet: frozenset[str] | None = None
    terminal: frozenset[str] | None = None
    cells: int | None = None
    output: int | None = None
    axioms: dict[int, set[Multiset]] = {}
    rules: list[TPRule] = []

    def fail(lineno, msg):
        raise FormatError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        head = head.upper()
        rest = rest.strip()
        try:
            if head == "SYSTEM":
                if rest.upper() != "TP":
                    fail(lineno, f"expected SYSTEM TP, got {rest!r}")
            elif head == "ALPHABET":
                alphabet = frozenset(rest.split())
            elif head == "TERMINAL":
                terminal = frozenset(rest.split())
            elif head == "CELLS":
                cells = int(rest)
            elif head == "OUTPUT":
                output = int(rest)
            elif head == "AXIOM":
                idx, _, body = rest.partition(" ")
                body = body.strip()
                if not (body.startswith("{") and body.endswith("}")):
                    fail(lineno, "axiom must be enclosed in braces")
                axioms.setdefault(int(idx), set()).add(Multiset.parse(body[1:-1]))
            elif head == "RULE":
                idx, _, body = rest.partition(" ")
                rule_text, arrow, tgt = body.rpartition("->")
                if not arrow:
                    fail(lineno, "rule must name a target cell: RULE i KIND (...) -> j")
                rules.append(TPRule(int(idx), parse_rule(rule_text), int(tgt)))
            else:
                fail(lineno, f"unknown directive {head!r}")
        except (ValueError, MultisetError, RuleError) as exc:
            if isinstance(exc, FormatError):
                raise
            fail(lineno, str(exc))

    if alphabet is None or cells is None or output is None:
        raise FormatError("system must declare ALPHABET, CELLS and OUTPUT")
    system = TissueSystem(
        alphabet=alphabet,
        terminal=terminal or frozenset(),
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
