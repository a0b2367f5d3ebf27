"""Tissue systems: synchronous maximal rule application over sets of vesicles.

Each rule is anchored at a source cell and names a target cell.  In one step
every applicable firing on the current contents happens: all results land in
the target cells and every vesicle that took part in at least one firing is
removed from its cell.  Untouched vesicles stay put.  The computation never
stops by itself; runs are cut off by an explicit step budget and results are
accumulated from the output cell as they appear.
"""

from __future__ import annotations

from itertools import cycle, filterfalse, islice
from pathlib import Path

from .engine import (
    Bounds, Codec, OperandIndex, drip, fill, join, lazy_field, pack, packed_start)
from .engine import drip1 as apply_drip1, drip2 as apply_drip
from .multiset import Multiset, check_count, located, parse_number, split_head, value_class
from .rules import Rule, apply_mate, parse_rule
from .tts import FormatError, common_problems, parse_system, render_header

# bench/tracer.py wraps the module attributes apply_drip1 and apply_drip
# (here the packed one-sided and two-sided drips) and apply_mate.  tp_step
# looks the first two up when it starts and calls them at most once per
# drip firing and size bucket of its slot, which drips with equal needs
# share; no engine calls apply_mate.


@value_class(frozen=True)
class TPRule:
    source: int
    rule: Rule
    target: int

    def render(self) -> str:
        return f"{self.rule.render()} -> {self.target}"


@value_class
class TissueSystem:
    alphabet: frozenset[str]
    terminal: frozenset[str]
    cells: int
    axioms: tuple[frozenset[Multiset], ...]  # [i] = cell i+1
    rules: tuple[TPRule, ...]
    output_cell: int


@value_class(frozen=True)
class TPState:
    """A tissue state.  A state `tp_step` returns holds its contents and
    result log packed; `contents` and `result_log` are decoded on first
    read and then kept."""

    step: int
    contents: tuple[frozenset[Multiset], ...]
    result_log: frozenset[Multiset]
    pruned: bool
    # the packed form tp_step left, so the next step need not encode it
    _packed = None

    @property
    def population(self) -> int:
        return sum(self._cell_sizes())

    def _cell_sizes(self) -> tuple[int, ...]:
        cells = self.contents if self._packed is None else self._packed.cells
        return tuple(map(len, cells))


@value_class(frozen=True)
class TPTrace:
    """Per-step population counts of a run."""

    populations: tuple[tuple[int, ...], ...]
    steps: int
    pruned: bool


def validate_tp(system: TissueSystem) -> tuple[list[str], list[str]]:
    """Returns (violations, warnings)."""
    problems, warnings = _problems(system)
    return [problem for _, problem in problems], warnings


def _problems(system: TissueSystem) -> tuple[list[tuple], list[str]]:
    """(violations, warnings); each violation is a (where, problem) pair,
    `where` being "CELLS", "ALPHABET", "TERMINAL", "OUTPUT", ("AXIOM",
    cell, axiom), ("RULE", k) for the k-th rule, or None for the system as
    a whole."""
    n = system.cells
    problems = common_problems(system, n, "cell")
    warnings: list[str] = []
    if len(system.axioms) != n:
        problems.append((None, "axiom sequence must have one entry per cell"))
    if not 1 <= system.output_cell <= n:
        problems.append(("OUTPUT", f"output cell {system.output_cell} out of range"))
    for k, tp in enumerate(system.rules):
        if not (1 <= tp.source <= n and 1 <= tp.target <= n):
            problems.append((("RULE", k), f"rule {tp.source}: {tp.render()} references a cell out of range"))
        elif tp.source == tp.target:
            warnings.append(f"rule {tp.source}: {tp.render()} keeps results in its own cell")
        extra = tp.rule.symbols() - system.alphabet
        if extra:
            problems.append((("RULE", k),
                             f"rule {tp.source}: {tp.render()} uses symbols outside the alphabet: {sorted(extra)}"))
    return problems, warnings


class _Packed:
    """A tissue state's contents and result log in packed form.

    `cells[c]` holds the packed vesicles of cell c and `log` those of the
    result log.  `anchored[c]` holds an empty operand index over the rules
    anchored at cell c, those rules' mate firings as (packed rule, left
    slot, right slot, target cell) and their drip firings as (packed rule,
    slot, target cell).  A step files each cell into a copy of that index,
    and the copies share its plans, so a support signature is planned once
    per run.  `nonterminal` masks the symbols a result may not hold.
    Valid for the system whose (alphabet, terminal, rules) is `source`.

    `carry`, None when the state was not made by `tp_step`, maps each
    anchored cell c to what the next step files it from: the slots that
    did not fire in the step that made this state, as (slot, size ->
    vesicles map) pairs with the consumed vesicles taken out, and the set
    of vesicles that step placed in c.  A fired slot is consumed whole, so
    those are the vesicles of c that some slot takes: the next step files
    only the arrivals.  Carried maps and lists are shared between states
    and never changed.
    """

    __slots__ = ("source", "codec", "anchored", "nonterminal", "cells", "log", "carry")

    def __init__(self, source: tuple, codec: Codec, anchored: dict[int, tuple],
                 nonterminal: int, cells: list[frozenset[int]], log: frozenset[int],
                 carry: dict[int, tuple] | None):
        self.source = source
        self.codec = codec
        self.anchored = anchored
        self.nonterminal = nonterminal
        self.cells = cells
        self.log = log
        self.carry = carry

    def serves(self, system: TissueSystem, bounds: Bounds) -> bool:
        return (self.codec.largest >= bounds.max_size
                and self.source == (system.alphabet, system.terminal, system.rules))

    def contents(self) -> tuple[frozenset[Multiset], ...]:
        return tuple(frozenset(map(self.codec.decode, cell)) for cell in self.cells)

    def result_log(self) -> frozenset[Multiset]:
        return frozenset(map(self.codec.decode, self.log))


TPState.contents = lazy_field("contents", _Packed.contents)
TPState.result_log = lazy_field("result_log", _Packed.result_log)


def _packed_form(system: TissueSystem, codec: Codec, cells: list[frozenset[int]],
                 log: frozenset[int]) -> _Packed:
    """The packed form of the cells and result log that `codec` packed."""
    firings: dict[int, list] = {}
    for tp in system.rules:
        firings.setdefault(tp.source - 1, []).append((codec.compile(tp.rule), tp.target - 1))
    anchored = {}
    for src, pairs in firings.items():
        index = OperandIndex(codec, [rule for rule, _ in pairs])
        layout = index._layout
        anchored[src] = (index,
                         [(rule, *layout[rule], target) for rule, target in pairs
                          if len(layout[rule]) == 2],
                         [(rule, *layout[rule], target) for rule, target in pairs
                          if len(layout[rule]) == 1])
    return _Packed((system.alphabet, system.terminal, system.rules), codec, anchored,
                   codec.mask(system.alphabet - system.terminal), cells, log, None)


def initial_state(system: TissueSystem, bounds: Bounds) -> TPState:
    """The axioms `bounds` admits, placed by `fill` as a step places its
    arrivals, so the population cap holds from step 0.  The state holds
    only its packed form, with no carry."""
    codec, cells, pruned = packed_start(
        system.alphabet, [tp.rule for tp in system.rules], system.axioms, bounds)
    packed = _packed_form(system, codec, cells, frozenset())
    cells, cut = fill(cells, bounds, 0, codec)
    return _packed_state(system, packed, 0, pruned or cut, cells, packed.log, None)


def _packed_state(system: TissueSystem, packed: _Packed, step: int, pruned: bool,
                  cells: list, log: frozenset[int], carry: dict[int, tuple] | None) -> TPState:
    """A state holding only its packed form: `cells`, `carry`, and `log`
    with the results in the output cell added."""
    log = log | {v for v in cells[system.output_cell - 1] if not v & packed.nonterminal}
    state = object.__new__(TPState)
    state.__dict__.update(step=step, pruned=pruned, _packed=_Packed(
        packed.source, packed.codec, packed.anchored, packed.nonterminal, cells, log, carry))
    return state


def _refiled(template: OperandIndex, held, vesicles: set[int]) -> OperandIndex:
    """A copy of `template` that holds the carried slots `held` and files
    `vesicles`: a whole cell when nothing is carried, else the arrivals
    alone.  A carried list that gains vesicles is replaced by a new one,
    so no carried list changes."""
    index = template.empty()
    index.extend(vesicles)
    slots = index._slots
    for i, kept in held:
        slot = slots[i]
        if not slot:
            slots[i] = kept
            continue
        for size, bucket in kept.items():
            new = slot.get(size)
            slot[size] = bucket + new if new else bucket
    return index


def tp_step(system: TissueSystem, state: TPState, bounds: Bounds) -> TPState:
    """One synchronous step computed from the pre-step contents.

    Each cell's operands come from one index over the rules anchored at that
    cell, so a rule listed for several targets finds its operands once and
    its results land in every target.  A drip applies to every vesicle in
    its operand lists and consumes all of them.  A mate rule applies to
    every pair of a left and a right operand, so when both kinds are present
    all of them are consumed, oversize fusions included.  Only the fusions
    that fit `max_size` are built; `pruned` is set when some do not.  Rules
    with equal needs share a slot, and each slot that fires is consumed
    once.

    The step works on packed vesicles and decodes none.  It reuses the
    packed form the step before left on `state`.  When that form holds a
    carry, each anchored cell's index is the carried unfired slots plus its
    arrivals, the only vesicles filed; otherwise the whole cell is filed.
    The state returned holds only its packed form, with the carry for the
    next step.
    """
    packed = state._packed
    if packed is None or not packed.serves(system, bounds):
        codec, (*cells, log) = pack(system.alphabet, [tp.rule for tp in system.rules],
                                    (*state.contents, state.result_log), bounds.max_size)
        packed = _packed_form(system, codec, cells, log)
    codec, carry = packed.codec, packed.carry
    kernels = (apply_drip1, apply_drip)  # looked up per call, so bench/tracer.py sees them
    pruned = state.pruned
    used: list[set[int]] = [set() for _ in range(system.cells)]
    arrivals: list[set[int]] = [set() for _ in range(system.cells)]
    held: dict[int, list] = {}  # per anchored cell: its unfired slots, less `used`

    for src, (template, mates, drips) in packed.anchored.items():
        cell = packed.cells[src]
        if not cell:
            held[src] = []
            continue
        index = _refiled(template, *(((), cell) if carry is None else carry[src]))
        slots, gone = index._slots, used[src]
        fired = set()
        for rule, left, right, target in mates:
            lefts, rights = slots[left], slots[right]
            if lefts and rights:
                fired.update((left, right))
                if join(rule, lefts, rights, bounds, arrivals[target]):
                    pruned = True
        for rule, i, target in drips:
            if slots[i]:
                fired.add(i)
                for size, bucket in slots[i].items():
                    if drip(rule, size, bucket, bounds, arrivals[target], codec, kernels):
                        pruned = True
        for i in fired:
            for bucket in slots[i].values():
                gone.update(bucket)
        held[src] = unfired = []
        for i, slot in enumerate(slots):
            if slot and i not in fired:
                if gone:
                    slot = {size: rest for size, bucket in slot.items()
                            if (rest := list(filterfalse(gone.__contains__, bucket)))}
                if slot:
                    unfired.append((i, slot))

    kept = [cell - gone if gone else cell for cell, gone in zip(packed.cells, used)]
    for new, cell in zip(arrivals, kept):
        new -= cell
    placed, cut = fill(arrivals, bounds, sum(map(len, kept)), codec)
    pruned |= cut
    cells = [cell | new if new else cell for cell, new in zip(kept, placed)]
    carry = {src: (held[src], placed[src]) for src in packed.anchored}
    return _packed_state(system, packed, state.step + 1, pruned, cells, packed.log, carry)


# The largest tissue step budget: a run's trace keeps a population per step.
MAX_STEPS = 1_000_000


def check_steps(max_steps) -> None:
    """Refuse a step budget that is not an int from 0 to MAX_STEPS, as `Bounds` does."""
    check_count(ValueError, "max_steps", max_steps, 0, MAX_STEPS)


def tp_run(system: TissueSystem, max_steps: int, bounds: Bounds) -> tuple[set[Multiset], TPTrace]:
    """Run max_steps synchronous steps from the axioms; results accumulate.
    Only the final result log is decoded.

    Stepping stops once the packed cells equal those 1 or 2 steps back; the
    rest of `populations` repeats that period.  This is exact: a step's
    cells, results and share of `pruned` depend only on the cells before it
    (the fill order is fixed as compartment, then render), so every later
    step repeats one whose results and cuts are already logged.  The one
    earlier state held for this is one whose cell sizes equal those 1 or 2
    steps before it; it is dropped once the two steps after it differ.
    """
    problems, _ = validate_tp(system)
    if problems:
        raise ValueError("invalid system: " + "; ".join(problems))
    check_steps(max_steps)
    state = initial_state(system, bounds)
    populations = [state._cell_sizes()]
    held = None  # (step, packed cells) of the state a later one may repeat
    for step in range(1, max_steps + 1):
        state = tp_step(system, state, bounds)
        sizes, cells = state._cell_sizes(), state._packed.cells
        populations.append(sizes)
        if held and cells == held[1]:
            populations.extend(islice(cycle(populations[held[0] + 1:]), max_steps - step))
            break
        if not held or step - held[0] == 2:
            held = (step, cells) if sizes in populations[-3:-1] else None
    return set(state.result_log), TPTrace(tuple(populations), max_steps, state.pruned)


# -- text format -------------------------------------------------------------


def render_tp(system: TissueSystem) -> str:
    lines = render_header(system, "TP", "CELLS", system.cells, (system.output_cell,))
    for tp in sorted(system.rules, key=lambda r: (r.source, r.rule.render(), r.target)):
        lines.append(f"RULE {tp.source} {tp.rule.render()} -> {tp.target}")
    return "\n".join(lines) + "\n"


def parse_tp(text: str) -> TissueSystem:
    output: int | None = None
    rules: list[TPRule] = []

    def on_output(rest):
        nonlocal output
        output = parse_number(rest)
        return "OUTPUT", (output,)

    def on_rule(rest):
        idx, body = split_head(rest)
        rule_text, arrow, tgt = body.rpartition("->")
        if not arrow:
            raise FormatError("rule must name a target cell: RULE i KIND (...) -> j")
        tp = TPRule(parse_number(idx), parse_rule(rule_text), parse_number(tgt.strip()))
        rules.append(tp)
        return ("RULE", len(rules) - 1), (tp.source, tp.target)

    alphabet, terminal, cells, axioms, at = parse_system(
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
    problems, _ = _problems(system)
    if problems:
        raise FormatError(located(problems, at))
    return system


def load_tp(path: str | Path) -> TissueSystem:
    return parse_tp(Path(path).read_text(encoding="utf-8"))
