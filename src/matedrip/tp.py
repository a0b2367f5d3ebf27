"""Tissue systems: synchronous maximal rule application over sets of vesicles.

Each rule is anchored at a source cell and names a target cell.  In one step
every applicable firing on the current contents happens: all results land in
the target cells and every vesicle that took part in at least one firing is
removed from its cell.  Untouched vesicles stay put.  The computation never
stops by itself; runs are cut off by an explicit step budget and results are
accumulated from the output cell as they appear.
"""

from __future__ import annotations

from itertools import cycle, islice
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
# drip firing and size bucket of the vesicles its slot gained since two
# steps back, or of the whole slot; drips with equal needs share a slot.
# No engine calls apply_mate.


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
        return sum(map(len, self.contents if self._packed is None else self._packed.cells))


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


@value_class
class _Packed:
    """A tissue state's contents and result log in packed form.

    `cells[c]` holds the packed vesicles of cell c and `log` those of the
    result log.  `anchored[c]` is cell c's firing table, an
    `OperandIndex` over the rules anchored at cell c, each listed with its
    0-based target cell; a rule with several targets has one set of slots.
    A step files each cell with that index into new slot maps, and the
    index keeps its plans, so a support signature is planned once per run.
    `nonterminal` masks the symbols a result may not hold.
    Valid for the system and bounds whose (alphabet, terminal, cells,
    rules, max_size, keep_empty) is `source`: the codec is sized for that
    max_size, and the records were made under those bounds.

    `records` is (made, before): the records of the step that made this
    state and of the step before it, each a map from an anchored cell that
    was non-empty before that step to its record, as `_cell_step` returns
    it.  A state not made by `tp_step` has none.  A record holds no state,
    so records never chain, and nothing in one is changed once it is made:
    cells, slot maps, bucket lists and product sets are shared between
    records and states.
    """

    source: tuple
    codec: Codec
    anchored: dict[int, OperandIndex]
    nonterminal: int
    cells: list[frozenset[int]]
    log: frozenset[int]
    records: tuple[dict, dict]

    def serves(self, system: TissueSystem, bounds: Bounds) -> bool:
        return self.source == _source(system, bounds)

    def contents(self) -> tuple[frozenset[Multiset], ...]:
        return tuple(frozenset(map(self.codec.decode, cell)) for cell in self.cells)

    def result_log(self) -> frozenset[Multiset]:
        return frozenset(map(self.codec.decode, self.log))


TPState.contents = lazy_field("contents", _Packed.contents)
TPState.result_log = lazy_field("result_log", _Packed.result_log)

_NO_RECORDS = ({}, {})


def _source(system: TissueSystem, bounds: Bounds) -> tuple:
    return (system.alphabet, system.terminal, system.cells, system.rules,
            bounds.max_size, bounds.keep_empty)


def _packed_form(system: TissueSystem, bounds: Bounds, codec: Codec,
                 cells: list[frozenset[int]], log: frozenset[int]) -> _Packed:
    """The packed form of the cells and result log that `codec` packed
    for `bounds`."""
    firings: dict[int, list] = {}
    for tp in system.rules:
        firings.setdefault(tp.source - 1, []).append((codec.compile(tp.rule), tp.target - 1))
    anchored = {src: OperandIndex(codec, pairs) for src, pairs in firings.items()}
    return _Packed(_source(system, bounds), codec, anchored,
                   codec.mask(system.alphabet - system.terminal), cells, log, _NO_RECORDS)


def initial_state(system: TissueSystem, bounds: Bounds) -> TPState:
    """The axioms `bounds` admits, placed by `fill` as a step places its
    arrivals, so the population cap holds from step 0.  The state holds
    only its packed form, with no records."""
    codec, cells, pruned = packed_start(
        system.alphabet, [tp.rule for tp in system.rules], system.axioms, bounds)
    packed = _packed_form(system, bounds, codec, cells, frozenset())
    cells, cut = fill(cells, bounds, 0, codec)
    return _packed_state(system, packed, 0, pruned or cut, cells, packed.log, _NO_RECORDS)


def _packed_state(system: TissueSystem, packed: _Packed, step: int, pruned: bool,
                  cells: list, log: frozenset[int], records: tuple[dict, dict]) -> TPState:
    """A state holding only its packed form: `cells`, `records`, and `log`
    with the results in the output cell added."""
    log = log | {v for v in cells[system.output_cell - 1] if not v & packed.nonterminal}
    state = object.__new__(TPState)
    state.__dict__.update(step=step, pruned=pruned, _packed=_Packed(
        packed.source, packed.codec, packed.anchored, packed.nonterminal, cells, log, records))
    return state


@value_class(frozen=True)
class _Record:
    """One anchored cell's step, as a function of the cell's pre-step
    contents `cell` and of the bounds its packed form was made for: `slots`,
    the cell's full operand index, every slot whether it fired or not;
    `products`, each target cell -> the set of admitted products sent
    there; `oversize`, whether a product was left out for size; `fired`,
    the slots that fired; and `gone`, the vesicles of `cell` in some slot
    that fired, which is `cell` itself when that is all of them.  The
    population cap plays no part: it acts after the firings, in `fill`.
    Nothing in a record is changed once it is made."""

    cell: frozenset[int]
    slots: list[dict] | None
    products: dict[int, set[int]]
    oversize: bool
    fired: set[int]
    gone: set[int]


# the record of an empty cell: a cell stepped from it is filed whole
_EMPTY = _Record(frozenset(), None, {}, False, frozenset(), frozenset())


def _cell_step(anchored: OperandIndex, cell, bounds: Bounds, codec: Codec, kernels,
               earlier: _Record | None) -> _Record:
    """The record of the firings of one non-empty cell, whose firing table
    `anchored` lists its mate firings (`_mates`) and drip firings
    (`_drips`), each with its target cell.

    `earlier` is the record made two steps back for this cell, under the
    same bounds, or None.  When it was made from contents C that this cell
    holds all of, only the new vesicles D = cell - C are filed, by
    `anchored.file` into new slot maps, and the step is computed from the
    record (semi-naive evaluation, Bancilhon & Ramakrishnan, SIGMOD 1986).
    This is exact, because each slot's vesicles split disjointly into C's
    and D's:

    - a slot is the record's map with D's buckets put in as new lists, and
      a slot that fired on C fires again;
    - a mate's fusions on C + D are (L + dL) x (R + dR), with L, R its
      operands in C and dL, dR those in D: L x R are the record's, and
      dL x (R + dR) and L x dR are joined now; so are the oversize flags,
      since each join's flag says whether some pair it covers is oversize;
    - a drip acts on each vesicle alone, so it fires on D's buckets only;
    - the vesicles consumed are the record's, those of C in a slot that
      fires now and did not on C, and those of D in a slot that fires.

    Otherwise the cell is stepped from the record of an empty cell: the
    whole cell is filed.  Each firing's products go to the record's set
    for its target.  Nothing of `earlier` is changed: its slot maps
    and product sets are copied before anything is added to them.
    """
    before, new = _EMPTY, cell
    if earlier is not None:
        gained = cell - earlier.cell
        if len(cell) - len(gained) == len(earlier.cell):  # the cell holds all of C
            before, new = earlier, gained
    fresh = anchored.file(new)
    if before.slots is None:
        slots, old = fresh, [{}] * len(fresh)
    else:
        old = before.slots
        slots = [_merged(slot, add) if add else slot for slot, add in zip(old, fresh)]
    products = {target: set(out) for target, out in before.products.items()}
    oversize = before.oversize
    fired = set()
    for rule, left, right, target in anchored._mates:
        if slots[left] and slots[right]:
            fired.update((left, right))
            out = products.setdefault(target, set())
            if fresh[left] and join(rule, fresh[left], slots[right], bounds, out):
                oversize = True
            if fresh[right] and old[left] and join(rule, old[left], fresh[right], bounds, out):
                oversize = True
    for rule, i, target in anchored._drips:
        if slots[i]:
            fired.add(i)
            out = products.setdefault(target, set())
            for size, bucket in fresh[i].items():
                if drip(rule, size, bucket, bounds, out, codec, kernels):
                    oversize = True
    gone = set(before.gone)
    for i in fired - before.fired:
        for bucket in old[i].values():
            gone.update(bucket)
    for i in fired:
        for bucket in fresh[i].values():
            gone.update(bucket)
    if len(gone) == len(cell):  # share the cell, not an equal set
        gone = cell
    return _Record(cell, slots, products, oversize, fired, gone)


def _merged(slot: dict, add: dict) -> dict:
    """A new size -> vesicles map of the vesicles of `slot` and of `add`,
    two such maps over disjoint vesicles; a bucket both hold is a new list."""
    merged = dict(slot)
    for size, bucket in add.items():
        held = merged.get(size)
        merged[size] = held + bucket if held else bucket
    return merged


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
    packed form the step before left on `state`, and with it the records
    of the two steps before, when that form was made for this system and
    these bounds; otherwise it packs the state's contents anew, with no
    records, and refuses a state whose cell count is not the system's.  A
    vesicle passes to its target cell once a rule has acted on it, so
    working vesicles go back and forth between two cells, and a cell mostly
    holds all it held two steps back and some more.  `_cell_step` then steps the cell from the record made two steps
    back, filing and fusing only what is new, which is exact; otherwise it
    files the whole cell.  The state returned holds only its packed form,
    with this step's records and those of the step before.  No product
    set, cell or record it reads is changed: a product set can become a
    cell, and a cell a record's.
    """
    packed = state._packed
    if packed is None or not packed.serves(system, bounds):
        if len(state.contents) != system.cells:
            raise ValueError(f"state has {len(state.contents)} cells, system has {system.cells}")
        codec, (*cells, log) = pack(system.alphabet, [tp.rule for tp in system.rules],
                                    (*state.contents, state.result_log), bounds.max_size)
        packed = _packed_form(system, bounds, codec, cells, log)
    codec, (recent, earlier) = packed.codec, packed.records
    kernels = (apply_drip1, apply_drip)  # looked up per call, so bench/tracer.py sees them
    pruned = state.pruned
    kept = list(packed.cells)
    owned = [False] * system.cells  # whether kept[c] is a set this step made
    sent: list[list] = [[] for _ in range(system.cells)]  # per target: product sets
    records = {}
    for src, anchored in packed.anchored.items():
        cell = kept[src]
        if cell:
            record = records[src] = _cell_step(anchored, cell, bounds, codec, kernels,
                                               earlier.get(src))
            pruned |= record.oversize
            if record.gone:
                kept[src] = cell - record.gone if record.gone is not cell else set()
                owned[src] = True
            for target, out in record.products.items():
                sent[target].append(out)

    arrivals = []
    for cell, outs in zip(kept, sent):
        if len(outs) > 1:
            fresh = outs[0].union(*outs[1:])
            fresh -= cell
        elif outs:
            fresh = outs[0] - cell if cell else outs[0]
        else:
            fresh = set()
        arrivals.append(fresh)
    placed, cut = fill(arrivals, bounds, sum(map(len, kept)), codec)
    pruned |= cut
    cells = []
    for cell, new, own in zip(kept, placed, owned):
        if not cell:
            cell = new
        elif new and own:
            cell |= new
        elif new:
            cell = cell | new
        cells.append(cell)
    return _packed_state(system, packed, state.step + 1, pruned, cells, packed.log,
                         (records, recent))


# The largest tissue step budget: a run's trace keeps a population per step.
MAX_STEPS = 1_000_000


def check_steps(max_steps) -> None:
    """Refuse a step budget that is not an int from 0 to MAX_STEPS, as `Bounds` does."""
    check_count(ValueError, "max_steps", max_steps, 0, MAX_STEPS)


def tp_run(system: TissueSystem, max_steps: int, bounds: Bounds) -> tuple[set[Multiset], TPTrace]:
    """Run max_steps synchronous steps from the axioms; results accumulate.
    Only the final result log is decoded.

    Stepping stops at the first state whose packed cells equal those 1 or
    2 steps back; the rest of `populations` repeats that period.  This is
    exact: a step's cells, results and share of `pruned` depend only on the
    cells before it (the fill order is fixed as compartment, then render),
    so every later step repeats one whose results and cuts are already
    logged.  The cells are compared only when their sizes are equal.
    """
    problems, _ = validate_tp(system)
    if problems:
        raise ValueError("invalid system: " + "; ".join(problems))
    check_steps(max_steps)
    state = initial_state(system, bounds)
    back = [state._packed.cells]  # the packed cells 1 and 2 steps back
    populations = [tuple(map(len, back[0]))]
    for step in range(1, max_steps + 1):
        state = tp_step(system, state, bounds)
        cells = state._packed.cells
        populations.append(tuple(map(len, cells)))
        lag = next((lag for lag, seen in enumerate(back, 1)
                    if populations[-1 - lag] == populations[-1] and seen == cells), 0)
        if lag:
            populations.extend(islice(cycle(populations[-lag:]), max_steps - step))
            break
        back = [cells, back[0]]
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
