"""Test tube systems over sets of vesicles, with bounded closure semantics.

Tubes hold sets of multiset-carrying vesicles.  Rules act inside tubes and
never remove anything; vesicles whose support fits a filter flow to the
target tube while copies remain.  The engine computes the least fixpoint of
that monotone operator, truncated by explicit exploration bounds.

`parse_system` is the reader shared by `.tts` and `.tp` files.  Like
`regmach.parse_machine`, it reads lines through `multiset.directives` and
reports the problems a validation finds through `multiset.located`, so
every problem that belongs to a line names it.
"""

from __future__ import annotations

from pathlib import Path

from .engine import (
    Bounds, Codec, OperandIndex, decode_compartments, fill, lazy_field, pack, packed_start,
    rule_productions)
from .engine import drip1 as apply_drip1, drip2 as apply_drip
from .multiset import (
    Multiset, MultisetError, check_symbol, directives, located, parse_number, split_head,
    value_class)
from .rules import Rule, apply_mate, parse_rule

# bench/tracer.py wraps the module attributes apply_drip1 and apply_drip
# (here the packed one-sided and two-sided drips) and apply_mate.  Each
# closure round looks the first two up and calls them at most once per
# drip rule and size bucket; no engine calls apply_mate.


class FormatError(ValueError):
    """Malformed system text."""


@value_class(frozen=True)
class SupportFilter:
    """Passes a vesicle iff every carried symbol lies in `allowed`."""

    allowed: frozenset[str]

    def passes(self, vesicle: Multiset) -> bool:
        return vesicle.support <= self.allowed


@value_class(frozen=True)
class TubeFilter:
    """Finite union of support filters; passes iff some branch passes."""

    branches: tuple[SupportFilter, ...]

    def passes(self, vesicle: Multiset) -> bool:
        return any(b.passes(vesicle) for b in self.branches)


@value_class
class TestTubeSystem:
    __test__ = False  # not a pytest class despite the name

    alphabet: frozenset[str]
    terminal: frozenset[str]
    tubes: int
    axioms: tuple[frozenset[Multiset], ...]          # [i] = tube i+1
    rules: tuple[tuple[Rule, ...], ...]              # [i] = tube i+1
    filters: tuple[tuple[int, TubeFilter, int], ...]  # (source, filter, target), 1-based
    outputs: frozenset[int]


@value_class(frozen=True)
class TTSState:
    """A closure state.  A state `closure` returns holds its tubes packed;
    `contents` is decoded on first read and then kept."""

    contents: tuple[frozenset[Multiset], ...]
    pruned: bool
    iterations: int
    _packed = None

    @property
    def population(self) -> int:
        return sum(map(len, self.contents if self._packed is None else self._packed.tubes))


@value_class
class _Packed:
    """A closure state's tubes as sets of packed vesicles, with their codec.
    Decoding empties the sets, so the decoded tubes take their place, for
    any copy of the state that shares this form."""

    codec: Codec  # None once the tubes are decoded
    tubes: list[set[int]]

    def contents(self) -> tuple[frozenset[Multiset], ...]:
        if self.codec is not None:
            self.tubes = decode_compartments(self.codec, self.tubes)
            self.codec = None
        return self.tubes


TTSState.contents = lazy_field("contents", _Packed.contents)


def validate_tts(system: TestTubeSystem) -> list[str]:
    return [problem for _, problem in _problems(system)]


def common_problems(system, count: int, noun: str) -> list[tuple]:
    """(where, problem) pairs for the parts that tube and tissue systems
    share: the `count` of compartments, each a `noun` ("tube" or "cell"),
    the ALPHABET and TERMINAL names, which `parse_system` also refuses line
    by line in a file, the terminal subset and the axiom symbols."""
    problems = []
    if count < 1:
        problems.append((noun.upper() + "S", f"{noun} count must be positive"))
    names = []
    for where, symbols in (("ALPHABET", system.alphabet), ("TERMINAL", system.terminal)):
        for name in symbols:
            try:
                check_symbol(name)
            except MultisetError as exc:
                names.append((where, str(exc)))
    problems += sorted(names)
    if not system.terminal <= system.alphabet:
        problems.append(("TERMINAL", "terminal alphabet must be a subset of the alphabet"))
    for c, axioms in enumerate(system.axioms, start=1):
        for ax in axioms:
            extra = ax.support - system.alphabet
            if extra:
                problems.append((("AXIOM", c, ax),
                                 f"{noun} {c} axiom {ax} uses symbols outside the alphabet: {sorted(extra)}"))
    return problems


def _problems(system: TestTubeSystem) -> list[tuple]:
    """(where, problem) pairs; `where` is "TUBES", "ALPHABET", "TERMINAL",
    "OUTPUT", ("AXIOM", tube, axiom), ("RULE", tube, k) for a tube's k-th
    rule, ("FILTER", source, target, k) for a filter's k-th branch (k = 0
    for the problems of the filter as a whole), or None for the system as
    a whole."""
    n = system.tubes
    problems = common_problems(system, n, "tube")
    if len(system.axioms) != n or len(system.rules) != n:
        problems.append((None, "axiom/rule sequences must have one entry per tube"))
    for i in system.outputs:
        if not 1 <= i <= n:
            problems.append(("OUTPUT", f"output tube {i} out of range"))
    for t, rules in enumerate(system.rules, start=1):
        for k, rule in enumerate(rules):
            extra = rule.symbols() - system.alphabet
            if extra:
                problems.append((("RULE", t, k),
                                 f"tube {t} rule {rule.render()} uses symbols outside the alphabet: {sorted(extra)}"))
    for i, filt, j in system.filters:
        if not (1 <= i <= n and 1 <= j <= n):
            problems.append((("FILTER", i, j, 0), f"filter ({i} -> {j}) references a tube out of range"))
        if i == j:
            problems.append((("FILTER", i, j, 0), f"filter ({i} -> {j}) must connect two distinct tubes"))
        for k, branch in enumerate(filt.branches):
            extra = branch.allowed - system.alphabet
            if extra:
                problems.append((("FILTER", i, j, k),
                                 f"filter ({i} -> {j}) uses symbols outside the alphabet: {sorted(extra)}"))
    return problems


def _operator(system: TestTubeSystem, codec: Codec) -> list[OperandIndex]:
    """Per tube, an operand index, the tube's firing table: its rules,
    each sending to the tube itself, and the branches of the filters
    leaving it, each sending to its filter's target, with 0-based tubes."""
    leaving: list[list] = [[] for _ in system.rules]  # per tube: (forbidden mask, target)
    for i, filt, j in system.filters:
        leaving[i - 1] += [(mask, j - 1) for mask in codec.filter(filt)]
    return [OperandIndex(codec, [(codec.compile(rule), t) for rule in rules], branches)
            for t, (rules, branches) in enumerate(zip(system.rules, leaving))]


def _round(indexes: list[OperandIndex], held: list[list[dict]], frontier: list[set[int]],
           bounds: Bounds, codec: Codec) -> tuple[list[set[int]], bool]:
    """(produced, cut): per tube, the rule productions that involve a
    frontier vesicle and the frontier vesicles that pass a filter into it,
    and whether a production was left out for size.  Each tube's frontier
    is filed by its index into slot maps of its own, which
    `rule_productions` joins against the tube's `held` mate operands and
    merges into them, sending each firing's products to its target; each
    of the index's `routes` sends the vesicles its branch slot holds in
    that batch to its target."""
    kernels = (apply_drip1, apply_drip)  # looked up per round, so bench/tracer.py sees them
    produced: list[set[int]] = [set() for _ in frontier]
    cut = False
    for index, slots, new in zip(indexes, held, frontier):
        if new and index._entries:
            batch = index.file(new)
            if rule_productions(index, slots, batch, produced, bounds, codec, kernels):
                cut = True
            for slot, target in index.routes:
                for bucket in batch[slot].values():
                    produced[target].update(bucket)
    return produced, cut


def _productions(system: TestTubeSystem, contents, max_size: int) -> set[tuple[int, Multiset]]:
    """Everything one application step could add that fits `max_size`,
    computed from scratch: one round with all of `contents` as frontier,
    packed by `pack`, which sizes the codec's fields from them too, and
    no mate operands held before."""
    codec, pool = pack(system.alphabet, [r for rules in system.rules for r in rules], contents,
                       max_size)
    indexes = _operator(system, codec)
    produced, _ = _round(indexes, [index.file(()) for index in indexes], pool,
                         Bounds(max_size=max_size), codec)
    return {(t, codec.decode(v)) for t, vesicles in enumerate(produced) for v in vesicles}


def closure(system: TestTubeSystem, bounds: Bounds) -> TTSState:
    """Saturate all tubes under rules and filter passage, within bounds.

    `pruned` is set whenever any bound truncated the exploration: an oversize
    result was dropped, the population cap was hit, or the iteration budget
    ran out before a fixpoint.  Tubes hold packed vesicles while the closure
    runs, and the state returned keeps them packed until `contents` is read.
    """
    problems = validate_tts(system)
    if problems:
        raise ValueError("invalid system: " + "; ".join(problems))
    codec, axioms, oversize = packed_start(
        system.alphabet, [r for rules in system.rules for r in rules], system.axioms, bounds)
    contents, pruned, iterations = _explore(system, bounds, codec, axioms)
    state = object.__new__(TTSState)
    state.__dict__.update(pruned=oversize or pruned, iterations=iterations,
                          _packed=_Packed(codec, contents))
    return state


def _explore(system: TestTubeSystem, bounds: Bounds, codec: Codec, fresh: list) -> tuple:
    """The closure on packed vesicles from the packed tubes `fresh`:
    (tubes, pruned, iterations).  `held` keeps each tube's mate operands,
    slot maps its index filed, which grow only as `_round` merges in its
    frontier's; they, the indexes and the round's sets are dropped on
    return."""
    contents: list[set[int]] = [set() for _ in range(system.tubes)]
    indexes = _operator(system, codec)
    held = [index.file(()) for index in indexes]
    pruned = False
    iterations = 0
    while True:
        # admit the fresh vesicles; unless the population cap cut them,
        # they are the frontier of the next round
        placed, cut = fill(fresh, bounds, sum(map(len, contents)), codec)
        for tube, new in zip(contents, placed):
            tube |= new
        if cut:
            return contents, True, iterations
        produced, cut = _round(indexes, held, fresh, bounds, codec)
        pruned = pruned or cut
        fresh = [p - c for p, c in zip(produced, contents)]
        del produced  # not held while the next round produces
        if not any(fresh):
            return contents, pruned, iterations
        if iterations >= bounds.max_iterations:
            return contents, True, iterations
        iterations += 1


def _check_tubes(system: TestTubeSystem, state: TTSState) -> None:
    """Refuse a state whose tube count is not the system's."""
    tubes = state.contents if state._packed is None else state._packed.tubes
    if len(tubes) != system.tubes:
        raise ValueError(f"state has {len(tubes)} tubes, system has {system.tubes}")


def is_fixpoint(system: TestTubeSystem, state: TTSState, bounds: Bounds) -> bool:
    """True when no admissible rule result or filter passage is missing."""
    _check_tubes(system, state)
    return not any(v not in state.contents[t] and bounds.keeps(len(v))
                   for t, v in _productions(system, state.contents, bounds.max_size))


def results_of_state(system: TestTubeSystem, state: TTSState) -> set[Multiset]:
    """Terminal-support vesicles sitting in the output tubes.  Of a state
    whose tubes are still packed, only these vesicles are decoded."""
    _check_tubes(system, state)
    packed = state._packed
    if packed is None or packed.codec is None:
        return {v for f in system.outputs for v in state.contents[f - 1]
                if v.support <= system.terminal}
    codec = packed.codec
    # the codec's own names, so the test is support <= terminal for any system
    nonterminal = codec.mask(set(codec.names) - system.terminal)
    return {codec.decode(v) for f in system.outputs for v in packed.tubes[f - 1]
            if not v & nonterminal}


# -- text format -------------------------------------------------------------


def render_header(system, kind: str, count_head: str, count: int, outputs) -> list[str]:
    """The lines both `.tts` and `.tp` files open with: `SYSTEM kind`, the
    ALPHABET and TERMINAL names, `count_head count`, the OUTPUT numbers
    and each compartment's AXIOM lines, as `parse_system` reads them."""
    lines = [f"SYSTEM {kind}",
             "ALPHABET " + " ".join(sorted(system.alphabet)),
             "TERMINAL " + " ".join(sorted(system.terminal)),
             f"{count_head} {count}",
             "OUTPUT " + " ".join(map(str, outputs))]
    for c in range(count):
        for ax in sorted(system.axioms[c], key=Multiset.render):
            lines.append(f"AXIOM {c + 1} {{{ax}}}")
    return lines


def render_tts(system: TestTubeSystem) -> str:
    lines = render_header(system, "TTS", "TUBES", system.tubes, sorted(system.outputs))
    for t in range(system.tubes):
        for rule in sorted(system.rules[t], key=lambda r: r.render()):
            lines.append(f"RULE {t + 1} {rule.render()}")
    for i, j, allowed in sorted((i, j, " ".join(sorted(branch.allowed)))
                                for i, filt, j in system.filters for branch in filt.branches):
        lines.append(f"FILTER {i} -> {j} SUPPORT {{{allowed}}}")
    return "\n".join(lines) + "\n"


def _parse_brace_group(text: str, what: str) -> str:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise FormatError(f"{what} must be enclosed in braces: {text!r}")
    return text[1:-1].strip()


# The most compartments a system file may declare: each is allocated when
# the file is parsed, and decoding a closure state's tubes compares every
# pair of them.
MAX_COMPARTMENTS = 1000

# The only directives a system file may give more than once.
_REPEATABLE = frozenset({"AXIOM", "RULE", "FILTER"})


def parse_system(text: str, kind: str, count_head: str, handlers: dict) -> tuple:
    """The skeleton shared by the `.tts` and `.tp` line formats.

    Checks `SYSTEM kind` and reads ALPHABET and TERMINAL, whose names must
    pass `check_symbol`, the compartment count `count_head` (at most
    MAX_COMPARTMENTS) and AXIOM lines.  Every other head goes to
    `handlers[head](rest)`, which returns the line's `where` and the
    compartment indices the line names.  Only AXIOM, RULE and FILTER lines
    may repeat.  Errors carry their line number, and so
    does a compartment index out of range once the count is known.
    Returns (alphabet, terminal, count, axioms by compartment index, at);
    the alphabet and count are None when undeclared, and `at` maps each
    head that may not repeat, each ("AXIOM", index, axiom) and each
    handler's `where` to its line, for `located`.
    """
    alphabet = count = None
    terminal: frozenset[str] = frozenset()
    axioms: dict[int, set[Multiset]] = {}
    named: list[tuple[int, int]] = []  # (compartment index, line number)
    at: dict = {}
    for lineno, head, rest in directives(text):
        head = head.upper()
        try:
            if head in at:
                raise FormatError(f"duplicate {head} line")
            if head not in _REPEATABLE:
                at[head] = lineno
            if head == "SYSTEM":
                if rest.upper() != kind:
                    raise FormatError(f"expected SYSTEM {kind}, got {rest!r}")
            elif head == "ALPHABET":
                alphabet = frozenset(map(check_symbol, rest.split()))
            elif head == "TERMINAL":
                terminal = frozenset(map(check_symbol, rest.split()))
            elif head == count_head:
                count = parse_number(rest)
                if count > MAX_COMPARTMENTS:
                    raise FormatError(f"{count_head} {count} is over the limit of {MAX_COMPARTMENTS}")
            elif head == "AXIOM":
                idx, body = split_head(rest)
                idx = parse_number(idx)
                ax = Multiset.parse(_parse_brace_group(body, "axiom"))
                axioms.setdefault(idx, set()).add(ax)
                at.setdefault(("AXIOM", idx, ax), lineno)
                named.append((idx, lineno))
            elif head in handlers:
                where, indices = handlers[head](rest)
                at[where] = lineno
                named += [(idx, lineno) for idx in indices]
            else:
                raise FormatError(f"unknown directive {head!r}")
        except ValueError as exc:  # MultisetError and RuleError included
            raise FormatError(f"line {lineno}: {exc}") from exc
    if count is not None:
        for idx, lineno in named:
            if not 1 <= idx <= count:
                raise FormatError(f"line {lineno}: index {idx} out of range for {count_head} {count}")
    return alphabet, terminal, count, axioms, at


def parse_tts(text: str) -> TestTubeSystem:
    outputs: frozenset[int] = frozenset()
    rules: dict[int, list[Rule]] = {}
    filters: dict[tuple[int, int], list[SupportFilter]] = {}

    def on_output(rest):
        nonlocal outputs
        outputs = frozenset(parse_number(tok) for tok in rest.split())
        return "OUTPUT", outputs

    def on_rule(rest):
        idx, body = split_head(rest)
        idx = parse_number(idx)
        rules.setdefault(idx, []).append(parse_rule(body))
        return ("RULE", idx, len(rules[idx]) - 1), (idx,)

    def on_filter(rest):
        src, arrow, tail = rest.partition("->")
        if not arrow:
            raise FormatError("filter must be FILTER i -> j SUPPORT {symbols}")
        tgt, support = split_head(tail)
        keyword, body = split_head(support)
        if keyword.upper() != "SUPPORT":
            raise FormatError("filter must declare a SUPPORT set")
        branch = SupportFilter(frozenset(_parse_brace_group(body, "filter support").split()))
        ends = (parse_number(src.strip()), parse_number(tgt))
        filters.setdefault(ends, []).append(branch)
        return ("FILTER", *ends, len(filters[ends]) - 1), ends

    alphabet, terminal, tubes, axioms, at = parse_system(
        text, "TTS", "TUBES", {"OUTPUT": on_output, "RULE": on_rule, "FILTER": on_filter})
    if alphabet is None or tubes is None:
        raise FormatError("system must declare ALPHABET and TUBES")
    system = TestTubeSystem(
        alphabet=alphabet,
        terminal=terminal,
        tubes=tubes,
        axioms=tuple(frozenset(axioms.get(i, set())) for i in range(1, tubes + 1)),
        rules=tuple(tuple(rules.get(i, [])) for i in range(1, tubes + 1)),
        filters=tuple(
            (i, TubeFilter(tuple(branches)), j) for (i, j), branches in sorted(filters.items())
        ),
        outputs=outputs,
    )
    problems = _problems(system)
    if problems:
        raise FormatError(located(problems, at))
    return system


def load_tts(path: str | Path) -> TestTubeSystem:
    return parse_tts(Path(path).read_text(encoding="utf-8"))
