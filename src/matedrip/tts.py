"""Test tube systems over sets of vesicles, with bounded closure semantics.

Tubes hold sets of multiset-carrying vesicles.  Rules act inside tubes and
never remove anything; vesicles whose support fits a filter flow to the
target tube while copies remain.  The engine computes the least fixpoint of
that monotone operator, truncated by explicit exploration bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .engine import (
    Bounds, Codec, OperandIndex, admissible, decode_compartments, fill, lazy_field,
    rule_productions)
from .engine import drip1 as apply_drip1, drip2 as apply_drip
from .multiset import Multiset, is_number
from .rules import Rule, apply_mate, parse_rule

# bench/tracer.py wraps the module attributes apply_drip1 and apply_drip
# (here the packed one-sided and two-sided drips) and apply_mate.  The
# closure looks the first two up when it starts and calls them once per
# drip firing; no engine calls apply_mate.


class FormatError(ValueError):
    """Malformed system text."""


@dataclass(frozen=True)
class SupportFilter:
    """Passes a vesicle iff every carried symbol lies in `allowed`."""

    allowed: frozenset[str]

    def passes(self, vesicle: Multiset) -> bool:
        return vesicle.support <= self.allowed


@dataclass(frozen=True)
class TubeFilter:
    """Finite union of support filters; passes iff some branch passes."""

    branches: tuple[SupportFilter, ...]

    def passes(self, vesicle: Multiset) -> bool:
        return any(b.passes(vesicle) for b in self.branches)


@dataclass
class TestTubeSystem:
    __test__ = False  # not a pytest class despite the name

    alphabet: frozenset[str]
    terminal: frozenset[str]
    tubes: int
    axioms: tuple[frozenset[Multiset], ...]          # [i] = tube i+1
    rules: tuple[tuple[Rule, ...], ...]              # [i] = tube i+1
    filters: tuple[tuple[int, TubeFilter, int], ...]  # (source, filter, target), 1-based
    outputs: frozenset[int]


@dataclass
class TTSState:
    """A closure state.  A state `closure` returns holds its tubes packed;
    `contents` is decoded on first read and then kept, and assigning it
    drops the packed form."""

    contents: tuple[frozenset[Multiset], ...]
    pruned: bool
    iterations: int
    _packed: "_Packed | None" = field(default=None, init=False, repr=False, compare=False)

    @property
    def population(self) -> int:
        return sum(map(len, self.contents if self._packed is None else self._packed.tubes))


class _Packed:
    """A closure state's tubes as sets of packed vesicles, with their codec
    and the vesicles a capped fill decoded.  Decoding empties the sets, so
    the decoded tubes take their place, for any copy of the state that
    shares this form."""

    __slots__ = ("codec", "tubes", "decoded")

    def __init__(self, codec: Codec, tubes: list[set[int]], decoded: dict[int, Multiset]):
        self.codec = codec  # None once the tubes are decoded
        self.tubes = tubes
        self.decoded = decoded

    def contents(self) -> tuple[frozenset[Multiset], ...]:
        if self.codec is not None:
            self.tubes = decode_compartments(self.codec, self.tubes, self.decoded)
            self.codec = self.decoded = None
        return self.tubes


TTSState.contents = lazy_field("contents", _Packed.contents)


def validate_tts(system: TestTubeSystem) -> list[str]:
    problems = []
    n = system.tubes
    if n < 1:
        problems.append("tube count must be positive")
    if len(system.axioms) != n or len(system.rules) != n:
        problems.append("axiom/rule sequences must have one entry per tube")
    if not system.terminal <= system.alphabet:
        problems.append("terminal alphabet must be a subset of the alphabet")
    for i in system.outputs:
        if not 1 <= i <= n:
            problems.append(f"output tube {i} out of range")
    for t, axioms in enumerate(system.axioms, start=1):
        for ax in axioms:
            extra = ax.support - system.alphabet
            if extra:
                problems.append(f"tube {t} axiom {ax} uses symbols outside the alphabet: {sorted(extra)}")
    for t, rules in enumerate(system.rules, start=1):
        for rule in rules:
            extra = rule.symbols() - system.alphabet
            if extra:
                problems.append(f"tube {t} rule {rule.render()} uses symbols outside the alphabet: {sorted(extra)}")
    for i, filt, j in system.filters:
        if not (1 <= i <= n and 1 <= j <= n):
            problems.append(f"filter ({i} -> {j}) references a tube out of range")
        if i == j:
            problems.append(f"filter ({i} -> {j}) must connect two distinct tubes")
        for branch in filt.branches:
            extra = branch.allowed - system.alphabet
            if extra:
                problems.append(f"filter ({i} -> {j}) uses symbols outside the alphabet: {sorted(extra)}")
    return problems


def _productions(system: TestTubeSystem, contents, max_size: int) -> set[tuple[int, Multiset]]:
    """Everything one application step could add that fits `max_size`,
    computed from scratch.

    The codec's fields are sized from the contents too, as `tp._pack`
    does: a size bounds every count, and `OperandIndex.extend` needs each
    size below 2**width - 1.
    """
    largest = max((len(v) for tube in contents for v in tube), default=0)
    codec = Codec(system.alphabet, [r for rules in system.rules for r in rules],
                  max(largest, max_size))
    bounds = Bounds(max_size=max_size)
    kernels = (apply_drip1, apply_drip)
    out: set[tuple[int, Multiset]] = set()
    for t in range(system.tubes):
        if contents[t]:
            pool = set(map(codec.encode, contents[t]))
            index = OperandIndex(codec, map(codec.compile, system.rules[t]))
            index.extend(pool)
            produced: set[int] = set()
            rule_productions(index, pool, produced, bounds, codec, kernels)
            out.update((t, codec.decode(v)) for v in produced)
    for i, filt, j in system.filters:
        for v in contents[i - 1]:
            if filt.passes(v):
                out.add((j - 1, v))
    return out


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
    codec = Codec(system.alphabet, [r for rules in system.rules for r in rules], bounds.max_size)
    contents, decoded, pruned, iterations = _explore(system, bounds, codec)
    state = object.__new__(TTSState)
    state.pruned, state.iterations = pruned, iterations
    state._packed = _Packed(codec, contents, decoded)
    return state


def _explore(system: TestTubeSystem, bounds: Bounds, codec: Codec) -> tuple:
    """The closure on packed vesicles: (tubes, the vesicles a capped fill
    decoded, pruned, iterations).  The operand indexes and the round's sets
    are dropped on return."""
    kernels = (apply_drip1, apply_drip)  # looked up per call, so bench/tracer.py sees them
    contents: list[set[int]] = [set() for _ in range(system.tubes)]
    indexes = [OperandIndex(codec, map(codec.compile, rules)) for rules in system.rules]
    filters = [(i - 1, codec.filter(filt), j - 1) for i, filt, j in system.filters]
    decoded: dict[int, Multiset] = {}  # what a capped fill decoded

    def admit(fresh: list[set[int]]) -> list[set[int]]:
        # the new frontier; empty when the population cap stopped the fill
        nonlocal pruned
        placed, cut = fill(fresh, bounds, sum(map(len, contents)), codec, decoded)
        for tube, index, new in zip(contents, indexes, placed):
            if new:
                tube |= new
                index.extend(new)
        if cut:
            pruned = True
            return []
        return fresh

    initial, pruned = admissible(
        ((t, v) for t in range(system.tubes) for v in system.axioms[t]), bounds)
    fresh: list[set[int]] = [set() for _ in range(system.tubes)]
    for t, v in initial:
        fresh[t].add(codec.encode(v))
    frontier = admit(fresh)

    iterations = 0
    while frontier:
        produced: list[set[int]] = [set() for _ in range(system.tubes)]
        for t, new in enumerate(frontier):
            if new and rule_productions(indexes[t], new, produced[t], bounds, codec, kernels):
                pruned = True
        for i, forbidden, j in filters:
            for mask in forbidden:
                produced[j].update([v for v in frontier[i] if not v & mask])
        fresh = [p - c for p, c in zip(produced, contents)]
        if not any(fresh):
            break
        if iterations >= bounds.max_iterations:
            pruned = True
            break
        iterations += 1
        frontier = admit(fresh)
    return contents, decoded, pruned, iterations


def is_fixpoint(system: TestTubeSystem, state: TTSState, bounds: Bounds) -> bool:
    """True when no admissible rule result or filter passage is missing."""
    return not any(v not in state.contents[t] and bounds.admits(v)
                   for t, v in _productions(system, state.contents, bounds.max_size))


def results_of_state(system: TestTubeSystem, state: TTSState) -> set[Multiset]:
    """Terminal-support vesicles sitting in the output tubes.  Of a state
    whose tubes are still packed, only these vesicles are decoded."""
    packed = state._packed
    if packed is None or packed.codec is None:
        return {v for f in system.outputs for v in state.contents[f - 1]
                if v.support <= system.terminal}
    codec, decoded = packed.codec, packed.decoded
    # the codec's own names, so the test is support <= terminal for any system
    nonterminal = codec.mask(set(codec.names) - system.terminal)
    return {decoded[v] if v in decoded else codec.decode(v)
            for f in system.outputs for v in packed.tubes[f - 1] if not v & nonterminal}


def results(system: TestTubeSystem, bounds: Bounds) -> set[Multiset]:
    return results_of_state(system, closure(system, bounds))


# -- text format -------------------------------------------------------------


def render_tts(system: TestTubeSystem) -> str:
    lines = ["SYSTEM TTS"]
    lines.append("ALPHABET " + " ".join(sorted(system.alphabet)))
    lines.append("TERMINAL " + " ".join(sorted(system.terminal)))
    lines.append(f"TUBES {system.tubes}")
    lines.append("OUTPUT " + " ".join(str(i) for i in sorted(system.outputs)))
    for t in range(system.tubes):
        for ax in sorted(system.axioms[t], key=Multiset.render):
            lines.append(f"AXIOM {t + 1} {{{ax}}}")
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


def parse_number(token: str) -> int:
    """A count or compartment index, which must be ASCII digits."""
    if not is_number(token):
        raise FormatError(f"expected a number, got {token!r}")
    return int(token)


def split_head(text: str) -> tuple[str, str]:
    """(first word, stripped rest) of `text`, split on any whitespace."""
    words = text.split(None, 1)
    return (words[0], words[1].strip()) if len(words) == 2 else (text.strip(), "")


def directives(text: str):
    """(line number, upper-cased head, rest) of every line that is not blank
    once its `#` comment is stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            head, rest = split_head(line)
            yield lineno, head.upper(), rest


# The most compartments a system file may declare: each is allocated when
# the file is parsed, and decoding a closure state's tubes compares every
# pair of them.
MAX_COMPARTMENTS = 1000

# The only directives a system file may give more than once.
_REPEATABLE = frozenset({"AXIOM", "RULE", "FILTER"})


def parse_system(text: str, kind: str, count_head: str, handlers: dict) -> tuple:
    """The skeleton shared by the `.tts` and `.tp` line formats.

    Strips `#` comments, checks `SYSTEM kind` and reads ALPHABET, TERMINAL,
    the compartment count `count_head` (at most MAX_COMPARTMENTS) and AXIOM
    lines.  Every other head goes to `handlers[head](rest)`, which returns
    the compartment indices the line names.  Only AXIOM, RULE and FILTER
    lines may repeat.  Errors carry their line number, and so does a
    compartment index out of range once the count is known.  Returns
    (alphabet, terminal, count, axioms by compartment index); the alphabet
    and count are None when undeclared.
    """
    alphabet = count = None
    terminal: frozenset[str] = frozenset()
    axioms: dict[int, set[Multiset]] = {}
    named: list[tuple[int, int]] = []  # (compartment index, line number)
    seen: set[str] = set()
    for lineno, head, rest in directives(text):
        try:
            if head in seen:
                raise FormatError(f"duplicate {head} line")
            if head not in _REPEATABLE:
                seen.add(head)
            if head == "SYSTEM":
                if rest.upper() != kind:
                    raise FormatError(f"expected SYSTEM {kind}, got {rest!r}")
            elif head == "ALPHABET":
                alphabet = frozenset(rest.split())
            elif head == "TERMINAL":
                terminal = frozenset(rest.split())
            elif head == count_head:
                count = parse_number(rest)
                if count > MAX_COMPARTMENTS:
                    raise FormatError(f"{count_head} {count} is over the limit of {MAX_COMPARTMENTS}")
            elif head == "AXIOM":
                idx, body = split_head(rest)
                idx = parse_number(idx)
                axioms.setdefault(idx, set()).add(
                    Multiset.parse(_parse_brace_group(body, "axiom")))
                named.append((idx, lineno))
            elif head in handlers:
                named += [(idx, lineno) for idx in handlers[head](rest)]
            else:
                raise FormatError(f"unknown directive {head!r}")
        except ValueError as exc:  # MultisetError and RuleError included
            raise FormatError(f"line {lineno}: {exc}") from exc
    if count is not None:
        for idx, lineno in named:
            if not 1 <= idx <= count:
                raise FormatError(f"line {lineno}: index {idx} out of range for {count_head} {count}")
    return alphabet, terminal, count, axioms


def parse_tts(text: str) -> TestTubeSystem:
    outputs: frozenset[int] = frozenset()
    rules: dict[int, list[Rule]] = {}
    filters: dict[tuple[int, int], list[SupportFilter]] = {}

    def on_output(rest):
        nonlocal outputs
        outputs = frozenset(parse_number(tok) for tok in rest.split())
        return outputs

    def on_rule(rest):
        idx, body = split_head(rest)
        idx = parse_number(idx)
        rules.setdefault(idx, []).append(parse_rule(body))
        return (idx,)

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
        return ends

    alphabet, terminal, tubes, axioms = parse_system(
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
    problems = validate_tts(system)
    if problems:
        raise FormatError("; ".join(problems))
    return system


def load_tts(path: str | Path) -> TestTubeSystem:
    return parse_tts(Path(path).read_text(encoding="utf-8"))
