"""Test tube systems over sets of vesicles, with bounded closure semantics.

Tubes hold sets of multiset-carrying vesicles.  Rules act inside tubes and
never remove anything; vesicles whose support fits a filter flow to the
target tube while copies remain.  The engine computes the least fixpoint of
that monotone operator, truncated by explicit exploration bounds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .multiset import Multiset
from .rules import (  # apply_mate stays a module attribute for bench/tracer.py
    DripRule, MateRule, Rule, apply_drip, apply_drip1, apply_mate, fuse, parse_rule)


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


@dataclass(frozen=True)
class Bounds:
    """Exploration bounds; the unbounded closure is approximated under these."""

    max_size: int = 16
    max_population: int = 50000
    max_iterations: int = 500
    keep_empty: bool = True

    def __post_init__(self):
        if self.max_size < 1 or self.max_population < 1 or self.max_iterations < 1:
            raise ValueError("bounds must be positive")

    def admits(self, vesicle: Multiset) -> bool:
        """Whether exploration keeps `vesicle`: it fits `max_size`, and it is
        non-empty unless `keep_empty` holds."""
        return len(vesicle) <= self.max_size and (self.keep_empty or len(vesicle) > 0)

    def loosened(self) -> "Bounds":
        """Strictly looser bounds, used for result-stability checks."""
        return Bounds(self.max_size + 4, self.max_population * 2,
                      self.max_iterations + 100, self.keep_empty)


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
    contents: tuple[frozenset[Multiset], ...]
    pruned: bool
    iterations: int

    @property
    def population(self) -> int:
        return sum(len(c) for c in self.contents)


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


class _SymbolIndex:
    """The operands of a compartment's rules, kept as vesicles are added.

    `operands[rule]` holds, for a mate rule, its (left, right) operands as
    size -> vesicles maps, and for a drip rule the list of vesicles that
    contain its need.  Each added vesicle joins them once, in addition
    order, so the vesicles added last form the tail of every list.  A
    vesicle is tested only against the needs anchored on one of its
    symbols.  Each need is anchored on its symbol that the fewest needs of
    the index's rules share (ties go to the first name), and a need with no
    symbols is tested against every vesicle.  A rule given twice is indexed
    once.
    """

    def __init__(self, pool=(), rules=()):
        self.operands: dict[Rule, tuple[dict, dict] | list[Multiset]] = {}
        needs: list[tuple[Multiset, dict | list]] = []
        for rule in rules:
            if rule in self.operands:
                continue
            if isinstance(rule, MateRule):
                lefts, rights = self.operands[rule] = ({}, {})
                needs += [(rule._left_need, lefts), (rule._right_need, rights)]
            else:
                self.operands[rule] = bucket = []
                needs.append((rule._need, bucket))
        shares = Counter(name for need, _ in needs for name in need.support)
        self._anchored: dict[str, list] = {}
        self._unanchored: list = []
        for need, operands in needs:
            entry = (tuple(need), operands)
            if len(need):
                anchor = min(need.support, key=lambda name: (shares[name], name))
                self._anchored.setdefault(anchor, []).append(entry)
            else:
                self._unanchored.append(entry)
        for v in pool:
            self.add(v)

    def add(self, vesicle: Multiset):
        counts = dict(vesicle)
        entries = [e for name in counts for e in self._anchored.get(name, ())]
        for need, operands in entries + self._unanchored:
            if all(counts.get(n, 0) >= c for n, c in need):
                if isinstance(operands, list):
                    operands.append(vesicle)
                else:
                    operands.setdefault(len(vesicle), []).append(vesicle)


def _frontier_start(operands: list, frontier) -> int:
    """Where the frontier vesicles at the tail of `operands` begin."""
    i = len(operands)
    while i and operands[i - 1] in frontier:
        i -= 1
    return i


def _split_frontier(by_size: dict, frontier) -> tuple[dict, dict]:
    """(old, new) parts of a size -> vesicles map, the new part being the
    frontier vesicles at the tail of each bucket.  Empty parts are left out."""
    old, new = {}, {}
    for size, bucket in by_size.items():
        i = _frontier_start(bucket, frontier)
        if i:
            old[size] = bucket[:i]
        if i < len(bucket):
            new[size] = bucket[i:]
    return old, new


def _join(rule: MateRule, lefts: dict, rights: dict, max_size: int, sink) -> bool:
    """Fuse every left × right pair whose fusion fits, given size -> operands
    maps; the maps hold only operands the rule applies to.

    Returns whether some pair was left out because its fusion is oversize.
    That follows from the largest sizes alone, so no such pair is visited.
    """
    if not lefts or not rights:
        return False
    room = max_size - len(rule.x) + len(rule.a) + len(rule.b)
    sizes = sorted(rights)
    for lsize, lbucket in lefts.items():
        cap = room - lsize
        for rsize in sizes:
            if rsize > cap:
                break
            for v2 in rights[rsize]:
                for v1 in lbucket:
                    sink(fuse(rule, v1, v2))
    return max(lefts) + sizes[-1] > room


def _drip(rule: DripRule, vesicle: Multiset, sink):
    """Sink both products of every outcome of a drip rule on a vesicle that
    contains its need."""
    if rule.one_sided:
        outcomes = (apply_drip1(rule, vesicle),)
    else:
        outcomes = apply_drip(rule, vesicle)
    for p, q in outcomes:
        sink(p)
        sink(q)


def _rule_productions(index: _SymbolIndex, frontier, sink, max_size, truncated):
    """Results of the index's rules inside one tube that involve at least
    one frontier vesicle; the frontier must be the vesicles added last.

    Mates are evaluated semi-naively over their size buckets: new left
    operands against every right operand, then old left operands against
    new right operands.  Only pairs whose fusion fits `max_size` are fused;
    `truncated` (a one-element list) is set when an applicable pair was left
    out for size.  A drip fires on the frontier tail of its operand list.
    """
    for rule, operands in index.operands.items():
        if isinstance(rule, MateRule):
            lefts, rights = operands
            old_lefts, new_lefts = _split_frontier(lefts, frontier)
            _, new_rights = _split_frontier(rights, frontier)
            for left, right in ((new_lefts, rights), (old_lefts, new_rights)):
                if _join(rule, left, right, max_size, sink):
                    truncated[0] = True
        else:
            for v in operands[_frontier_start(operands, frontier):]:
                _drip(rule, v, sink)


def _productions(system: TestTubeSystem, contents, max_size=None) -> set[tuple[int, Multiset]]:
    """Everything one application step could add, computed from scratch."""
    cap = 10**9 if max_size is None else max_size
    out: set[tuple[int, Multiset]] = set()
    for t in range(system.tubes):
        if contents[t]:
            pool = set(contents[t])
            _rule_productions(_SymbolIndex(pool, system.rules[t]), pool,
                              lambda v, t=t: out.add((t, v)), cap, [False])
    for i, filt, j in system.filters:
        for v in contents[i - 1]:
            if filt.passes(v):
                out.add((j - 1, v))
    return out


def _admissible(batch, bounds: Bounds) -> tuple[list, bool]:
    """The (compartment, vesicle) pairs of `batch` that `bounds` admits, and
    whether one was refused for size: since max_size >= 1, a refused
    vesicle is oversize unless it is empty."""
    admitted, oversize = [], False
    for cv in batch:
        if bounds.admits(cv[1]):
            admitted.append(cv)
        elif len(cv[1]):
            oversize = True
    return admitted, oversize


def _fill(batch, bounds: Bounds, population: int, place) -> bool:
    """place(c, v) each (compartment, vesicle) pair of `batch` in (c, render)
    order while the population stays below max_population.  Returns whether
    the cap stopped the fill."""
    for c, v in sorted(batch, key=lambda cv: (cv[0], cv[1].render())):
        if population >= bounds.max_population:
            return True
        place(c, v)
        population += 1
    return False


def closure(system: TestTubeSystem, bounds: Bounds) -> TTSState:
    """Saturate all tubes under rules and filter passage, within bounds.

    `pruned` is set whenever any bound truncated the exploration: an oversize
    result was dropped, the population cap was hit, or the iteration budget
    ran out before a fixpoint.
    """
    problems = validate_tts(system)
    if problems:
        raise ValueError("invalid system: " + "; ".join(problems))
    contents: list[set[Multiset]] = [set() for _ in range(system.tubes)]
    indexes = [_SymbolIndex(rules=rules) for rules in system.rules]

    def admit(batch) -> list[set[Multiset]]:
        # returns an empty frontier when the population cap stopped the fill
        nonlocal pruned
        added: list[set[Multiset]] = [set() for _ in range(system.tubes)]

        def place(t, v):
            contents[t].add(v)
            indexes[t].add(v)
            added[t].add(v)

        if _fill(batch, bounds, sum(map(len, contents)), place):
            pruned = True
            return []
        return added

    initial, pruned = _admissible(
        ((t, v) for t in range(system.tubes) for v in system.axioms[t]), bounds)
    frontier = admit(initial)

    iterations = 0
    while frontier:
        produced: set[tuple[int, Multiset]] = set()
        truncated = [pruned]
        for t in range(system.tubes):
            if frontier[t]:
                _rule_productions(indexes[t], frontier[t],
                                  lambda v, t=t: produced.add((t, v)),
                                  bounds.max_size, truncated)
        pruned = truncated[0]
        for i, filt, j in system.filters:
            for v in frontier[i - 1]:
                if filt.passes(v):
                    produced.add((j - 1, v))
        fresh, oversize = _admissible(
            ((t, v) for t, v in produced if v not in contents[t]), bounds)
        pruned = pruned or oversize
        if not fresh:
            break
        if iterations >= bounds.max_iterations:
            pruned = True
            break
        iterations += 1
        frontier = admit(fresh)

    return TTSState(tuple(frozenset(c) for c in contents), pruned, iterations)


def is_fixpoint(system: TestTubeSystem, state: TTSState, bounds: Bounds) -> bool:
    """True when no admissible rule result or filter passage is missing."""
    return not any(v not in state.contents[t] and bounds.admits(v)
                   for t, v in _productions(system, state.contents, bounds.max_size))


def results_of_state(system: TestTubeSystem, state: TTSState) -> set[Multiset]:
    """Terminal-support vesicles sitting in the output tubes."""
    return {
        v
        for f in system.outputs
        for v in state.contents[f - 1]
        if v.support <= system.terminal
    }


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
    for i, filt, j in sorted(
        system.filters,
        key=lambda e: (e[0], e[2], tuple(sorted(" ".join(sorted(b.allowed)) for b in e[1].branches))),
    ):
        for branch in sorted(filt.branches, key=lambda b: " ".join(sorted(b.allowed))):
            lines.append(f"FILTER {i} -> {j} SUPPORT {{{' '.join(sorted(branch.allowed))}}}")
    return "\n".join(lines) + "\n"


def _parse_brace_group(text: str, what: str) -> str:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise FormatError(f"{what} must be enclosed in braces: {text!r}")
    return text[1:-1].strip()


def _parse_system(text: str, kind: str, count_head: str, directives: dict) -> tuple:
    """The skeleton shared by the `.tts` and `.tp` line formats.

    Strips `#` comments, checks `SYSTEM kind` and reads ALPHABET, TERMINAL,
    the compartment count `count_head` and AXIOM lines.  Every other head
    goes to `directives[head](rest)`, which returns the compartment index
    the line names, or None.  Errors carry their line number, and so does a
    compartment index out of range once the count is known.  Returns
    (alphabet, terminal, count, axioms by compartment index); the alphabet
    and count are None when undeclared.
    """
    alphabet = count = None
    terminal: frozenset[str] = frozenset()
    axioms: dict[int, set[Multiset]] = {}
    named: list[tuple[int, int]] = []  # (compartment index, line number)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        head = head.upper()
        rest = rest.strip()
        try:
            if head == "SYSTEM":
                if rest.upper() != kind:
                    raise FormatError(f"expected SYSTEM {kind}, got {rest!r}")
            elif head == "ALPHABET":
                alphabet = frozenset(rest.split())
            elif head == "TERMINAL":
                terminal = frozenset(rest.split())
            elif head == count_head:
                count = int(rest)
            elif head == "AXIOM":
                idx, _, body = rest.partition(" ")
                axioms.setdefault(int(idx), set()).add(
                    Multiset.parse(_parse_brace_group(body, "axiom")))
                named.append((int(idx), lineno))
            elif head in directives:
                idx = directives[head](rest)
                if idx is not None:
                    named.append((idx, lineno))
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
        outputs = frozenset(int(tok) for tok in rest.split())

    def on_rule(rest):
        idx, _, body = rest.partition(" ")
        rules.setdefault(int(idx), []).append(parse_rule(body))
        return int(idx)

    def on_filter(rest):
        src, arrow, tail = rest.partition("->")
        if not arrow:
            raise FormatError("filter must be FILTER i -> j SUPPORT {symbols}")
        tgt, _, support = tail.strip().partition(" ")
        keyword, _, body = support.strip().partition(" ")
        if keyword.upper() != "SUPPORT":
            raise FormatError("filter must declare a SUPPORT set")
        branch = SupportFilter(frozenset(_parse_brace_group(body, "filter support").split()))
        filters.setdefault((int(src), int(tgt)), []).append(branch)

    alphabet, terminal, tubes, axioms = _parse_system(
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
