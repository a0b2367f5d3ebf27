"""Test tube systems over sets of vesicles, with bounded closure semantics.

Tubes hold sets of multiset-carrying vesicles.  Rules act inside tubes and
never remove anything; vesicles whose support fits a filter flow to the
target tube while copies remain.  The engine computes the least fixpoint of
that monotone operator, truncated by explicit exploration bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .multiset import Multiset, MultisetError
from .rules import (  # apply_mate stays a module attribute for bench/tracer.py
    MateRule, Rule, RuleError, apply_drip, apply_drip1, apply_mate, fuse, parse_rule)


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
    """Vesicles of a pool bucketed for operand lookup.

    `buckets` maps each carried symbol to the vesicles carrying it, for the
    drip rules.  `operands` maps each mate rule given at construction to its
    (left, right) operands, each a size -> vesicles map, for the join.  A
    vesicle's counts are built once when it is added and tested once
    against each mate rule's two needs.  Buckets are filled in addition
    order, so the vesicles added last form the tail of every bucket.
    """

    def __init__(self, pool=(), rules=()):
        self.pool: list[Multiset] = []
        self.buckets: dict[str, list[Multiset]] = {}
        self.operands: dict[MateRule, tuple[dict, dict]] = {
            rule: ({}, {}) for rule in rules if isinstance(rule, MateRule)}
        self._needs = [(tuple(rule._left_need), tuple(rule._right_need), lefts, rights)
                       for rule, (lefts, rights) in self.operands.items()]
        for v in pool:
            self.add(v)

    def add(self, vesicle: Multiset):
        self.pool.append(vesicle)
        for name in vesicle.support:
            self.buckets.setdefault(name, []).append(vesicle)
        if self._needs:
            counts = dict(vesicle)
            size = len(vesicle)
            for left_need, right_need, lefts, rights in self._needs:
                if all(counts.get(n, 0) >= c for n, c in left_need):
                    lefts.setdefault(size, []).append(vesicle)
                if all(counts.get(n, 0) >= c for n, c in right_need):
                    rights.setdefault(size, []).append(vesicle)

    def candidates(self, need: Multiset) -> list[Multiset]:
        if not len(need):
            return self.pool
        best = None
        for name in need.support:
            bucket = self.buckets.get(name)
            if bucket is None:
                return []
            if best is None or len(bucket) < len(best):
                best = bucket
        return best


def _split_frontier(by_size: dict, frontier) -> tuple[dict, dict]:
    """(old, new) parts of a size -> vesicles map, the new part being the
    frontier vesicles at the tail of each bucket.  Empty parts are left out."""
    old, new = {}, {}
    for size, bucket in by_size.items():
        i = len(bucket)
        while i and bucket[i - 1] in frontier:
            i -= 1
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


def _rule_productions(rules, index: _SymbolIndex, frontier, sink, max_size, truncated):
    """Rule results inside one tube involving at least one frontier vesicle.

    Mates are evaluated semi-naively over the index's size buckets: new left
    operands against every right operand, then old left operands against
    new right operands.  The frontier must be the vesicles added to the
    index last.  Only pairs whose fusion fits `max_size` are fused;
    `truncated` (a one-element list) is set when an applicable pair was left
    out for size.  Drips only ever see one operand, so only frontier
    vesicles fire.
    """
    for rule in rules:
        if isinstance(rule, MateRule):
            lefts, rights = index.operands[rule]
            old_lefts, new_lefts = _split_frontier(lefts, frontier)
            _, new_rights = _split_frontier(rights, frontier)
            for left, right in ((new_lefts, rights), (old_lefts, new_rights)):
                if _join(rule, left, right, max_size, sink):
                    truncated[0] = True
        elif rule.one_sided:
            for v in index.candidates(rule._need):
                if v in frontier:
                    outcome = apply_drip1(rule, v)
                    if outcome is not None:
                        sink(outcome[0])
                        sink(outcome[1])
        else:
            for v in index.candidates(rule._need):
                if v in frontier:
                    for p, q in apply_drip(rule, v):
                        sink(p)
                        sink(q)


def _productions(system: TestTubeSystem, contents, max_size=None) -> set[tuple[int, Multiset]]:
    """Everything one application step could add, computed from scratch."""
    cap = 10**9 if max_size is None else max_size
    out: set[tuple[int, Multiset]] = set()
    for t in range(system.tubes):
        if contents[t]:
            pool = set(contents[t])
            _rule_productions(system.rules[t], _SymbolIndex(pool, system.rules[t]), pool,
                              lambda v, t=t: out.add((t, v)), cap, [False])
    for i, filt, j in system.filters:
        for v in contents[i - 1]:
            if filt.passes(v):
                out.add((j - 1, v))
    return out


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
    pruned = False
    population = 0

    def admit(batch) -> list[set[Multiset]]:
        # deterministic fill order; returns an empty frontier when the
        # population cap stopped the fill
        nonlocal pruned, population
        added: list[set[Multiset]] = [set() for _ in range(system.tubes)]
        for t, v in sorted(batch, key=lambda tv: (tv[0], tv[1].render())):
            if population >= bounds.max_population:
                pruned = True
                return []
            contents[t].add(v)
            indexes[t].add(v)
            added[t].add(v)
            population += 1
        return added

    initial = []
    for t in range(system.tubes):
        for v in system.axioms[t]:
            if len(v) > bounds.max_size:
                pruned = True
            elif len(v) == 0 and not bounds.keep_empty:
                pass
            else:
                initial.append((t, v))
    frontier = admit(initial)

    iterations = 0
    while frontier:
        produced: set[tuple[int, Multiset]] = set()
        truncated = [pruned]
        for t in range(system.tubes):
            if frontier[t]:
                _rule_productions(system.rules[t], indexes[t], frontier[t],
                                  lambda v, t=t: produced.add((t, v)),
                                  bounds.max_size, truncated)
        pruned = truncated[0]
        for i, filt, j in system.filters:
            for v in frontier[i - 1]:
                if filt.passes(v):
                    produced.add((j - 1, v))
        fresh = []
        for t, v in produced:
            if v in contents[t]:
                continue
            if len(v) > bounds.max_size:
                pruned = True
            elif len(v) == 0 and not bounds.keep_empty:
                pass
            else:
                fresh.append((t, v))
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
    for t, v in _productions(system, state.contents, bounds.max_size):
        if v in state.contents[t]:
            continue
        if len(v) > bounds.max_size:
            continue
        if len(v) == 0 and not bounds.keep_empty:
            continue
        return False
    return True


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


def _parse_symbols(text: str) -> frozenset[str]:
    return frozenset(text.split())


def parse_tts(text: str) -> TestTubeSystem:
    alphabet: frozenset[str] | None = None
    terminal: frozenset[str] | None = None
    tubes: int | None = None
    outputs: frozenset[int] | None = None
    axioms: dict[int, set[Multiset]] = {}
    rules: dict[int, list[Rule]] = {}
    filters: dict[tuple[int, int], list[SupportFilter]] = {}

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
                if rest.upper() != "TTS":
                    fail(lineno, f"expected SYSTEM TTS, got {rest!r}")
            elif head == "ALPHABET":
                alphabet = _parse_symbols(rest)
            elif head == "TERMINAL":
                terminal = _parse_symbols(rest)
            elif head == "TUBES":
                tubes = int(rest)
            elif head == "OUTPUT":
                outputs = frozenset(int(tok) for tok in rest.split())
            elif head == "AXIOM":
                idx, _, body = rest.partition(" ")
                axioms.setdefault(int(idx), set()).add(
                    Multiset.parse(_parse_brace_group(body, "axiom")))
            elif head == "RULE":
                idx, _, body = rest.partition(" ")
                rules.setdefault(int(idx), []).append(parse_rule(body))
            elif head == "FILTER":
                src, arrow, tail = rest.partition("->")
                if not arrow:
                    fail(lineno, "filter must be FILTER i -> j SUPPORT {symbols}")
                tgt, _, support = tail.strip().partition(" ")
                keyword, _, body = support.strip().partition(" ")
                if keyword.upper() != "SUPPORT":
                    fail(lineno, "filter must declare a SUPPORT set")
                branch = SupportFilter(_parse_symbols(_parse_brace_group(body, "filter support")))
                filters.setdefault((int(src), int(tgt)), []).append(branch)
            else:
                fail(lineno, f"unknown directive {head!r}")
        except (ValueError, MultisetError, RuleError) as exc:
            if isinstance(exc, FormatError):
                raise
            fail(lineno, str(exc))

    if alphabet is None or tubes is None:
        raise FormatError("system must declare ALPHABET and TUBES")
    system = TestTubeSystem(
        alphabet=alphabet,
        terminal=terminal or frozenset(),
        tubes=tubes,
        axioms=tuple(frozenset(axioms.get(i, set())) for i in range(1, tubes + 1)),
        rules=tuple(tuple(rules.get(i, [])) for i in range(1, tubes + 1)),
        filters=tuple(
            (i, TubeFilter(tuple(branches)), j) for (i, j), branches in sorted(filters.items())
        ),
        outputs=outputs or frozenset(),
    )
    problems = validate_tts(system)
    if problems:
        raise FormatError("; ".join(problems))
    return system


def load_tts(path: str | Path) -> TestTubeSystem:
    return parse_tts(Path(path).read_text(encoding="utf-8"))
