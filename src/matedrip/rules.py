"""Mate and drip operations on vesicles.

A mate rule (u|a,b|v;x) fuses a vesicle s+u+a with a vesicle b+v+w into
s+u+x+v+w.  A drip rule (u|c|v;y,z) splits a vesicle s+u+c+v+w into s+u+y
and z+v+w, the residual dividing arbitrarily between s and w.  The
one-sided variant keeps the whole residual on the first output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .multiset import EMPTY, Multiset, MultisetError


class RuleError(ValueError):
    """Malformed rule text."""


def _delta(gain: Multiset, *losses: Multiset) -> tuple[tuple[str, int], ...]:
    """gain - losses as sorted (name, signed count) pairs, zeros left out:
    the `delta` argument of Multiset.shifted."""
    acc = dict(gain)
    for loss in losses:
        for n, c in loss:
            acc[n] = acc.get(n, 0) - c
    return tuple(sorted((n, c) for n, c in acc.items() if c))


@dataclass(frozen=True)
class MateRule:
    """(u | a , b | v ; x): fuse two vesicles, replacing a+b by x."""

    u: Multiset
    a: Multiset
    b: Multiset
    v: Multiset
    x: Multiset

    def __post_init__(self):
        object.__setattr__(self, "_left_need", self.u + self.a)
        object.__setattr__(self, "_right_need", self.b + self.v)
        object.__setattr__(self, "_delta", _delta(self.x, self.a, self.b))
        object.__setattr__(self, "_dsize", len(self.x) - len(self.a) - len(self.b))

    @property
    def weight(self) -> int:
        return len(self.u) + len(self.a) + len(self.b) + len(self.v) + len(self.x)

    def symbols(self) -> frozenset[str]:
        return (self.u.support | self.a.support | self.b.support
                | self.v.support | self.x.support)

    def render(self) -> str:
        return f"MATE ({self.u} | {self.a} , {self.b} | {self.v} ; {self.x})"


@dataclass(frozen=True)
class DripRule:
    """(u | c | v ; y , z): split one vesicle in two, replacing c by y and z."""

    u: Multiset
    c: Multiset
    v: Multiset
    y: Multiset
    z: Multiset
    one_sided: bool = False

    def __post_init__(self):
        object.__setattr__(self, "_need", self.u + self.c + self.v)
        object.__setattr__(self, "_delta", _delta(self.y, self.c, self.v))
        object.__setattr__(self, "_dsize", len(self.y) - len(self.c) - len(self.v))
        object.__setattr__(self, "_first", self.u + self.y)
        object.__setattr__(self, "_second", self.z + self.v)

    @property
    def weight(self) -> int:
        return len(self.u) + len(self.c) + len(self.v) + len(self.y) + len(self.z)

    def symbols(self) -> frozenset[str]:
        return (self.u.support | self.c.support | self.v.support
                | self.y.support | self.z.support)

    def render(self) -> str:
        kind = "DRIP1" if self.one_sided else "DRIP"
        return f"{kind} ({self.u} | {self.c} | {self.v} ; {self.y} , {self.z})"


Rule = MateRule | DripRule


@dataclass(frozen=True)
class RestrictionProfile:
    """Which of the three classical restrictions a rule satisfies.

    singleton_sites:     a, b (mate) or c (drip) are single symbols
    empty_second_parts:  b (mate) or z (drip) is empty
    nonempty_contexts:   v is nonempty and u+x (mate) or u (drip) is nonempty
    """

    singleton_sites: bool
    empty_second_parts: bool
    nonempty_contexts: bool


def classify(rule: Rule) -> RestrictionProfile:
    if isinstance(rule, MateRule):
        return RestrictionProfile(
            singleton_sites=len(rule.a) == 1 and len(rule.b) == 1,
            empty_second_parts=len(rule.b) == 0,
            nonempty_contexts=len(rule.v) > 0 and len(rule.u) + len(rule.x) > 0,
        )
    return RestrictionProfile(
        singleton_sites=len(rule.c) == 1,
        empty_second_parts=len(rule.z) == 0,
        nonempty_contexts=len(rule.v) > 0 and len(rule.u) > 0,
    )


def apply_mate(rule: MateRule, v1: Multiset, v2: Multiset) -> Multiset | None:
    """Fuse v1 and v2, or None when the rule does not apply."""
    if not v1.contains(rule._left_need) or not v2.contains(rule._right_need):
        return None
    return fuse(rule, v1, v2)


def fuse(rule: MateRule, v1: Multiset, v2: Multiset) -> Multiset:
    """Fuse v1 and v2, which the caller knows the rule applies to.

    The result (v1 - a) + x + (v2 - b) is one merge of v1 and v2 shifted by
    the rule's precomputed x - a - b.  The kernel checks only that no count
    goes below zero (MultisetError); it does not test the rule's needs.
    """
    return v1.shifted(v2, rule._delta, rule._dsize)


def apply_drip(rule: DripRule, vesicle: Multiset) -> list[tuple[Multiset, Multiset]]:
    """All outcomes of a two-sided drip, deduplicated, in canonical order."""
    if rule.one_sided:
        raise ValueError("apply_drip expects a two-sided rule; use apply_drip1")
    if not vesicle.contains(rule._need):
        return []
    residual = vesicle.minus(rule._need)
    seen = set()
    out = []
    for s, w in residual.splits():
        pair = (s + rule._first, rule._second + w)
        if pair not in seen:
            seen.add(pair)
            out.append(pair)
    out.sort(key=lambda pq: (pq[0].render(), pq[1].render()))
    return out


def apply_drip1(rule: DripRule, vesicle: Multiset) -> tuple[Multiset, Multiset] | None:
    """One-sided drip: the whole residual joins the first output vesicle.

    The outputs are (vesicle - (u + c + v)) + u + y, which is the vesicle
    shifted by the rule's precomputed y - c - v, and the rule's constant
    z + v; None when the vesicle lacks u + c + v.
    """
    if not vesicle.contains(rule._need):
        return None
    return (vesicle.shifted(EMPTY, rule._delta, rule._dsize), rule._second)


# -- rule text grammar -----------------------------------------------------


def _slot(text: str) -> Multiset:
    text = text.strip()
    if not text or text == ".":
        return EMPTY
    try:
        return Multiset.parse(text)
    except MultisetError as exc:
        raise RuleError(str(exc)) from None


def _split1(text: str, sep: str, what: str) -> tuple[str, str]:
    parts = text.split(sep)
    if len(parts) != 2:
        raise RuleError(f"expected exactly one {sep!r} in {what}: {text!r}")
    return parts[0], parts[1]


def parse_rule(text: str) -> Rule:
    """Parse `MATE (u | a , b | v ; x)` or `DRIP[1] (u | c | v ; y , z)`."""
    text = text.strip()
    head, sep, body = text.partition("(")
    kind = head.strip().upper()
    if not sep or not body.rstrip().endswith(")"):
        raise RuleError(f"rule must be KIND ( ... ): {text!r}")
    inner = body.rstrip()[:-1]
    if kind == "MATE":
        left, right = _split1(inner, ";", "mate rule")
        first, second = _split1(left, ",", "mate rule")
        u, a = _split1(first, "|", "mate left side")
        b, v = _split1(second, "|", "mate right side")
        return MateRule(_slot(u), _slot(a), _slot(b), _slot(v), _slot(right))
    if kind in ("DRIP", "DRIP1"):
        left, right = _split1(inner, ";", "drip rule")
        parts = left.split("|")
        if len(parts) != 3:
            raise RuleError(f"drip left side must be u | c | v: {left!r}")
        y, z = _split1(right, ",", "drip targets")
        return DripRule(_slot(parts[0]), _slot(parts[1]), _slot(parts[2]),
                        _slot(y), _slot(z), one_sided=(kind == "DRIP1"))
    raise RuleError(f"unknown rule kind {kind!r}")
