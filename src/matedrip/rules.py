"""Mate and drip operations on vesicles, as the paper defines them.

A mate rule (u|a,b|v;x) fuses a vesicle s+u+a with a vesicle b+v+w into
s+u+x+v+w.  A drip rule (u|c|v;y,z) splits a vesicle s+u+c+v+w into s+u+y
and z+v+w, the residual dividing arbitrarily between s and w.  The
one-sided variant keeps the whole residual on the first output.

`apply_mate`, `apply_drip1` and `apply_drip` compute these formulas on
`Multiset`s.  No engine calls them: the engines fire the packed forms of
the rules in engine.py, and the tests hold those against these references.
"""

from __future__ import annotations

import sys

from .multiset import EMPTY, Multiset, MultisetError, value_class


class RuleError(ValueError):
    """Malformed rule text."""


@value_class(frozen=True)
class MateRule:
    """(u | a , b | v ; x): fuse two vesicles, replacing a+b by x."""

    u: Multiset
    a: Multiset
    b: Multiset
    v: Multiset
    x: Multiset

    def __post_init__(self):
        if self.weight > sys.maxsize:  # so len() fits every part and need
            raise RuleError(f"weight {self.weight} is over the limit of {sys.maxsize}")
        object.__setattr__(self, "_left_need", self.u + self.a)
        object.__setattr__(self, "_right_need", self.b + self.v)

    @property
    def weight(self) -> int:
        return len(self.u) + len(self.a) + len(self.b) + len(self.v) + len(self.x)

    def symbols(self) -> frozenset[str]:
        return (self.u.support | self.a.support | self.b.support
                | self.v.support | self.x.support)

    def render(self) -> str:
        return f"MATE ({self.u} | {self.a} , {self.b} | {self.v} ; {self.x})"


@value_class(frozen=True)
class DripRule:
    """(u | c | v ; y , z): split one vesicle in two, replacing c by y and z."""

    u: Multiset
    c: Multiset
    v: Multiset
    y: Multiset
    z: Multiset
    one_sided: bool = False

    def __post_init__(self):
        if self.weight > sys.maxsize:  # so len() fits every part and need
            raise RuleError(f"weight {self.weight} is over the limit of {sys.maxsize}")
        object.__setattr__(self, "_need", self.u + self.c + self.v)

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


def apply_mate(rule: MateRule, v1: Multiset, v2: Multiset) -> Multiset | None:
    """(v1 - a) + x + (v2 - b), or None when v1 lacks u + a or v2 lacks b + v."""
    if not v1.contains(rule._left_need) or not v2.contains(rule._right_need):
        return None
    return v1.minus(rule.a) + rule.x + v2.minus(rule.b)


def apply_drip(rule: DripRule, vesicle: Multiset) -> list[tuple[Multiset, Multiset]]:
    """All outcomes (s + u + y, z + v + w) of a two-sided drip, one per split
    s + w of the residual vesicle - (u + c + v), in canonical order; none
    when the vesicle lacks u + c + v.  The splits have distinct s, so the
    outcomes are distinct."""
    if rule.one_sided:
        raise ValueError("apply_drip expects a two-sided rule; use apply_drip1")
    residual = vesicle.minus(rule._need)
    if residual is None:
        return []
    out = [(s + rule.u + rule.y, rule.z + rule.v + w) for s, w in residual.splits()]
    out.sort(key=lambda pq: (pq[0].render(), pq[1].render()))
    return out


def apply_drip1(rule: DripRule, vesicle: Multiset) -> tuple[Multiset, Multiset] | None:
    """One-sided drip: (residual + u + y, z + v), the whole residual
    vesicle - (u + c + v) joining the first output; None when the vesicle
    lacks u + c + v."""
    residual = vesicle.minus(rule._need)
    if residual is None:
        return None
    return residual + rule.u + rule.y, rule.z + rule.v


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
