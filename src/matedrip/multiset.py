"""Finite multisets of named symbols and their canonical text form.

Every vesicle in the toolkit carries exactly one multiset; all set-valued
containers key on the canonical rendering, so values are immutable and
hash-stable.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

RESERVED_PREFIX = "@"

# Structural characters of the rule/system grammars; symbol names must avoid
# them (plus whitespace) so every file round-trips.
_FORBIDDEN = frozenset("{};,|^()#")


class MultisetError(ValueError):
    """Malformed symbol name, count or multiset text."""


def is_number(token: str) -> bool:
    """Whether `token` is a numeral of ASCII digits only.

    str.isdigit alone passes digits such as '²' that int() rejects, and
    int() alone accepts '1_0', '+1' and non-ASCII decimal digits.
    """
    return token.isascii() and token.isdigit()


def check_symbol(name: str) -> str:
    """Validate a symbol name and return it unchanged."""
    if not name or name == ".":
        raise MultisetError(f"invalid symbol name: {name!r}")
    for ch in name:
        if ch.isspace() or ch in _FORBIDDEN:
            raise MultisetError(f"symbol {name!r} contains forbidden character {ch!r}")
    return name


def is_reserved(name: str) -> bool:
    """Names starting with '@' are reserved for generated symbols."""
    return name.startswith(RESERVED_PREFIX)


class Multiset:
    """Immutable mapping from symbol names to positive counts."""

    __slots__ = ("_items", "_size", "_text", "_hash")

    def __init__(self, counts: Iterable = ()):
        acc: dict[str, int] = {}
        pairs = counts.items() if hasattr(counts, "items") else counts
        for name, count in pairs:
            if not isinstance(count, int) or count < 0:
                raise MultisetError(f"count for {name!r} must be a non-negative integer")
            if count:
                check_symbol(name)
                acc[name] = acc.get(name, 0) + count
        self._items = tuple(sorted(acc.items()))
        self._size = sum(c for _, c in self._items)
        self._text: str | None = None
        self._hash: int | None = None

    @classmethod
    def of(cls, *names: str) -> "Multiset":
        """Build from symbol occurrences: of("a", "a", "b") = {a^2, b}."""
        acc: dict[str, int] = {}
        for name in names:
            acc[name] = acc.get(name, 0) + 1
        return cls(acc)

    @classmethod
    def _wrap(cls, items: tuple, size: int) -> "Multiset":
        """Internal fast path: `items` already sorted, counts positive, names
        valid.  `size` must be the sum of the counts; every caller knows it
        from its operands, so it is not recomputed, and a wrong one would
        silently change what `Bounds.admits`."""
        m = object.__new__(cls)
        m._items = items
        m._size = size
        m._text = None
        m._hash = None
        return m

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self._items)

    def count(self, name: str) -> int:
        for n, c in self._items:
            if n == name:
                return c
        return 0

    @property
    def support(self) -> frozenset[str]:
        return frozenset(n for n, _ in self._items)

    def contains(self, sub: "Multiset") -> bool:
        """True iff every count in sub is covered by this multiset."""
        counts = dict(self._items)
        for n, c in sub._items:
            if counts.get(n, 0) < c:
                return False
        return True

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "Multiset") -> "Multiset":
        if not other._items:
            return self
        if not self._items:
            return other
        acc = dict(self._items)
        for n, c in other._items:
            acc[n] = acc.get(n, 0) + c
        return Multiset._wrap(tuple(sorted(acc.items())), self._size + other._size)

    def minus(self, other: "Multiset") -> "Multiset | None":
        """Pointwise difference, or None when other is not contained."""
        acc = dict(self._items)
        for n, c in other._items:
            have = acc.get(n, 0)
            if have < c:
                return None
            if have == c:
                del acc[n]
            else:
                acc[n] = have - c
        return Multiset._wrap(tuple(sorted(acc.items())), self._size - other._size)

    def splits(self) -> list[tuple["Multiset", "Multiset"]]:
        """All ordered pairs (s, w) with s + w equal to this multiset.

        Exactly prod(count_i + 1) pairs, ordered lexicographically by the
        canonical rendering of the first component.
        """
        names = [n for n, _ in self._items]
        ranges = [range(c + 1) for _, c in self._items]
        pairs = []
        for choice in product(*ranges):
            first = Multiset._wrap(tuple((n, c) for n, c in zip(names, choice) if c),
                                   sum(choice))
            second = self.minus(first)
            pairs.append((first, second))
        pairs.sort(key=lambda pq: pq[0].render())
        return pairs

    # -- text form -------------------------------------------------------

    def render(self) -> str:
        """Canonical text: sorted `name` / `name^count` tokens, '.' if empty."""
        if self._text is None:
            if not self._items:
                self._text = "."
            else:
                self._text = " ".join(
                    f"{n}^{c}" if c > 1 else n for n, c in self._items
                )
        return self._text

    @classmethod
    def parse(cls, text: str) -> "Multiset":
        """Parse the canonical grammar; repeated names accumulate."""
        text = text.strip()
        if not text or text == ".":
            return EMPTY
        acc: dict[str, int] = {}
        for token in text.split():
            name, sep, suffix = token.partition("^")
            if sep:
                if not is_number(suffix):
                    raise MultisetError(f"malformed count in token {token!r}")
                try:
                    count = int(suffix)
                except ValueError:  # past int's digit limit
                    raise MultisetError(f"count of {name!r} has {len(suffix)} digits") from None
                if count <= 0:
                    raise MultisetError(f"count must be positive in token {token!r}")
            else:
                count = 1
            check_symbol(name)
            acc[name] = acc.get(name, 0) + count
        return cls(acc)

    # -- value semantics --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Multiset) and self._items == other._items

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._items)
        return self._hash

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Multiset.parse({self.render()!r})"


EMPTY = Multiset()
