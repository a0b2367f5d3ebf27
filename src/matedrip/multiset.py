"""Finite multisets of named symbols and their canonical text form.

Every vesicle in the toolkit carries exactly one multiset; all set-valued
containers key on the canonical rendering, so values are immutable and
hash-stable.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator
from itertools import product
from operator import attrgetter

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
    """Validate a symbol name and return it unchanged.

    A name is printable (`str.isprintable`), holds no space and none of the
    grammars' structural characters, and is neither empty nor '.'.  So no
    name holds a character at or below the space, which joins the tokens
    of a rendered multiset: `engine.fill` orders texts by first token on
    that ground.  The test runs in C string methods, since `validate_tts`
    checks every name of a system on each `closure` call; only a refused
    name is scanned for the character to report.
    """
    if not name or name == ".":
        raise MultisetError(f"invalid symbol name: {name!r}")
    if not (name.isprintable() and " " not in name and _FORBIDDEN.isdisjoint(name)):
        bad = next(ch for ch in name if not ch.isprintable() or ch == " " or ch in _FORBIDDEN)
        raise MultisetError(f"symbol {name!r} contains forbidden character {bad!r}")
    return name


def is_reserved(name: str) -> bool:
    """Names starting with '@' are reserved for generated symbols."""
    return name.startswith(RESERVED_PREFIX)


# -- value classes --------------------------------------------------------


def value_class(cls=None, /, *, frozen: bool = False):
    """Class decorator: a value whose fields are the attributes `cls`
    annotates itself, in order, with their class attributes as defaults.

    Adds `__init__` (by position or keyword, then `__post_init__` where the
    class has one), `__eq__` within one class and `__repr__` as
    `Name(field=value, ...)`.  A frozen class hashes by its fields and
    refuses assignment and deletion with AttributeError; a mutable one is
    unhashable.  It stands in for `dataclasses.dataclass`, whose import and
    code generation took half of importing this package, and has no
    ordering, no `field()` and generates no code: an attribute without an
    annotation is simply not a field.
    """
    if cls is None:
        return lambda cls: value_class(cls, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    # the tuple of the field values, which a dataclass also hashes
    values = attrgetter(*names) if len(names) > 1 else lambda self: tuple(getattr(self, n) for n in names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            given = {**defaults, **dict(zip(names, args)), **kwargs}
            if (len(args) > len(names) or given.keys() != set(names)
                    or not kwargs.keys().isdisjoint(names[:len(args)])):
                raise TypeError(f"{cls.__name__}() takes each of {names} once, got "
                                f"{len(args)} by position and {sorted(kwargs)} by keyword")
            args = [given[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        return values(self) == values(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields})"

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = (lambda self: hash(values(self))) if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


def _refuse(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is frozen: field {name!r} cannot change")


# -- the line skeleton of the .rm, .tts and .tp file formats -----------------


def parse_number(token: str) -> int:
    """A count, index or register number, which must be ASCII digits."""
    if not is_number(token):
        raise MultisetError(f"expected a number, got {token!r}")
    return int(token)


def check_count(error: type, name: str, value, least: int, most: int | None = None) -> None:
    """Refuse, with `error`, a budget or bound that is not an int from
    `least` to `most`: a bool or a float would otherwise pass as one, and
    a value past `most` would let one call work without a limit in sight."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name} must be an int, not {value!r}")
    if value < least:
        raise error(f"{name} must be at least {least}" if least
                    else f"{name} must be non-negative, got {value}")
    if most is not None and value > most:
        raise error(f"{name} {value} is over the limit of {most}")


def split_head(text: str) -> tuple[str, str]:
    """(first word, stripped rest) of `text`, split on any whitespace."""
    words = text.split(None, 1)
    return (words[0], words[1].strip()) if len(words) == 2 else (text.strip(), "")


def directives(text: str):
    """(line number, head, rest) of every line that is not blank once its
    `#` comment is stripped.  The head keeps its case."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, *split_head(line)


def located(problems: list[tuple], at: dict) -> str:
    """One message for (where, problem) pairs: `line N: problem` for each
    `where` that `at` maps to a line N, in line order, then the problems
    of the file as a whole."""
    lines = sorted((at[where], problem) for where, problem in problems if where in at)
    return "; ".join([f"line {n}: {problem}" for n, problem in lines]
                     + [problem for where, problem in problems if where not in at])


def _checked_size(size: int) -> int:
    """`size`, refused with MultisetError above sys.maxsize, which len()
    could not return."""
    if size > sys.maxsize:
        raise MultisetError(f"size {size} is over the limit of {sys.maxsize}")
    return size


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
        self._size = _checked_size(sum(c for _, c in self._items))
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
        silently change what `Bounds.keeps`."""
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
        return Multiset._wrap(tuple(sorted(acc.items())), _checked_size(self._size + other._size))

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
