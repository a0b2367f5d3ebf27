"""The engine core shared by the test tube closure and the tissue step.

Both engines work on vesicles packed into Python ints by a per-system
`Codec` (SIMD within a register: Lamport, CACM 1975; Fisher & Dietz, LCPC
1998).  A fusion is then one integer addition, a need test three integer
operations, and equality and hashing are those of ints.  Vesicles are
decoded to `Multiset`s only at the boundary: for a closure state's contents
and a tissue state's contents and result log when they are read, for the
results a closure state is asked for, and for the (compartment, render)
order of a fill that the population cap cuts.  Admission is batched: a
compartment's new vesicles join its operand index in one
`OperandIndex.extend` call, and a fill that fits the cap is a set union.

This module holds the exploration `Bounds`, the codec, the operand index,
the mate join, drip firing, admission, the population-capped fill and the
state fields that decode on first read.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from .multiset import Multiset
from .rules import DripRule, MateRule, Rule


@dataclass(frozen=True)
class Bounds:
    """Exploration bounds; the unbounded closure is approximated under these."""

    max_size: int = 16
    max_population: int = 50000
    max_iterations: int = 500
    keep_empty: bool = True

    def __post_init__(self):
        limits = (self.max_size, self.max_population, self.max_iterations)
        if not all(isinstance(n, int) and n >= 1 for n in limits):
            raise ValueError("bounds must be positive integers")

    def admits(self, vesicle: Multiset) -> bool:
        """Whether exploration keeps `vesicle`: it fits `max_size`, and it is
        non-empty unless `keep_empty` holds."""
        return len(vesicle) <= self.max_size and (self.keep_empty or len(vesicle) > 0)

    def loosened(self) -> "Bounds":
        """Strictly looser bounds, used for result-stability checks."""
        return Bounds(self.max_size + 4, self.max_population * 2,
                      self.max_iterations + 100, self.keep_empty)


class PackedMate:
    """A mate rule over one codec: its packed needs u + a and b + v, and the
    packed x - a - b with its size.  Packing is linear, so the fusion
    (v1 - a) + x + (v2 - b) packs as v1 + v2 + delta."""

    __slots__ = ("rule", "left", "right", "delta", "dsize")

    def __init__(self, codec: "Codec", rule: MateRule):
        encode = codec.encode
        self.rule = rule
        self.left = encode(rule._left_need)
        self.right = encode(rule._right_need)
        self.delta = encode(rule.x) - encode(rule.a) - encode(rule.b)
        self.dsize = len(rule.x) - len(rule.a) - len(rule.b)


class PackedDrip:
    """A drip rule over one codec: its packed need u + c + v with its size,
    the packed y - c - v with its size, and u + y and z + v with theirs."""

    __slots__ = ("rule", "need", "need_size", "delta", "dsize", "first", "first_size",
                 "second", "second_size")

    def __init__(self, codec: "Codec", rule: DripRule):
        encode = codec.encode
        self.rule = rule
        self.need = encode(rule._need)
        self.need_size = len(rule._need)
        self.first = encode(rule.u) + encode(rule.y)
        self.first_size = len(rule.u) + len(rule.y)
        self.delta = encode(rule.y) - encode(rule.c) - encode(rule.v)
        self.dsize = len(rule.y) - len(rule.c) - len(rule.v)
        self.second = encode(rule.z) + encode(rule.v)
        self.second_size = len(rule.z) + len(rule.v)


class Codec:
    """Packs the multisets over one alphabet into ints.

    Each symbol, in sorted-name order, owns a field of `width` bits, and the
    top bit of each field is a guard bit, zero in every packed vesicle.
    With `largest` bounding every count of an operand and of every fusion
    the engine keeps, and W the heaviest rule weight, the width is
    (largest + W).bit_length() + 1, so every count the engine computes
    stays below its guard bit:

    - a kept fusion fits max_size, and `largest` >= max_size;
    - a drip1 product, the operand plus y - c - v, has counts
      <= largest + |y|, and its second product z + v has counts <= W;
    - a two-sided drip product s + u + y or z + v + w has counts
      <= largest + W.

    Packed addition is then fieldwise with no carry between fields, so a
    fusion is v1 + v2 + delta and drip1 is v + delta, where delta packs
    the rule's signed counts.  The need test ((v | G) - need) & G == G
    subtracts the need's counts under raised guard bits G: a field borrows
    only when its count is short, and that borrow clears its own guard bit
    without reaching the next field.  A vesicle's size is the sum of its
    fields, which `OperandIndex.extend` reads as v % (2**width - 1) while
    it is below 2**width - 1, as for every admitted vesicle.
    """

    def __init__(self, alphabet, rules, largest: int):
        self.names = tuple(sorted(alphabet))
        self.largest = largest
        heaviest = max((rule.weight for rule in rules), default=0)
        self.width = width = (largest + heaviest).bit_length() + 1
        self.field = (1 << width) - 1
        self.shift = {name: i * width for i, name in enumerate(self.names)}
        self.guards = sum(1 << (shift + width - 1) for shift in self.shift.values())
        self.units = sum(1 << shift for shift in self.shift.values())
        # [bit length] -> (shift, name, mask of the bits below) of the field
        # that holds a packed vesicle's highest set bit
        self.top = [None] + [(i * width, name, (1 << i * width) - 1)
                              for i, name in enumerate(self.names) for _ in range(width)]
        self._compiled: dict[Rule, PackedMate | PackedDrip] = {}

    def encode(self, pairs) -> int:
        """Pack (name, count) pairs, such as a Multiset's; with negative
        counts, as in a rule's delta, the int may be negative."""
        shift = self.shift
        return sum(c << shift[n] for n, c in pairs)

    def decode(self, packed: int) -> Multiset:
        """The multiset of a packed vesicle, stepping over its nonzero
        fields only: the top field is the one its bit length falls in, its
        count is what lies above the field's shift, and masking the bits
        below that shift drops it."""
        top = self.top
        items = []
        size = 0
        while packed:
            shift, name, below = top[packed.bit_length()]
            count = packed >> shift
            items.append((name, count))
            size += count
            packed &= below
        items.reverse()
        return Multiset._wrap(tuple(items), size)

    def mask(self, names) -> int:
        """All bits of the fields of `names`."""
        return sum(self.field << self.shift[n] for n in names)

    def compile(self, rule: Rule) -> PackedMate | PackedDrip:
        """The packed form of `rule`; equal rules get the same object."""
        packed = self._compiled.get(rule)
        if packed is None:
            cls = PackedMate if isinstance(rule, MateRule) else PackedDrip
            packed = self._compiled[rule] = cls(self, rule)
        return packed

    def filter(self, tube_filter) -> tuple[int, ...]:
        """One forbidden-symbols mask per branch of a union of support
        filters: a packed vesicle passes iff it has no bit in some mask."""
        return tuple(self.mask(set(self.names) - branch.allowed)
                     for branch in tube_filter.branches)


def drip1(rule: PackedDrip, vesicle: int) -> tuple[int, int]:
    """One-sided drip on a packed vesicle that holds the rule's need: the
    vesicle shifted by y - c - v, and the constant z + v."""
    return vesicle + rule.delta, rule.second


def drip2(rule: PackedDrip, vesicle: int, size: int, codec: Codec) -> list[tuple]:
    """Two-sided drip on a packed vesicle of `size` that holds the rule's
    need: for each split of the residual vesicle - (u + c + v) into s + w,
    the outcome ((s + u + y, its size), (z + v + w, its size)).  The splits
    step over the residual's nonzero fields as `Codec.decode` does."""
    residual = rest = vesicle - rule.need
    splits = [(0, 0)]  # (packed s, |s|)
    while rest:
        shift, _, below = codec.top[rest.bit_length()]
        count = rest >> shift
        rest &= below
        splits = [(s + (k << shift), n + k) for s, n in splits for k in range(count + 1)]
    left = size - rule.need_size
    return [((s + rule.first, n + rule.first_size),
             (rule.second + residual - s, rule.second_size + left - n)) for s, n in splits]


class OperandIndex:
    """The operands of a compartment's packed rules, kept as batches of
    vesicles are added.

    `operands[rule]` holds, for a mate rule, its (left, right) operands and,
    for a drip rule, the vesicles that contain its need, as size -> packed
    vesicles maps.  Each added vesicle joins them once, in addition order,
    so the vesicles added last form the tail of every list.  A vesicle is
    tested only against the needs anchored on one of its symbols.  Each need
    is anchored on its symbol that the fewest needs of the index's rules
    share (ties go to the first name), and a need with no symbols takes
    every vesicle.  A rule given twice is indexed once.
    """

    def __init__(self, codec: Codec, rules=()):
        self._rules = list(dict.fromkeys(rules))
        needs: list[tuple[Multiset, int, PackedMate | PackedDrip, int | None]] = []
        for rule in self._rules:
            if isinstance(rule, PackedMate):
                needs += [(rule.rule._left_need, rule.left, rule, 0),
                          (rule.rule._right_need, rule.right, rule, 1)]
            else:
                needs.append((rule.rule._need, rule.need, rule, None))
        shares = Counter(name for need, *_ in needs for name in need.support)
        # guard bit of the anchor's field -> (packed need, rule, side) entries
        self._layout: dict[int, list] = {}
        self._everything: list[tuple] = []  # (rule, side) of the empty needs
        for need, packed, rule, side in needs:
            if len(need):
                anchor = min(need.support, key=lambda name: (shares[name], name))
                guard = 1 << (codec.shift[anchor] + codec.width - 1)
                self._layout.setdefault(guard, []).append((packed, rule, side))
            else:
                self._everything.append((rule, side))
        self._anchor_guards = sum(self._layout)
        self._guards = codec.guards
        self._units = codec.units
        self._field = codec.field
        self._bind()

    def _bind(self):
        """Give every rule empty operand maps and point the needs at them."""
        self.operands: dict[PackedMate | PackedDrip, tuple[dict, dict] | dict] = {
            rule: (defaultdict(list), defaultdict(list)) if isinstance(rule, PackedMate)
            else defaultdict(list)
            for rule in self._rules}

        def target(rule, side):
            operands = self.operands[rule]
            return operands if side is None else operands[side]

        # [bit length of an anchor's guard bit] -> (that bit, its entries)
        self._anchored = {
            guard.bit_length(): (guard, [(need, target(rule, side)) for need, rule, side in entries])
            for guard, entries in self._layout.items()}
        self._unanchored = [target(rule, side) for rule, side in self._everything]

    def empty(self) -> "OperandIndex":
        """An index over the same rules, anchored the same way, that holds
        no vesicles."""
        index = object.__new__(OperandIndex)
        index.__dict__.update(self.__dict__)
        index._bind()
        return index

    def extend(self, vesicles):
        """Add packed vesicles, each of size below 2**width - 1, in iteration
        order, with one call for the whole batch."""
        guards, units, field = self._guards, self._units, self._field
        anchored, anchor_guards, unanchored = self._anchored, self._anchor_guards, self._unanchored
        for vesicle in vesicles:
            size = vesicle % field
            raised = vesicle | guards
            # the guard bits of the anchors the vesicle holds: subtracting 1
            # from each raised field keeps its guard bit iff its count is >= 1
            held = (raised - units) & anchor_guards
            while held:
                guard, entries = anchored[held.bit_length()]
                held ^= guard
                for need, operands in entries:
                    if (raised - need) & guards == guards:
                        operands[size].append(vesicle)
            for operands in unanchored:
                operands[size].append(vesicle)


def frontier_start(operands: list, frontier) -> int:
    """Where the frontier vesicles at the tail of `operands` begin."""
    i = len(operands)
    while i and operands[i - 1] in frontier:
        i -= 1
    return i


def split_frontier(by_size: dict, frontier) -> tuple[dict, dict]:
    """(old, new) parts of a size -> vesicles map, the new part being the
    frontier vesicles at the tail of each bucket.  Empty parts are left out."""
    old, new = {}, {}
    for size, bucket in by_size.items():
        i = frontier_start(bucket, frontier)
        if i:
            old[size] = bucket[:i]
        if i < len(bucket):
            new[size] = bucket[i:]
    return old, new


def _keeps(bounds: Bounds, size: int) -> bool:
    """Whether `bounds` admits a vesicle of `size` that fits max_size."""
    return size > 0 or bounds.keep_empty


def join(rule: PackedMate, lefts: dict, rights: dict, bounds: Bounds, out: set) -> bool:
    """Add to `out` the admitted fusions of every left × right pair, given
    size -> operands maps that hold only operands the rule applies to.

    Only pairs whose fusion fits max_size are fused, and the size of a
    fusion follows from the bucket sizes.  Returns whether some pair was
    left out because its fusion is oversize; that follows from the largest
    sizes alone, so no such pair is visited.
    """
    if not lefts or not rights:
        return False
    room = bounds.max_size - rule.dsize
    sizes = sorted(rights)
    shifted = {}
    for lsize, lbucket in lefts.items():
        cap = room - lsize
        for rsize in sizes:
            if rsize > cap:
                break
            if not _keeps(bounds, lsize + rsize + rule.dsize):
                continue
            right = shifted.get(rsize)
            if right is None:
                right = shifted[rsize] = [v + rule.delta for v in rights[rsize]]
            out.update([v1 + v2 for v2 in right for v1 in lbucket])
    return max(lefts) + sizes[-1] > room


def drip(rule: PackedDrip, size: int, vesicles: list, bounds: Bounds, out: set,
         codec: Codec, kernels) -> bool:
    """Add to `out` the admitted products of a drip rule on packed vesicles
    of `size` that contain its need.  Returns whether a product was oversize.

    `kernels` is (apply_drip1, apply_drip), called once per firing on the
    packed rule and vesicle: the first for a one-sided rule, the second,
    with the vesicle's size and the codec, for a two-sided one.
    """
    apply_drip1, apply_drip = kernels
    if not vesicles:
        return False
    if rule.rule.one_sided:
        firsts = [apply_drip1(rule, v)[0] for v in vesicles]
        first_size = size + rule.dsize
        if first_size <= bounds.max_size and _keeps(bounds, first_size):
            out.update(firsts)
        if rule.second_size <= bounds.max_size and _keeps(bounds, rule.second_size):
            out.add(rule.second)
        return max(first_size, rule.second_size) > bounds.max_size
    oversize = False
    for v in vesicles:
        for pair in apply_drip(rule, v, size, codec):
            for product, product_size in pair:
                if product_size > bounds.max_size:
                    oversize = True
                elif _keeps(bounds, product_size):
                    out.add(product)
    return oversize


def rule_productions(index: OperandIndex, frontier, out: set, bounds: Bounds,
                     codec: Codec, kernels) -> bool:
    """Add to `out` the admitted results of the index's rules inside one
    compartment that involve at least one frontier vesicle; the frontier
    must be the vesicles added last.

    Mates are evaluated semi-naively over their size buckets: new left
    operands against every right operand, then old left operands against
    new right operands.  A drip fires on the frontier tail of each of its
    buckets.  Returns whether a result was left out for size.
    """
    cut = False
    for rule, operands in index.operands.items():
        if isinstance(rule, PackedMate):
            lefts, rights = operands
            old_lefts, new_lefts = split_frontier(lefts, frontier)
            _, new_rights = split_frontier(rights, frontier)
            for left, right in ((new_lefts, rights), (old_lefts, new_rights)):
                if join(rule, left, right, bounds, out):
                    cut = True
        else:
            for size, bucket in operands.items():
                new = bucket[frontier_start(bucket, frontier):]
                if drip(rule, size, new, bounds, out, codec, kernels):
                    cut = True
    return cut


def admissible(batch, bounds: Bounds) -> tuple[list, bool]:
    """The (compartment, Multiset) pairs of `batch` that `bounds` admits, and
    whether one was refused for size: since max_size >= 1, a refused
    vesicle is oversize unless it is empty."""
    admitted, oversize = [], False
    for cv in batch:
        if bounds.admits(cv[1]):
            admitted.append(cv)
        elif len(cv[1]):
            oversize = True
    return admitted, oversize


def fill(fresh: list[set[int]], bounds: Bounds, population: int, codec: Codec,
         decoded: dict[int, Multiset]) -> tuple[list[set[int]], bool]:
    """(placements, cut): the packed vesicles of `fresh`, per compartment,
    that fit while the population stays below max_population, taken in
    (compartment, render) order, and whether the cap cut the batch.

    The order matters only when the cap cuts the batch.  A batch that fits
    is returned as it is; a cut one is decoded, sorted and split, and the
    Multisets of the vesicles placed go into `decoded`.
    """
    room = max(bounds.max_population - population, 0)
    if sum(map(len, fresh)) <= room:
        return fresh, False
    placed: list[set[int]] = [set() for _ in fresh]
    if room:
        keyed = sorted((c, m.render(), v, m) for c, vs in enumerate(fresh)
                       for v in vs for m in (codec.decode(v),))
        for c, _, v, m in keyed[:room]:
            placed[c].add(v)
            decoded[v] = m
    return placed, True


def decode_compartments(codec: Codec, compartments: list[set[int]],
                        decoded: dict[int, Multiset]) -> tuple[frozenset[Multiset], ...]:
    """The compartments as frozensets of Multisets, emptying each set of
    packed vesicles once it is decoded.  A vesicle found in several
    compartments is decoded once and shared, as is one already in
    `decoded`."""
    for i, first in enumerate(compartments):
        for other in compartments[i + 1:]:
            for v in first & other:
                if v not in decoded:
                    decoded[v] = codec.decode(v)
    out = []
    for vesicles in compartments:
        out.append(frozenset(decoded[v] if v in decoded else codec.decode(v) for v in vesicles))
        vesicles.clear()
    return tuple(out)


def lazy_field(name: str, decode, *others: str) -> property:
    """The property behind a state field that the state may hold packed, in
    its `_packed` attribute.  The first read keeps decode(state._packed) as
    the field's value.  Assigning the field first decodes the `others` the
    packed form also holds, then drops it, so the state holds only its
    fields from then on."""
    slot = "_" + name

    def get(state):
        try:
            return state.__dict__[slot]
        except KeyError:
            value = state.__dict__[slot] = decode(state._packed)
            return value

    def put(state, value):
        if state._packed is not None:
            for other in others:
                getattr(state, other)  # decoded before the packed form goes
            state._packed = None
        state.__dict__[slot] = value

    return property(get, put)
