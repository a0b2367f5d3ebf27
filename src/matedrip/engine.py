"""The engine core shared by the test tube closure and the tissue step.

Both engines work on vesicles packed into Python ints by a per-system
`Codec` (SIMD within a register: Lamport, CACM 1975; Fisher & Dietz, LCPC
1998).  A fusion is then one integer addition, a need test three integer
operations, and equality and hashing are those of ints.  Vesicles are
decoded to `Multiset`s only at the boundary: for a closure state's contents
and a tissue state's contents and result log when they are read, and for
the results a closure state is asked for.  Admission is batched: a
compartment's new vesicles are filed in one `OperandIndex.extend` call on
an empty copy of its index, and a fill that fits the cap is a set union.
A fill that the cap cuts sorts only the compartment it splits, by the text
`Codec.render` writes straight from the packed fields.
A closure round joins that batch against the index and then absorbs it.
The index files a vesicle by the plan of its support signature, the
symbols named in the rules' needs that it holds, so a need is tested per
vesicle only when it asks for some symbol more than once.

This module holds the exploration `Bounds`, the codec, the operand index,
the mate join, drip firing, admission, the population-capped fill and the
state fields that decode on first read.
"""

from __future__ import annotations

from collections import defaultdict
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
        if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in limits):
            raise ValueError("bounds must be positive integers")
        if not isinstance(self.keep_empty, bool):
            raise ValueError("keep_empty must be a bool")

    def keeps(self, size: int) -> bool:
        """The size rule: exploration keeps a vesicle of `size` iff it fits
        `max_size` and is non-empty unless `keep_empty` holds."""
        return size <= self.max_size and (size > 0 or self.keep_empty)

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

    def render(self, packed: int) -> str:
        """`self.decode(packed).render()` without building the Multiset:
        the same walk over the nonzero fields, writing each as `name` or
        `name^count`, and '.' for the empty vesicle."""
        top = self.top
        tokens = []
        while packed:
            shift, name, below = top[packed.bit_length()]
            count = packed >> shift
            tokens.append(f"{name}^{count}" if count > 1 else name)
            packed &= below
        tokens.reverse()
        return " ".join(tokens) or "."

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
    """The operands of a compartment's packed rules.

    `operands[rule]` holds, for a mate rule, its (left, right) operands and,
    for a drip rule, the vesicles that contain its need, as size -> packed
    vesicles maps.  A batch of vesicles is filed by one `extend` call on an
    `empty()` copy; a closure then folds that copy into its tube's index
    with `absorb`.  A rule given twice is indexed once.

    A vesicle is classified by its support signature, the guard bits of the
    fields it holds among the symbols that some need mentions.  The first
    vesicle of a signature fixes its plan: the needs whose support lies
    inside the signature.  Holding the support is enough for a need whose
    counts are all 1, so only a need with a larger count is tested again
    for each vesicle.  Plans depend on the rules and the codec alone, and
    the copies that `empty` makes share them.
    """

    def __init__(self, codec: Codec, rules=()):
        self._rules = list(dict.fromkeys(rules))
        self._codec = codec
        self._sides: list[tuple[PackedMate | PackedDrip, int | None]] = []  # by slot
        # per slot: (guard bits of the need's support, (the packed need to
        # test per vesicle, or 0 when holding the support is enough, slot))
        self._entries: list[tuple[int, tuple[int, int]]] = []
        self._relevant = 0  # the guard bits of every symbol some need mentions
        for rule in self._rules:
            if isinstance(rule, PackedMate):
                sides = ((rule.rule._left_need, rule.left, 0), (rule.rule._right_need, rule.right, 1))
            else:
                sides = ((rule.rule._need, rule.need, None),)
            for need, packed, side in sides:
                support = codec.mask(need.support) & codec.guards
                test = packed if len(need) > len(need.support) else 0
                self._entries.append((support, (test, len(self._sides))))
                self._sides.append((rule, side))
                self._relevant |= support
        # signature -> plan, a tuple of (need, slot) entries made from a list:
        # one made from a generator is resized, growing CPython's tuple free lists
        self._plans: dict[int, tuple[tuple[int, int], ...]] = {}
        self._bind()

    def _bind(self):
        """Give every rule empty operand maps, `_slots[i]` that of slot i."""
        self.operands: dict[PackedMate | PackedDrip, tuple[dict, dict] | dict] = {
            rule: (defaultdict(list), defaultdict(list)) if isinstance(rule, PackedMate)
            else defaultdict(list)
            for rule in self._rules}
        self._slots = [self.operands[rule] if side is None else self.operands[rule][side]
                       for rule, side in self._sides]

    def empty(self) -> "OperandIndex":
        """An index over the same rules that holds no vesicles and shares
        this one's plans."""
        index = object.__new__(OperandIndex)
        index.__dict__.update(self.__dict__)
        index._bind()
        return index

    def extend(self, vesicles):
        """File packed vesicles, each of size below 2**width - 1, in
        iteration order, with one call for the whole batch."""
        codec, relevant, plans, slots = self._codec, self._relevant, self._plans, self._slots
        guards, units, field = codec.guards, codec.units, codec.field
        for vesicle in vesicles:
            raised = vesicle | guards
            # subtracting 1 from each raised field keeps its guard bit iff
            # its count is >= 1
            signature = (raised - units) & relevant
            plan = plans.get(signature)
            if plan is None:
                plan = plans[signature] = tuple([entry for support, entry in self._entries
                                                 if support & signature == support])
            if plan:
                size = vesicle % field
                for need, slot in plan:
                    if not need or (raised - need) & guards == guards:
                        slots[slot][size].append(vesicle)

    def absorb(self, batch: "OperandIndex"):
        """Append the buckets of `batch`, an `empty()` copy of this index,
        to this index's buckets, slot by slot."""
        for slot, new in zip(self._slots, batch._slots):
            for size, vesicles in new.items():
                slot[size] += vesicles


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
            if not bounds.keeps(lsize + rsize + rule.dsize):
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
    A one-sided rule fires only if its first products, all of one size, are kept.

    `kernels` is (apply_drip1, apply_drip), called once per firing on the
    packed rule and vesicle: the first for a one-sided rule, the second,
    with the vesicle's size and the codec, for a two-sided one.
    """
    apply_drip1, apply_drip = kernels
    if not vesicles:
        return False
    if rule.rule.one_sided:
        first_size = size + rule.dsize
        if bounds.keeps(first_size):
            out.update([apply_drip1(rule, v)[0] for v in vesicles])
        if bounds.keeps(rule.second_size):
            out.add(rule.second)
        return max(first_size, rule.second_size) > bounds.max_size
    oversize = False
    for v in vesicles:
        for pair in apply_drip(rule, v, size, codec):
            for product, product_size in pair:
                if bounds.keeps(product_size):
                    out.add(product)
                elif product_size > bounds.max_size:
                    oversize = True
    return oversize


def rule_productions(index: OperandIndex, batch: OperandIndex, out: set, bounds: Bounds,
                     codec: Codec, kernels) -> bool:
    """Add to `out` the admitted results of the index's rules inside one
    compartment that involve at least one vesicle of `batch`, an `empty()`
    copy of `index` that holds the new vesicles, which `index` does not.

    Mates are evaluated semi-naively over their size buckets: new left
    operands against old right operands, old against new and new against
    new.  A drip fires on the batch's buckets.  Returns whether a result
    was left out for size.
    """
    cut = False
    for (rule, old), new in zip(index.operands.items(), batch.operands.values()):
        if isinstance(rule, PackedMate):
            pairs = ((new[0], old[1]), (old[0], new[1]), (new[0], new[1]))
            for lefts, rights in pairs:
                if join(rule, lefts, rights, bounds, out):
                    cut = True
        else:
            for size, bucket in new.items():
                if drip(rule, size, bucket, bounds, out, codec, kernels):
                    cut = True
    return cut


def admissible(batch, bounds: Bounds) -> tuple[list, bool]:
    """The (compartment, Multiset) pairs of `batch` that `bounds` admits, and
    whether one was refused for size: since max_size >= 1, a refused
    vesicle is oversize unless it is empty."""
    admitted, oversize = [], False
    for cv in batch:
        if bounds.keeps(len(cv[1])):
            admitted.append(cv)
        elif len(cv[1]):
            oversize = True
    return admitted, oversize


def fill(fresh: list[set[int]], bounds: Bounds, population: int,
         codec: Codec) -> tuple[list[set[int]], bool]:
    """(placements, cut): the packed vesicles of `fresh`, per compartment,
    that fit while the population stays below max_population, taken in
    (compartment, render) order, and whether the cap cut the batch.

    The order matters only when the cap cuts the batch.  A batch that fits
    is returned as it is.  In a cut one, each compartment that fits the
    room left is placed whole, the one compartment the cap splits is
    sorted by `Codec.render` and cut, and the later ones get nothing, so
    only the split compartment is rendered and nothing is decoded.
    """
    room = max(bounds.max_population - population, 0)
    if sum(map(len, fresh)) <= room:
        return fresh, False
    placed: list[set[int]] = []
    for vesicles in fresh:
        if len(vesicles) <= room:
            placed.append(vesicles)
            room -= len(vesicles)
        else:
            # render gives each multiset its own text, so no tie-break is needed
            placed.append(set(sorted(vesicles, key=codec.render)[:room]) if room else set())
            room = 0
    return placed, True


def decode_compartments(codec: Codec,
                        compartments: list[set[int]]) -> tuple[frozenset[Multiset], ...]:
    """The compartments as frozensets of Multisets, emptying each set of
    packed vesicles once it is decoded.  A vesicle found in several
    compartments is decoded once and shared."""
    shared: dict[int, Multiset] = {}
    for i, first in enumerate(compartments):
        for other in compartments[i + 1:]:
            for v in first & other:
                if v not in shared:
                    shared[v] = codec.decode(v)
    out = []
    for vesicles in compartments:
        out.append(frozenset(shared[v] if v in shared else codec.decode(v) for v in vesicles))
        vesicles.clear()
    return tuple(out)


def lazy_field(name: str, decode) -> property:
    """The property behind a field of a frozen state that the state may hold
    packed, in its `_packed` attribute.  The first read keeps
    decode(state._packed) as the field's value.  The setter serves only the
    dataclass `__init__`, since a frozen state refuses assignment."""
    slot = "_" + name

    def get(state):
        try:
            return state.__dict__[slot]
        except KeyError:
            value = state.__dict__[slot] = decode(state._packed)
            return value

    def put(state, value):
        state.__dict__[slot] = value

    return property(get, put)
