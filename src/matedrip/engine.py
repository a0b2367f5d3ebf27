"""The engine core shared by the test tube closure and the tissue step.

Both engines work on vesicles packed into Python ints by a per-system
`Codec` (SIMD within a register: Lamport, CACM 1975; Fisher & Dietz, LCPC
1998).  A fusion is then one integer addition, a need test three integer
operations, and equality and hashing are those of ints.  A salt under the
count fields spreads those hashes, so the sets each round produces into,
subtracts and unions do not walk long probe chains.  Vesicles are
decoded to `Multiset`s only at the boundary: for a closure state's contents
and a tissue state's contents and result log when they are read, and for
the results a closure state is asked for.  Admission is batched: a
compartment's new vesicles are filed in one `OperandIndex.extend` call on
an empty copy of its index, and a fill that fits the cap is a set union.
A fill that the cap cuts selects from the one compartment it splits by
the text `Codec.render` writes straight from the packed fields: it groups
that compartment by first token, places whole groups in token order, and
renders only the group the cut falls in.  Tokens are joined by a space
and no symbol name holds a character at or below it, so first tokens
order the texts as the texts themselves do.
The index keeps the operands of each distinct need in one slot, which
rules with equal needs share, and, in a closure, the vesicles each branch
of a filter leaving the tube passes.  A closure round joins that batch
against the index and keeps its mate operands, and it and the tissue step
reach only the rules whose slots the batch filed into.  A tissue step
that finds a cell holding all it held two steps back files only the
vesicles it gained since, and reuses that step's slots and products.  A
join streams its fusions into the output set.  The index files a vesicle by the plan of its support
signature, the symbols named in the rules' needs or forbidden by the
branches that it holds, read with one addition, so a need is tested per
vesicle only when it asks for some symbol more than once, and no branch
is tested per vesicle.  A drip kernel fires once per size bucket of its
operands.

This module holds the exploration `Bounds`, the codec, the operand index,
the mate join, drip firing, the population-capped fill and the state
fields that decode on first read.  It also holds the packed start both
engines begin from: `packed_start` admits the axioms per compartment and
packs them with `pack`, the one place a codec is sized from given
contents.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product, starmap
from operator import add

from .multiset import Multiset, value_class
from .rules import DripRule, MateRule, Rule


@value_class(frozen=True)
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
        `max_size` and is non-empty unless `keep_empty` holds.  `join` and
        `drip` apply it inline, and their tests hold them to it."""
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


def _token(tokens: dict, name: str, count: int) -> str:
    """The `name` or `name^count` token of a count not yet in a field's
    `tokens` cache, now cached there."""
    token = tokens[count] = f"{name}^{count}" if count > 1 else name
    return token


def _multiplier(i: int) -> int:
    """The odd 16-bit salt multiplier of symbol i: the top bits of
    SplitMix64's finalizer of i + 1 (Steele, Lea & Flood, OOPSLA 2014)."""
    z = i + 1
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return ((z ^ (z >> 31)) >> 48) | 1


class Codec:
    """Packs the multisets over one alphabet into ints.

    Each symbol, in sorted-name order, owns a field of `width` bits above a
    salt region of `base` bits, and the top bit of each field is a guard
    bit, zero in every packed vesicle.  With `largest` bounding the size of
    every operand and W the heaviest rule weight, the width is
    (largest + W).bit_length() + 1.  Every size, and so every count, that
    the engine computes is at most largest + W, below the guard bit:

    - a kept fusion fits max_size, and `largest` >= max_size;
    - a drip1 product, the operand plus y - c - v, has size
      <= largest + |y|, and its second product z + v has size <= W;
    - a two-sided drip product s + u + y or z + v + w has size
      <= largest + W.

    A count c of symbol i packs as c * (2**shift_i + salt_i), where
    shift_i = base + i * width and salt_i = field * m_i, with field =
    2**width - 1 and m_i an odd 16-bit multiplier mixed from i.  The salt
    is there for hashing: CPython hashes an int as its value mod 2**61 - 1
    and a set probes first by the hash's low bits, which without a salt
    only the few fields whose shift lies near a multiple of 61 reach.  Over
    the 37,873 vesicles of a faithful cor3 tube those bits took 9 values,
    and a set difference walked long probe chains; the salt spreads them
    as a random hash would.  `base` is the smallest multiple of `width`
    with (largest + W) * max(salt_i) < 2**base, so a vesicle's salt stays
    in its region.  Three invariants follow:

    - a vesicle's size is the sum of its counts and, since every salt is a
      multiple of `field` and 2**base is 1 mod `field`, `v % field` reads
      it while it is below `field`, as for every admitted vesicle;
    - packing is linear, so packed addition is fieldwise with no carry
      between fields: a fusion is v1 + v2 + delta and drip1 is v + delta,
      where delta packs the rule's signed counts;
    - the need test ((v | G) - need) & G == G subtracts the need's counts
      under raised guard bits G: a field borrows only when its count is
      short, and that borrow clears its own guard bit without reaching
      the next field.  If v holds the need, salt(v) >= salt(need), so no
      borrow leaves the salt region; if not, a guard bit is cleared
      already, and a borrow into field 0 cannot set one.

    `top[n]` is the (shift, name, pairs, tokens) of the field that holds
    bit n - 1 of a vesicle whose salt is shifted out, the highest set bit
    at bit length n, with shifts relative to `base`.  `pairs` and `tokens`
    map a count to the field's one (name, count) tuple and its `name` /
    `name^count` text, filled on first use, so every decoded vesicle
    shares a pair object with all others of that symbol and count
    (hash-consing: Filliâtre & Conchon, ML Workshop 2006).  They hold only
    the counts met, never 2**width of them.  The `width` entries of a
    field share one tuple, so the table grows linearly with the alphabet.
    A field's packed unit, 2**shift + salt, is not cached: it has as many
    bits as a whole packed vesicle, so a unit per field would grow with
    the square of the alphabet.  `decode`, `render` and `drip2` shift out
    the salt and step down a vesicle's nonzero fields with it, dropping
    each by subtracting its count at its shift.
    """

    def __init__(self, alphabet, rules, largest: int):
        self.names = tuple(sorted(alphabet))
        self.largest = largest
        heaviest = max((rule.weight for rule in rules), default=0)
        self.width = width = (largest + heaviest).bit_length() + 1
        self.field = field = (1 << width) - 1
        self.salt = {name: field * _multiplier(i) for i, name in enumerate(self.names)}
        span = (largest + heaviest) * max(self.salt.values(), default=0)
        self.base = base = -(-span.bit_length() // width) * width
        self.shift = {name: base + i * width for i, name in enumerate(self.names)}
        self.guards = sum(1 << (shift + width - 1) for shift in self.shift.values())
        self.units = sum(1 << shift for shift in self.shift.values())
        self.top = [None]
        for i, name in enumerate(self.names):
            self.top += [(i * width, name, {}, {})] * width
        self._compiled: dict[Rule, PackedMate | PackedDrip] = {}

    def encode(self, pairs) -> int:
        """Pack (name, count) pairs, such as a Multiset's; with negative
        counts, as in a rule's delta, the int may be negative."""
        shift, salt = self.shift, self.salt
        return sum((c << shift[n]) + c * salt[n] for n, c in pairs)

    def decode(self, packed: int) -> Multiset:
        """The multiset of a packed vesicle, stepping over its nonzero
        fields only: with the salt shifted out, the top field is the one
        its bit length falls in, its count is what lies above the field's
        shift, and subtracting that count at the shift drops it.  Each
        field appends its shared (name, count) pair."""
        top = self.top
        packed >>= self.base
        items = []
        size = 0
        while packed:
            shift, name, pairs, _ = top[packed.bit_length()]
            count = packed >> shift
            pair = pairs.get(count)
            if pair is None:
                pair = pairs[count] = (name, count)
            items.append(pair)
            size += count
            packed -= count << shift
        items.reverse()
        return Multiset._wrap(tuple(items), size)

    def render(self, packed: int) -> str:
        """`self.decode(packed).render()` without building the Multiset:
        the same walk over the nonzero fields, writing each field's shared
        `name` or `name^count` token, and '.' for the empty vesicle."""
        top = self.top
        packed >>= self.base
        text = []
        while packed:
            shift, name, _, tokens = top[packed.bit_length()]
            count = packed >> shift
            text.append(tokens.get(count) or _token(tokens, name, count))
            packed -= count << shift
        text.reverse()
        return " ".join(text) or "."

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


def drip1(rule: PackedDrip, vesicles: list) -> list:
    """One-sided drip on a bucket of packed vesicles that hold the rule's
    need: each vesicle shifted by y - c - v.  The other product of every
    firing is the constant z + v, `rule.second`."""
    delta = rule.delta
    return [v + delta for v in vesicles]


def drip2(rule: PackedDrip, vesicles: list, size: int, codec: Codec) -> list[tuple]:
    """Two-sided drip on a bucket of packed vesicles of `size` that hold the
    rule's need: for each vesicle and each split of its residual
    vesicle - (u + c + v) into s + w, the outcome ((s + u + y, its size),
    (z + v + w, its size)).  The splits step over the residual's nonzero
    fields as `Codec.decode` does."""
    left = rule.second_size + size - rule.need_size
    outcomes = []
    for vesicle in vesicles:
        residual = vesicle - rule.need
        rest = residual >> codec.base
        splits = [(0, 0)]  # (packed s, |s|)
        while rest:
            shift, name, _, _ = codec.top[rest.bit_length()]
            count = rest >> shift
            rest -= count << shift
            unit = (1 << codec.shift[name]) + codec.salt[name]
            splits = [(s + k * unit, n + k) for s, n in splits for k in range(count + 1)]
        outcomes += [((s + rule.first, n + rule.first_size),
                      (rule.second + residual - s, left - n)) for s, n in splits]
    return outcomes


class OperandIndex:
    """The operands of a compartment's packed rules, and the vesicles that
    pass each of its filter branches.

    Each distinct need owns a slot, the vesicles that contain it: mate
    sides share a slot when their needs are equal, and so do drips, but a
    mate side never shares one with a drip, since a closure keeps mate
    operands and no drip operands.  `_layout` maps each packed rule, in
    the order given, to its slots: a mate rule's (left, right), a drip
    rule's (slot,); a rule given twice is indexed once.  `_mates` lists
    each mate rule with its two slots, `_drips` each drip rule with its
    slot, and `_kept` the slots of mate sides.  Each filter branch, given
    as the mask of the symbols it forbids, owns one more slot, the
    vesicles that hold none of them; `branches` lists those slots in the
    order given.  `_slots[i]` holds slot i's vesicles as a size -> packed
    vesicles map.  A batch of vesicles is filed by one `extend` call on an
    `empty()` copy, whose mate operands `rule_productions` merges into its
    tube's index.

    A vesicle is classified by its support signature, the guard bits of the
    fields it holds among the symbols that some need mentions or some
    branch forbids: (v + lift) & relevant, where lift = guards - units
    raises each field by its guard bit and subtracts 1 from it, so a field
    keeps its guard bit iff its count is >= 1.  That is one addition, and
    exact, because a packed vesicle's guard bits are zero.  The first
    vesicle of a signature fixes its plan: the needs whose support lies
    inside the signature and the branches whose forbidden symbols lie
    outside it.  A plan keeps apart its plain slots, which take every
    vesicle of the signature, and the needs that ask for some symbol more
    than once, the only ones tested again for each vesicle.  Plans depend
    on the rules, the branches and the codec alone, and the copies that
    `empty` makes share them.
    """

    def __init__(self, codec: Codec, rules=(), branches=()):
        self._codec = codec
        self._lift = codec.guards - codec.units
        self._layout: dict[PackedMate | PackedDrip, tuple[int, ...]] = {}
        # per slot: (guard bits read, the value they must have in a
        # signature, the packed need to test per vesicle, or 0 when the
        # signature is enough); a need reads its support and must hold all
        # of it, a branch reads its forbidden symbols and must hold none
        self._entries: list[tuple[int, int, int]] = []
        self._relevant = 0  # every guard bit some entry reads
        need_slots: dict[tuple[bool, int], int] = {}  # (mate side, packed need) -> slot

        def slot(mate: bool, need: Multiset, packed: int) -> int:
            i = need_slots.get((mate, packed))
            if i is None:
                i = need_slots[mate, packed] = len(self._entries)
                support = codec.mask(need.support) & codec.guards
                self._entries.append((support, support,
                                      packed if len(need) > len(need.support) else 0))
                self._relevant |= support
            return i

        for rule in dict.fromkeys(rules):
            if isinstance(rule, PackedMate):
                self._layout[rule] = (slot(True, rule.rule._left_need, rule.left),
                                      slot(True, rule.rule._right_need, rule.right))
            else:
                self._layout[rule] = (slot(False, rule.rule._need, rule.need),)
        self._mates = [(rule, *sides) for rule, sides in self._layout.items()
                       if isinstance(rule, PackedMate)]
        self._drips = [(rule, sides[0]) for rule, sides in self._layout.items()
                       if not isinstance(rule, PackedMate)]
        self._kept = sorted({i for _, left, right in self._mates for i in (left, right)})
        self.branches = range(len(self._entries), len(self._entries) + len(branches))
        for forbidden in branches:
            self._entries.append((forbidden & codec.guards, 0, 0))
            self._relevant |= forbidden & codec.guards
        # signature -> plan: () when no slot takes the signature, else
        # (plain slots, (need, slot) pairs to test), tuples made from lists:
        # one made from a generator is resized, growing CPython's tuple free lists
        self._plans: dict[int, tuple] = {}
        self._slots = [defaultdict(list) for _ in self._entries]

    @property
    def operands(self) -> dict:
        """The slots by rule: a mate rule's (left, right) maps, a drip rule's map."""
        slots = self._slots
        return {rule: tuple(slots[i] for i in sides) if isinstance(rule, PackedMate)
                else slots[sides[0]] for rule, sides in self._layout.items()}

    def empty(self) -> "OperandIndex":
        """An index over the same rules and branches that holds no vesicles
        and shares this one's plans."""
        index = object.__new__(OperandIndex)
        index.__dict__.update(self.__dict__)
        index._slots = [defaultdict(list) for _ in self._entries]
        return index

    def _plan(self, signature: int) -> tuple:
        """The plan of a support signature, as `_plans` keeps it."""
        taken = [(need, slot) for slot, (bits, held, need) in enumerate(self._entries)
                 if signature & bits == held]
        if not taken:
            return ()
        return (tuple([slot for need, slot in taken if not need]),
                tuple([(need, slot) for need, slot in taken if need]))

    def extend(self, vesicles):
        """File packed vesicles, each of size below 2**width - 1, in
        iteration order, with one call for the whole batch: each goes to
        the slots of the needs it holds and of the branches it passes."""
        lift, relevant, plans, slots = self._lift, self._relevant, self._plans, self._slots
        guards, field = self._codec.guards, self._codec.field
        for vesicle in vesicles:
            signature = (vesicle + lift) & relevant
            plan = plans.get(signature)
            if plan is None:
                plan = plans[signature] = self._plan(signature)
            if plan:
                plain, tested = plan
                size = vesicle % field
                for slot in plain:
                    slots[slot][size].append(vesicle)
                if tested:
                    # the need test of `Codec`: subtracting the need under
                    # raised guard bits keeps them all iff v holds it
                    raised = vesicle + guards
                    for need, slot in tested:
                        if (raised - need) & guards == guards:
                            slots[slot][size].append(vesicle)


def join(rule: PackedMate, lefts: dict, rights: dict, bounds: Bounds, out: set) -> bool:
    """Add to `out` the admitted fusions of every left × right pair, given
    size -> operands maps that hold only operands the rule applies to.

    Both maps must hold operands.  Only pairs whose fusion fits max_size
    are fused, and the size of a fusion follows from the bucket sizes.
    The fusions of a pair of buckets are streamed into `out` by
    `itertools.starmap(operator.add, product(...))`, so no list of them
    is built and no bytecode runs per pair; each right bucket is shifted
    by the rule's delta once per call.
    Returns whether some pair was left out because its fusion is oversize;
    that follows from the largest sizes alone, so no such pair is visited.

    `Bounds.keeps` is applied inline: the room test on the two bucket sizes
    is its max_size test, so the one size test left per pair of buckets is
    whether the fusion is empty when `keep_empty` does not hold.
    """
    dsize = rule.dsize
    room = bounds.max_size - dsize
    void = None if bounds.keep_empty else -dsize  # lsize + rsize of a dropped empty fusion
    delta = rule.delta
    sizes = sorted(rights)
    shifted = {}
    for lsize, lbucket in lefts.items():
        cap = room - lsize
        for rsize in sizes:
            if rsize > cap:
                break
            if lsize + rsize == void:
                continue
            right = shifted.get(rsize)
            if right is None:
                right = shifted[rsize] = list(map(delta.__add__, rights[rsize]))
            out.update(starmap(add, product(right, lbucket)))
    return max(lefts) + sizes[-1] > room


def drip(rule: PackedDrip, size: int, vesicles: list, bounds: Bounds, out: set,
         codec: Codec, kernels) -> bool:
    """Add to `out` the admitted products of a drip rule on a non-empty list
    of packed vesicles of `size` that contain its need.  Returns whether a
    product was oversize.
    A one-sided rule fires only if its first products, all of one size, are kept.
    Each product's size is held to `Bounds.keeps`, applied inline.

    `kernels` is (apply_drip1, apply_drip), called at most once per bucket
    on the packed rule and the bucket: the first for a one-sided rule, the
    second, with the bucket's size and the codec, for a two-sided one.
    """
    apply_drip1, apply_drip = kernels
    max_size, keep_empty = bounds.max_size, bounds.keep_empty
    if rule.rule.one_sided:
        first_size, second_size = size + rule.dsize, rule.second_size
        if first_size <= max_size and (first_size or keep_empty):
            out.update(apply_drip1(rule, vesicles))
        if second_size <= max_size and (second_size or keep_empty):
            out.add(rule.second)
        return first_size > max_size or second_size > max_size
    oversize = False
    for pair in apply_drip(rule, vesicles, size, codec):
        for product, product_size in pair:
            if product_size > max_size:
                oversize = True
            elif product_size or keep_empty:
                out.add(product)
    return oversize


def rule_productions(index: OperandIndex, batch: OperandIndex, out: set, bounds: Bounds,
                     codec: Codec, kernels) -> bool:
    """Add to `out` the admitted results of the index's rules inside one
    compartment that involve at least one vesicle of `batch`, an `empty()`
    copy of `index` that holds the new vesicles, and extend `index` with
    the batch's mate operands.

    Only a rule the batch filed an operand for does any work.  Mates are
    evaluated semi-naively, in three phases, since mate sides share slots:
    every mate's new left operands against its old right ones; then each
    new mate slot merged into `index` once; then every mate's left
    operands, old and new, against its new right ones.  Each join is made
    only when both its sides hold operands.  A drip fires on the batch's
    buckets; no later round reads its operands, so `index` keeps none.
    Returns whether a result was left out for size.
    """
    cut = False
    old, new = index._slots, batch._slots
    mates = index._mates
    for rule, left, right in mates:
        if new[left] and old[right] and join(rule, new[left], old[right], bounds, out):
            cut = True
    for i in index._kept:
        slot = old[i]
        for size, vesicles in new[i].items():
            slot[size] += vesicles
    for rule, left, right in mates:
        if new[right] and old[left] and join(rule, old[left], new[right], bounds, out):
            cut = True
    for rule, i in index._drips:
        for size, bucket in new[i].items():
            if drip(rule, size, bucket, bounds, out, codec, kernels):
                cut = True
    return cut


def pack(alphabet, rules, compartments, max_size: int) -> tuple[Codec, list[frozenset[int]]]:
    """A codec over `alphabet` and `rules` sized by max_size and by the
    largest vesicle of `compartments`, collections of Multisets, and each
    compartment packed by it.  A size bounds every count, and
    `OperandIndex.extend` needs each size below 2**width - 1."""
    largest = max((len(v) for vesicles in compartments for v in vesicles), default=0)
    codec = Codec(alphabet, rules, max(largest, max_size))
    return codec, [frozenset(map(codec.encode, vesicles)) for vesicles in compartments]


def packed_start(alphabet, rules, axioms, bounds: Bounds) -> tuple[Codec, list, bool]:
    """(codec, compartments, oversize): the axioms, given per compartment,
    that `bounds` admits, packed by `pack`, and whether one was larger
    than max_size."""
    admitted = [[v for v in vesicles if bounds.keeps(len(v))] for vesicles in axioms]
    oversize = any(len(v) > bounds.max_size for vesicles in axioms for v in vesicles)
    return (*pack(alphabet, rules, admitted, bounds.max_size), oversize)


def fill(fresh: list[set[int]], bounds: Bounds, population: int,
         codec: Codec) -> tuple[list[set[int]], bool]:
    """(placements, cut): the packed vesicles of `fresh`, per compartment,
    that fit while the population stays below max_population, taken in
    (compartment, render) order, and whether the cap cut the batch.

    The order matters only when the cap cuts the batch.  A batch that fits
    is returned as it is.  In a cut one, each compartment that fits the
    room left is placed whole, the one compartment the cap splits keeps
    its `room` first vesicles in `Codec.render` order (`_first_rendered`),
    and the later ones get nothing.  Only the vesicles that share the
    first token of the one the cut falls on are rendered whole, and
    nothing is decoded.
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
            placed.append(_first_rendered(vesicles, room, codec) if room else set())
            room = 0
    return placed, True


def _first_rendered(vesicles: set[int], room: int, codec: Codec) -> set[int]:
    """The `room` vesicles of `vesicles`, 0 < room < len(vesicles), whose
    `Codec.render` texts come first, selected by first token (a one-digit
    most-significant-digit radix select: McIlroy, Bostic & McIlroy,
    Computing Systems 6, 1993).

    A vesicle's first token is that of its lowest nonzero field, found
    through `rest & -rest` on the salt-free int, or '.' when it is empty.
    The vesicles are grouped by it, and whole groups are taken in token
    order while they fit; only the group the cut falls in is rendered and
    sorted.  That keeps the render order: tokens are joined by a space,
    and no symbol name holds a character at or below the space
    (`multiset.check_symbol`), so a text whose first token is smaller,
    even a proper prefix of the other's, as `l1` of `l1^2` or `l10`, is
    smaller.  Render gives each multiset its own text, so no tie-break is
    needed.
    """
    base, field, top = codec.base, codec.field, codec.top
    groups: dict[str, list[int]] = defaultdict(list)
    for vesicle in vesicles:
        rest = vesicle >> base
        if rest:
            shift, name, _, tokens = top[(rest & -rest).bit_length()]
            count = rest >> shift & field
            groups[tokens.get(count) or _token(tokens, name, count)].append(vesicle)
        else:
            groups["."].append(vesicle)
    kept: set[int] = set()
    for token in sorted(groups):
        group = groups[token]
        if len(group) > room:
            group = sorted(group, key=codec.render)[:room]
        kept.update(group)
        room -= len(group)
        if not room:
            return kept


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
    `value_class` `__init__`, since a frozen state refuses assignment."""
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
