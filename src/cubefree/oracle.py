"""Brute-force zero-sum oracles over residue collections modulo 2^(k+1).

A residue collection is a multiset of nonzero residues modulo 2^(k+1).  The
central machine-checkable statement about them: a collection of 2^k + x
nonzero residues either has a sub-collection summing to 2^k (mod 2^(k+1)),
or carries x + 1 pairwise disjoint nonempty sub-collections each summing to
0 (mod 2^(k+1)).  ``verify_zero_sum_dichotomy`` settles every multiset for
small k and reports any counterexample (none are expected); subset sums only
grow, so half sums are counted by stopping at the first prefix reaching 2^k.

The three compression operators rewrite a collection at a caller-chosen
site; on collections with no half-modulus subset sum, type 1 preserves the
iterated sumset exactly, types 2 and 3 never enlarge it, and all three
control the number of disjoint zero-sum sub-collections.  Sites are named
explicitly because the interesting applications choose them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapacityError, InapplicableCompressionError, comb_within_budget
from .groups import GroupContext, mask_members, residue_abs, shift_mask, subset_sums

DEFAULT_INSTANCE_BUDGET = 100_000_000
_SUBSET_ENUM_LIMIT = 22  # collections above this size would need > 4M subset masks


@dataclass(frozen=True)
class ResidueCollection:
    """A multiset of nonzero residues modulo 2^(k+1), kept sorted."""

    k: int
    elements: tuple[int, ...]

    def __post_init__(self):
        mod = self.modulus
        if any(not 1 <= e < mod for e in self.elements):
            raise ValueError(f"elements must be nonzero residues in [1, {mod - 1}]")
        if list(self.elements) != sorted(self.elements):
            raise ValueError("collection elements must be sorted")

    @classmethod
    def of(cls, k: int, elements: Iterable[int]) -> "ResidueCollection":
        mod = 1 << (k + 1)
        reduced = tuple(sorted(e % mod for e in elements))
        return cls(k, reduced)

    @property
    def modulus(self) -> int:
        return 1 << (self.k + 1)

    @property
    def half(self) -> int:
        return 1 << self.k

    def __len__(self) -> int:
        return len(self.elements)

    def count(self, value: int) -> int:
        return self.elements.count(value % self.modulus)

    def count_unit_pairs(self) -> int:
        """Number of elements equal to +1 or -1."""
        return self.count(1) + self.count(self.modulus - 1)

    def replace(self, removed: Sequence[int], added: Sequence[int]) -> "ResidueCollection":
        items = list(self.elements)
        for r in removed:
            items.remove(r % self.modulus)
        items.extend(a % self.modulus for a in added)
        return ResidueCollection.of(self.k, items)

    def sumset_mask(self) -> int:
        """Bit mask of all subset sums (the empty sum included)."""
        return subset_sums(self.elements, self.modulus)


def _zero_sum_index_masks(C: ResidueCollection) -> list[int]:
    """All nonempty index subsets whose elements sum to 0 modulo 2^(k+1)."""
    s = len(C.elements)
    if s > _SUBSET_ENUM_LIMIT:
        raise CapacityError(
            f"zero-sum subset enumeration over {s} elements exceeds the limit",
            space_size=1 << s,
        )
    mod = C.modulus
    sums = [0] * (1 << s)
    masks = []
    for m in range(1, 1 << s):
        low = m & -m
        sums[m] = (sums[m ^ low] + C.elements[low.bit_length() - 1]) % mod
        if sums[m] == 0:
            masks.append(m)
    return masks


@dataclass(frozen=True)
class DisjointZeroCertificate:
    """Pairwise-disjoint nonempty index sets, each summing to 0 modulo 2^(k+1)."""

    parts: tuple[frozenset[int], ...]

    def verify(self, C: ResidueCollection) -> bool:
        used: set[int] = set()
        for part in self.parts:
            if not part or used & part:
                return False
            if sum(C.elements[i] for i in part) % C.modulus != 0:
                return False
            used |= part
        return True


def _largest_disjoint_family(C: ResidueCollection) -> tuple[int, ...]:
    """Index masks of a largest family of disjoint zero-sum parts, by lowest index.

    Memoized DP, local to the call, on the mask R of free indices:
    f(R) = max(f(R - min R), 1 + f(R - T)) over the zero-sum masks T inside R
    whose lowest index is min R.  The memo keeps a largest family per R.
    """
    by_min: list[list[int]] = [[] for _ in C.elements]
    for mask in _zero_sum_index_masks(C):
        by_min[(mask & -mask).bit_length() - 1].append(mask)
    memo: dict[int, tuple[int, ...]] = {0: ()}

    def solve(free: int) -> tuple[int, ...]:
        family = memo.get(free)
        if family is None:
            low = free & -free
            family = solve(free ^ low)
            for mask in by_min[low.bit_length() - 1]:
                if mask & free == mask and len(rest := solve(free ^ mask)) >= len(family):
                    family = (mask, *rest)
            memo[free] = family
        return family

    return solve((1 << len(C.elements)) - 1)


def disjoint_zero_sets(C: ResidueCollection, m: int) -> DisjointZeroCertificate | None:
    """m pairwise-disjoint nonempty zero-sum sub-collections, or None.

    The first m parts, by smallest contained index, of a largest family found
    by an exact memoized DP over the indices still free.
    """
    if m < 1:
        raise ValueError(f"part count must be positive, got {m}")
    parts = _largest_disjoint_family(C)
    if len(parts) < m:
        return None
    return DisjointZeroCertificate(tuple(frozenset(mask_members(mask)) for mask in parts[:m]))


def max_disjoint_zero_sets(C: ResidueCollection) -> int:
    """Largest m admitting m pairwise-disjoint zero-sum sub-collections."""
    return len(_largest_disjoint_family(C))


@dataclass(frozen=True)
class ExhaustionReport:
    k: int
    x: int
    space_size: int
    checked: int
    half_sum_count: int
    disjoint_zero_count: int
    counterexamples: tuple[tuple[int, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _half_sum_free_multisets(k: int, length: int | None = None):
    """Sorted multisets of nonzero residues mod 2^(k+1) with no subset sum 2^k.

    Walked depth first in ``combinations_with_replacement`` order, stopping at a
    prefix reaching 2^k (every extension does too); only ``length`` residues if given.
    """
    ctx = GroupContext(k + 1)
    half = 1 << (1 << k)
    stack = [((), 1)]  # (elements, mask of their subset sums)
    while stack:
        elements, reach = stack.pop()
        if length is None or len(elements) == length:
            yield elements
        if len(elements) != length:
            for r in range(ctx.modulus - 1, (elements[-1] if elements else 1) - 1, -1):
                grown = reach | shift_mask(reach, r, ctx)
                if not grown & half:
                    stack.append((elements + (r,), grown))


def verify_zero_sum_dichotomy(k: int, x: int, budget: int = DEFAULT_INSTANCE_BUDGET) -> ExhaustionReport:
    """Settle all multisets of 2^k + x nonzero residues modulo 2^(k+1).

    Only the half-sum-free ones are walked; ``half_sum_count`` is the rest of
    the space.  Raises CapacityError when the space exceeds ``budget``.
    """
    if k < 1 or x < 0:
        raise ValueError("need k >= 1 and x >= 0")
    count = (1 << k) + x
    space = comb_within_budget((1 << (k + 1)) - 2 + count, count, budget, "multisets")
    walked = 0
    counterexamples = []
    for combo in _half_sum_free_multisets(k, count):
        walked += 1
        if disjoint_zero_sets(ResidueCollection(k, combo), x + 1) is None:
            counterexamples.append(combo)
    return ExhaustionReport(
        k=k,
        x=x,
        space_size=space,
        checked=space,
        half_sum_count=space - walked,
        disjoint_zero_count=walked - len(counterexamples),
        counterexamples=tuple(counterexamples),
    )


def compress_type1(C: ResidueCollection, t: int) -> ResidueCollection:
    """Replace t (with 1 < |t| <= units + 1) by |t| copies of +1 or -1."""
    mod = C.modulus
    t %= mod
    if C.count(t) == 0:
        raise InapplicableCompressionError(f"collection has no copy of {t}")
    at = residue_abs(t, C.k)
    if at <= 1:
        raise InapplicableCompressionError(f"|{t}| = {at} lies outside (1, 2^k]")
    units = C.count_unit_pairs()
    if units == 0:
        raise InapplicableCompressionError("no copies of +1 or -1 present")
    if at > units + 1:
        raise InapplicableCompressionError(
            f"|{t}| = {at} exceeds the {units} unit copies plus one"
        )
    rep = 1 if 1 <= t <= C.half - 1 else mod - 1
    return C.replace([t], [rep] * at)


def compress_type2(C: ResidueCollection, t: int) -> ResidueCollection:
    """Replace two copies of 2^k - t by two copies of -t (requires a -t present)."""
    mod = C.modulus
    neg_t = (-t) % mod
    partner = (C.half - t) % mod
    if C.count(neg_t) == 0:
        raise InapplicableCompressionError(f"collection has no copy of -t = {neg_t}")
    if C.count(partner) < 2:
        raise InapplicableCompressionError(
            f"collection needs two copies of 2^k - t = {partner}"
        )
    return C.replace([partner, partner], [neg_t, neg_t])


def compress_type3(C: ResidueCollection, u: int, v: int) -> ResidueCollection:
    """Replace u and v in [(3/2) 2^(k-1), 2^k - 1] by u - 2^k and v - 2^k."""
    if C.k < 2:
        raise InapplicableCompressionError("type 3 needs k >= 2 for a nonempty range")
    mod = C.modulus
    lo = 3 << (C.k - 2)
    hi = C.half - 1
    u %= mod
    v %= mod
    for name, val in (("u", u), ("v", v)):
        if not lo <= val <= hi:
            raise InapplicableCompressionError(
                f"{name} = {val} lies outside [{lo}, {hi}]"
            )
    if u == v:
        if C.count(u) < 2:
            raise InapplicableCompressionError(f"collection needs two copies of {u}")
    elif C.count(u) < 1 or C.count(v) < 1:
        raise InapplicableCompressionError("collection lacks the requested u, v copies")
    if C.count_unit_pairs() < 1 << (C.k - 1):
        raise InapplicableCompressionError(
            f"fewer than 2^(k-1) = {1 << (C.k - 1)} copies of +1/-1 present"
        )
    return C.replace([u, v], [(u - C.half) % mod, (v - C.half) % mod])


def compress(C: ResidueCollection, kind: str, *, t: int | None = None,
             u: int | None = None, v: int | None = None) -> ResidueCollection:
    """Dispatch a compression by kind: 'type1'/'type2' need t, 'type3' needs u and v."""
    if kind == "type1":
        if t is None:
            raise ValueError("type 1 compression needs the site t")
        return compress_type1(C, t)
    if kind == "type2":
        if t is None:
            raise ValueError("type 2 compression needs the site t")
        return compress_type2(C, t)
    if kind == "type3":
        if u is None or v is None:
            raise ValueError("type 3 compression needs the sites u and v")
        return compress_type3(C, u, v)
    raise ValueError(f"unknown compression kind {kind!r}")
