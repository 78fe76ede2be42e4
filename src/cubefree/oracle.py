"""Brute-force zero-sum oracles over residue collections modulo 2^(k+1).

A residue collection is a multiset of nonzero residues modulo 2^(k+1).  The
central machine-checkable statement about them: a collection of 2^k + x
nonzero residues either has a sub-collection summing to 2^k (mod 2^(k+1)),
or carries x + 1 pairwise disjoint nonempty sub-collections each summing to
0 (mod 2^(k+1)).  ``verify_zero_sum_dichotomy`` exhausts the full multiset
space for small k and reports any counterexample (none are expected).

The three compression operators rewrite a collection at a caller-chosen
site; on collections with no half-modulus subset sum, type 1 preserves the
iterated sumset exactly, types 2 and 3 never enlarge it, and all three
control the number of disjoint zero-sum sub-collections.  Sites are named
explicitly because the interesting applications choose them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterable, Sequence

from .errors import CapacityError, InapplicableCompressionError
from .groups import mask_members, residue_abs

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

    def scaled(self, lam: int) -> "ResidueCollection":
        if lam % 2 == 0:
            raise ValueError("collection scaling must use an odd unit")
        return ResidueCollection.of(self.k, (lam * e for e in self.elements))

    def sumset_mask(self) -> int:
        """Bit mask of all subset sums (the empty sum included)."""
        size = self.modulus
        full = (1 << size) - 1
        reach = 1
        for v in self.elements:
            reach |= ((reach << v) | (reach >> (size - v))) & full
        return reach


def zero_sum_subset(xs: Sequence[int], m: int) -> frozenset[int]:
    """Indices of a nonempty subset of xs whose sum is divisible by m.

    Uses the prefix-sum pigeonhole: among the first m + 1 prefix sums two
    agree modulo m, so some contiguous run of xs sums to 0 (mod m).
    Requires len(xs) >= m, which guarantees existence.
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if len(xs) < m:
        raise ValueError(f"need at least {m} values, got {len(xs)}")
    seen = {0: 0}  # prefix value -> prefix length
    total = 0
    for j, x in enumerate(xs, start=1):
        total = (total + x) % m
        if total in seen:
            return frozenset(range(seen[total], j))
        seen[total] = j
    raise AssertionError("pigeonhole failed; unreachable")


def half_sum_subset(C: ResidueCollection) -> frozenset[int] | None:
    """Indices of a sub-collection summing to 2^k modulo 2^(k+1), or None.

    Exhaustive subset-sum reachability with parent tracking for witness
    extraction.
    """
    mod = C.modulus
    target = C.half
    parents: dict[int, tuple[int, int] | None] = {0: None}
    for idx, v in enumerate(C.elements):
        for s in list(parents):
            t = (s + v) % mod
            if t not in parents:
                parents[t] = (idx, s)
    if target not in parents:
        return None
    indices = []
    node = target
    while parents[node] is not None:
        idx, prev = parents[node]
        indices.append(idx)
        node = prev
    return frozenset(indices)


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
class DichotomyVerdict:
    """Outcome of checking one collection against the zero-sum dichotomy."""

    kind: str  # "half_sum" | "disjoint_zero" | "counterexample"
    half_sum_indices: frozenset[int] | None = None
    certificate: DisjointZeroCertificate | None = None


def check_zero_sum_dichotomy(C: ResidueCollection) -> DichotomyVerdict:
    """Check that C has a half-modulus subset sum or x + 1 disjoint zero parts.

    Here x = |C| - 2^k >= 0.  A "counterexample" verdict would refute the
    dichotomy; it is never expected to occur.
    """
    x = len(C.elements) - (1 << C.k)
    if x < 0:
        raise ValueError(f"collection must have at least 2^k = {1 << C.k} elements")
    witness = half_sum_subset(C)
    if witness is not None:
        return DichotomyVerdict("half_sum", half_sum_indices=witness)
    certificate = disjoint_zero_sets(C, x + 1)
    if certificate is not None:
        return DichotomyVerdict("disjoint_zero", certificate=certificate)
    return DichotomyVerdict("counterexample")


@dataclass(frozen=True)
class ExhaustionReport:
    k: int
    x: int
    space_size: int
    checked: int
    half_sum_count: int
    disjoint_zero_count: int
    counterexamples: tuple[tuple[int, ...], ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def verify_zero_sum_dichotomy(k: int, x: int, budget: int = DEFAULT_INSTANCE_BUDGET) -> ExhaustionReport:
    """Exhaust all multisets of 2^k + x nonzero residues modulo 2^(k+1).

    Raises CapacityError when the multiset space exceeds ``budget``.
    """
    if k < 1 or x < 0:
        raise ValueError("need k >= 1 and x >= 0")
    count = (1 << k) + x
    size = 1 << (k + 1)
    space = math.comb(size - 2 + count, count)
    if space > budget:
        raise CapacityError(
            f"{space} multisets exceed the budget of {budget}", space_size=space
        )
    full = (1 << size) - 1
    target_bit = 1 << (1 << k)
    start = time.perf_counter()
    checked = 0
    half_sums = 0
    zero_parts = 0
    counterexamples = []
    need_parts = x + 1
    for combo in combinations_with_replacement(range(1, size), count):
        checked += 1
        reach = 1
        for v in combo:
            reach |= ((reach << v) | (reach >> (size - v))) & full
        if reach & target_bit:
            half_sums += 1
            continue
        if need_parts == 1:
            # nonempty-subset-sum fold: bit 0 set iff a zero-sum part exists
            fold = 0
            for v in combo:
                fold |= (((fold << v) | (fold >> (size - v))) & full) | (1 << v)
            if fold & 1:
                zero_parts += 1
            else:
                counterexamples.append(combo)
            continue
        C = ResidueCollection(k, combo)
        if disjoint_zero_sets(C, need_parts) is not None:
            zero_parts += 1
        else:
            counterexamples.append(combo)
    return ExhaustionReport(
        k=k,
        x=x,
        space_size=space,
        checked=checked,
        half_sum_count=half_sums,
        disjoint_zero_count=zero_parts,
        counterexamples=tuple(counterexamples),
        elapsed=time.perf_counter() - start,
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
