"""Arithmetic and layer structure of the cyclic group Z_{2^n}.

Residues are canonicalized to [0, 2^n - 1]; negative inputs are reduced at
the interface boundary.  Sets of residues are stored as bit masks (bit x is
set iff residue x belongs to the set), which keeps the shift/union/
intersection primitives used by the exhaustive checks cheap.

The mask kernels live here and nowhere else: ``shift_mask`` (the translate
A + c, the fold step of ``cube_mask``), ``subset_sums`` (the fold behind
collection sumsets and half-sum tests) and ``scale_mask`` (the dilate
lam * A, odd scaling in particular).
Detection and counting read each translate A - x off the doubled mask
A | A << 2^n with one right shift instead.

The i'th layer L_i (1 <= i <= n) consists of the residues congruent to
2^(i-1) modulo 2^i, i.e. the residues of 2-adic valuation i-1; the extra
layer L_{n+1} is {0}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

from .errors import RangeError

MAX_N = 21  # every set is a 2^n-bit mask, 256 KiB at n = 21 (the d = 59 construction)


@dataclass(frozen=True)
class GroupContext:
    """The ambient group Z_{2^n}, with 1 <= n <= MAX_N."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_N:
            raise RangeError(f"group exponent must be an integer in [1, {MAX_N}], "
                             f"got {self.n!r}")

    # cached in the instance dict (no __slots__); eq and hash still use n only
    @cached_property
    def modulus(self) -> int:
        return 1 << self.n

    @cached_property
    def full_mask(self) -> int:
        return (1 << (1 << self.n)) - 1

    def reduce(self, x: int) -> int:
        return x & (self.modulus - 1)


def shift_mask(mask: int, c: int, ctx: GroupContext) -> int:
    """Bit mask of {x + c : x in mask}, cyclically modulo 2^n."""
    size = ctx.modulus
    c %= size
    if c == 0:
        return mask
    return ((mask << c) | (mask >> (size - c))) & ctx.full_mask


def subset_sums(elements: Iterable[int], size: int) -> int:
    """Bit mask of all subset sums of residues in [0, size), the empty sum included."""
    full = (1 << size) - 1
    reach = 1
    for a in elements:
        reach |= ((reach << a) | (reach >> (size - a))) & full
    return reach


def scale_mask(mask: int, lam: int, size: int) -> int:
    """Bit mask of {lam * x mod size : x in mask} (any integer lam)."""
    scaled = 0
    while mask:
        low = mask & -mask
        mask ^= low
        scaled |= 1 << (lam * (low.bit_length() - 1) % size)
    return scaled


def mask_members(mask: int) -> Iterator[int]:
    """Yield the set bits of ``mask`` in ascending order."""
    if mask.bit_length() <= 4096:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low
        return
    # byte-wise walk: repeated low-bit clearing is quadratic on huge masks
    for byte_index, byte in enumerate(mask.to_bytes((mask.bit_length() + 7) // 8, "little")):
        while byte:
            low = byte & -byte
            yield (byte_index << 3) + low.bit_length() - 1
            byte ^= low


@dataclass(frozen=True)
class ResidueSet:
    """A subset of Z_{2^n}, bit-indexed."""

    ctx: GroupContext
    mask: int = 0

    def __post_init__(self):
        if self.mask < 0 or self.mask > self.ctx.full_mask:
            raise RangeError("set mask does not fit the group")

    @classmethod
    def from_members(cls, ctx: GroupContext, members: Iterable[int]) -> "ResidueSet":
        buf = bytearray(max(ctx.modulus >> 3, 1))
        for x in members:
            x = ctx.reduce(x)
            buf[x >> 3] |= 1 << (x & 7)
        return cls(ctx, int.from_bytes(buf, "little"))

    @classmethod
    def empty(cls, ctx: GroupContext) -> "ResidueSet":
        return cls(ctx, 0)

    @classmethod
    def full(cls, ctx: GroupContext) -> "ResidueSet":
        return cls(ctx, ctx.full_mask)

    def members(self) -> list[int]:
        return list(mask_members(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.ctx.modulus and bool(self.mask >> x & 1)

    def __iter__(self) -> Iterator[int]:
        return mask_members(self.mask)

    def __or__(self, other: "ResidueSet") -> "ResidueSet":
        self._check_ctx(other)
        return ResidueSet(self.ctx, self.mask | other.mask)

    def __and__(self, other: "ResidueSet") -> "ResidueSet":
        self._check_ctx(other)
        return ResidueSet(self.ctx, self.mask & other.mask)

    def __sub__(self, other: "ResidueSet") -> "ResidueSet":
        self._check_ctx(other)
        return ResidueSet(self.ctx, self.mask & ~other.mask)

    def complement(self) -> "ResidueSet":
        return ResidueSet(self.ctx, self.ctx.full_mask & ~self.mask)

    def issubset(self, other: "ResidueSet") -> bool:
        self._check_ctx(other)
        return self.mask & ~other.mask == 0

    def with_member(self, x: int) -> "ResidueSet":
        return ResidueSet(self.ctx, self.mask | 1 << self.ctx.reduce(x))

    def _check_ctx(self, other: "ResidueSet") -> None:
        if other.ctx != self.ctx:
            raise ValueError("sets live in different groups")


@dataclass(frozen=True)
class GeneratorMultiset:
    """A multiset of residues, kept sorted non-decreasing."""

    ctx: GroupContext
    elements: tuple[int, ...]

    def __post_init__(self):
        if any(not 0 <= a < self.ctx.modulus for a in self.elements):
            raise RangeError("generator outside [0, 2^n - 1]")
        if list(self.elements) != sorted(self.elements):
            raise ValueError("generator multiset must be sorted non-decreasing")

    @classmethod
    def of(cls, ctx: GroupContext, elements: Iterable[int]) -> "GeneratorMultiset":
        return cls(ctx, tuple(sorted(ctx.reduce(a) for a in elements)))

    def __len__(self) -> int:
        return len(self.elements)


@lru_cache(maxsize=None)
def _layer_mask(n: int, i: int) -> int:
    if i == n + 1:
        return 1
    size = 1 << n
    step = 1 << i
    # bits at the multiples of 2^i, shifted up to start at 2^(i-1)
    return ((1 << size) - 1) // ((1 << step) - 1) << (1 << (i - 1))


def layer_set(i: int, ctx: GroupContext) -> ResidueSet:
    """The layer L_i as a set; |L_i| = 2^(n-i) for i <= n, |L_{n+1}| = 1."""
    if not 1 <= i <= ctx.n + 1:
        raise RangeError(f"layer index {i} outside [1, {ctx.n + 1}]")
    return ResidueSet(ctx, _layer_mask(ctx.n, i))


def layer_range_set(a: int, b: int, ctx: GroupContext) -> ResidueSet:
    """The union L_a | L_{a+1} | ... | L_b."""
    if a > b:
        raise ValueError(f"empty layer range [{a}, {b}]")
    if not 1 <= a or not b <= ctx.n + 1:
        raise RangeError(f"layer range [{a}, {b}] outside [1, {ctx.n + 1}]")
    mask = 0
    for i in range(a, b + 1):
        mask |= _layer_mask(ctx.n, i)
    return ResidueSet(ctx, mask)


def centred_set(m: int, ctx: GroupContext) -> ResidueSet:
    """Canonical centred set of size m: largest layers first.

    Full layers L_1, L_2, ... while they fit, then the numerically smallest
    residues of the first layer that does not.
    """
    if not 0 <= m <= ctx.modulus:
        raise RangeError(f"cardinality {m} outside [0, {ctx.modulus}]")
    mask = 0
    for i in range(1, ctx.n + 2):
        if m == 0:
            break
        layer = _layer_mask(ctx.n, i)
        size = layer.bit_count()
        if size <= m:
            mask |= layer
            m -= size
        else:
            for x in mask_members(layer):
                mask |= 1 << x
                m -= 1
                if m == 0:
                    break
    return ResidueSet(ctx, mask)


def residue_abs(t: int, k: int) -> int:
    """Minimal absolute value of the residue class of t modulo 2^(k+1)."""
    modulus = 1 << (k + 1)
    if not 0 <= t < modulus:
        raise RangeError(f"residue {t} outside [0, {modulus - 1}]")
    return min(t, modulus - t)
