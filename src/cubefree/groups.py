"""Arithmetic and layer structure of the cyclic group Z_{2^n}.

Residues are canonicalized to [0, 2^n - 1]; negative inputs are reduced at
the interface boundary.  Sets of residues are stored as bit masks (bit x is
set iff residue x belongs to the set), which keeps the shift/union/
intersection primitives used by the exhaustive checks cheap.

The mask kernels live here and nowhere else: ``shift_mask`` (the translate
A + c, the fold step of ``cube_mask``) and ``subset_sums`` (the fold behind
collection sumsets and half-sum tests).
Detection, and counting on sparse sets, read each translate A - x off the
doubled mask A | A << 2^n with one right shift instead.  Detection's
canonical form halves all-even sets with ``_halve_even``, a log-step bit
compress at every n.

The i'th layer L_i (1 <= i <= n) consists of the residues congruent to
2^(i-1) modulo 2^i, i.e. the residues of 2-adic valuation i-1; the extra
layer L_{n+1} is {0}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


def _halve_even(mask: int, n: int) -> int:
    """Bit mask of {x / 2 : x in mask} in Z_{2^(n-1)}, for a mask of even residues of Z_{2^n}."""
    for shift, keep in _halving_tables.get(n) or _halving_tables.holding(mask, n):
        mask = (mask | mask >> shift) & keep
    return mask


def _periodic(block: int, period: int, n: int) -> int:
    """``block`` (below 2^period) repeated every ``period`` bits up to bit 2^n; period = 2^k <= 2^n."""
    width = 1 << n
    while period < width:
        block |= block << period
        period <<= 1
    return block


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


_TABLE_MAX_N = 10  # every kernel table of at most 2^10 bits is kept, and the last wider one built


class _KernelTables(dict):
    """n -> ``build(n)``, a kernel table of Z_{2^n} built at first use; every n <= _TABLE_MAX_N is kept, one wider n."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, n: int):
        if n > _TABLE_MAX_N and max(self, default=0) > _TABLE_MAX_N:
            del self[max(self)]
        table = self[n] = self.build(n)
        return table

    def holding(self, mask: int, n: int):
        """A table agreeing with n's on a mask: n's own up to _TABLE_MAX_N, above it the kept wide one
        if that holds the mask's members, else that of the least group holding them.

        Call as ``tables.get(n) or tables.holding(mask, n)``: one dict lookup when n's table is kept.
        """
        least = n if n <= _TABLE_MAX_N else min(n, (mask.bit_length() - 1).bit_length())
        kept = max(self, default=0)
        return self[kept] if kept >= least > _TABLE_MAX_N else self[least]


def _build_layer_masks(n: int) -> tuple[int, ...]:
    """Masks of the layers of Z_{2^n}, entry v: L_(v+1); bit 2^v repeated every 2^(v+1) bits."""
    return tuple(_periodic(1 << (1 << v), 2 << v, n) for v in range(n)) + (1,)


def _build_halving_masks(n: int) -> tuple[tuple[int, int], ...]:
    # step s packs the s data bits in the low half of each 2s-bit block into the low half of each
    # 4s-bit block; past s = 2^(n-2) it changes no mask of Z_{2^n}, so wider tables serve it too
    return tuple((s, _periodic((1 << (2 * s)) - 1, 4 * s, n)) for s in (1 << i for i in range(n - 1)))


_layer_tables = _KernelTables(_build_layer_masks)
_layer_masks = _layer_tables.__getitem__  # bound once, so each call is one dict lookup
_halving_tables = _KernelTables(_build_halving_masks)


def layer_set(i: int, ctx: GroupContext) -> ResidueSet:
    """The layer L_i as a set; |L_i| = 2^(n-i) for i <= n, |L_{n+1}| = 1."""
    if not 1 <= i <= ctx.n + 1:
        raise RangeError(f"layer index {i} outside [1, {ctx.n + 1}]")
    return ResidueSet(ctx, _layer_masks(ctx.n)[i - 1])


def layer_range_set(a: int, b: int, ctx: GroupContext) -> ResidueSet:
    """The union L_a | L_{a+1} | ... | L_b."""
    if a > b:
        raise ValueError(f"empty layer range [{a}, {b}]")
    if not 1 <= a or not b <= ctx.n + 1:
        raise RangeError(f"layer range [{a}, {b}] outside [1, {ctx.n + 1}]")
    mask = 0
    for layer in _layer_masks(ctx.n)[a - 1:b]:
        mask |= layer
    return ResidueSet(ctx, mask)


def centred_set(m: int, ctx: GroupContext) -> ResidueSet:
    """Canonical centred set of size m: largest layers first.

    Full layers L_1, L_2, ... while they fit, then the numerically smallest
    residues of the first layer that does not.
    """
    if not 0 <= m <= ctx.modulus:
        raise RangeError(f"cardinality {m} outside [0, {ctx.modulus}]")
    mask = 0
    for layer in _layer_masks(ctx.n):
        if m == 0:
            break
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
