"""The layered cube-free constructions and their block vectors.

For each dimension d the construction is a union of layer runs: include the
first len_1 - 1 layers, skip one, include the next len_2 - 1 layers, skip
one, and so on.  The run lengths are produced by repeatedly removing the
largest power of two below the remaining dimension:

    len_i = floor_log2(d_{i-1}) + 1,   d_i = d_{i-1} - 2^floor_log2(d_{i-1}) + 1

until the dimension reaches one.  Equivalently, the construction for d >= 2
is the union of the first floor_log2(d) layers plus a copy of the
construction for the reduced dimension, embedded by multiplication with
2^(floor_log2(d) + 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError
from .groups import GroupContext, ResidueSet, _layer_mask

MIN_RUN_DIMENSION = 2


def floor_log2(k: int) -> int:
    """Largest integer e with 2^e <= k."""
    if k < 1:
        raise ValueError(f"floor_log2 requires k >= 1, got {k}")
    return k.bit_length() - 1


def reduce_dimension(d: int) -> int:
    """One recursion step: d - 2^floor_log2(d) + 1."""
    if d < MIN_RUN_DIMENSION:
        raise ValueError(f"dimension reduction requires d >= 2, got {d}")
    return d - (1 << floor_log2(d)) + 1


@dataclass(frozen=True)
class BlockVector:
    """Run-length description (len_1, ..., len_q) of the construction for d."""

    lengths: tuple[int, ...]
    d: int

    def __post_init__(self):
        if any(length < 2 for length in self.lengths):
            raise ValueError("every block length must be at least 2")

    @property
    def total(self) -> int:
        return sum(self.lengths)

    def layer_runs(self) -> list[tuple[int, int]]:
        """Included layer intervals [start, end], one per block."""
        runs = []
        start = 1
        for length in self.lengths:
            runs.append((start, start + length - 2))
            start += length
        return runs

    def layer_indices(self) -> tuple[int, ...]:
        out = []
        for lo, hi in self.layer_runs():
            out.extend(range(lo, hi + 1))
        return tuple(out)


def block_vector(d: int) -> BlockVector:
    """Block vector of the construction for dimension d >= 2."""
    if d < MIN_RUN_DIMENSION:
        raise ValueError(f"block vector requires d >= 2, got {d}")
    lengths = []
    remaining = d
    while remaining != 1:
        lengths.append(floor_log2(remaining) + 1)
        remaining = reduce_dimension(remaining)
    return BlockVector(tuple(lengths), d)


def construction_layers(d: int) -> tuple[int, ...]:
    """Indices of the layers included in the construction for d (empty for d = 1)."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if d == 1:
        return ()
    return block_vector(d).layer_indices()


def layered_construction(d: int, ctx: GroupContext) -> ResidueSet:
    """The conjectured-extremal d-cube-free layer union inside Z_{2^n}.

    Raises CapacityError when the last included layer would exceed L_n.
    """
    layers = construction_layers(d)
    if not layers:
        return ResidueSet.empty(ctx)
    top = layers[-1]
    if top > ctx.n:
        raise CapacityError(
            f"construction for d={d} needs layers up to L_{top}, "
            f"but the group only has n={ctx.n}"
        )
    mask = 0
    for i in layers:
        mask |= _layer_mask(ctx.n, i)
    return ResidueSet(ctx, mask)


def construction_size(d: int, ctx: GroupContext) -> int:
    """Cardinality of the construction for d inside Z_{2^n}."""
    return len(layered_construction(d, ctx))

