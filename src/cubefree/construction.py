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

from .errors import CapacityError
from .groups import GroupContext, ResidueSet, _layer_masks


def floor_log2(k: int) -> int:
    """Largest integer e with 2^e <= k."""
    if k < 1:
        raise ValueError(f"floor_log2 requires k >= 1, got {k}")
    return k.bit_length() - 1


def block_vector(d: int) -> tuple[int, ...]:
    """Block vector (len_1, ..., len_q) of the construction for dimension d >= 2."""
    if d < 2:
        raise ValueError(f"block vector requires d >= 2, got {d}")
    lengths = []
    while d != 1:
        e = floor_log2(d)
        lengths.append(e + 1)
        d -= (1 << e) - 1
    return tuple(lengths)


def construction_layers(d: int) -> tuple[int, ...]:
    """Indices of the layers included in the construction for d (empty for d = 1)."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if d == 1:
        return ()
    layers = []
    start = 1
    for length in block_vector(d):
        layers.extend(range(start, start + length - 1))
        start += length
    return tuple(layers)


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
    masks = _layer_masks(ctx.n)
    mask = 0
    for i in layers:
        mask |= masks[i - 1]
    return ResidueSet(ctx, mask)


def construction_size(d: int, ctx: GroupContext) -> int:
    """Cardinality of the construction for d inside Z_{2^n}."""
    return len(layered_construction(d, ctx))

