"""Projective cubes.

The projective cube of a multiset S = {a_1, ..., a_d} is the set of all
nonempty-subset sums of S (modulo 2^n).  It is computed by incremental
shift-union folding over a bit mask: introducing a generator a maps the
current sum set P to P | (P + a) | {a}.  Explicit subset enumeration is
kept as a test oracle only.
"""

from __future__ import annotations

from typing import Sequence

from .groups import GeneratorMultiset, GroupContext, ResidueSet, shift_mask


def cube_mask(elements: Sequence[int], ctx: GroupContext) -> int:
    """Bit mask of all nonempty-subset sums of ``elements``."""
    mask = 0
    for a in elements:
        mask |= shift_mask(mask, a, ctx) | (1 << (a % ctx.modulus))
    return mask


def projective_cube(gens: GeneratorMultiset) -> ResidueSet:
    """The set of nonempty-subset sums of the generators."""
    if not gens.elements:
        raise ValueError("projective cube requires at least one generator")
    return ResidueSet(gens.ctx, cube_mask(gens.elements, gens.ctx))
