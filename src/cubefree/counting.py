"""Schur-triple counting and the layer-profile lower bound.

ST(A) counts ordered triples (x, y, z) in A^3 with x + y = z; (x, y, z) and
(y, x, z) are distinct when x != y, and x = y is allowed.  The count is
computed per first coordinate x as |A & (A - x)|, each A - x read off the
doubled mask A | A << 2^n by a right shift; the naive triple loop is kept
in ``tests/test_counting.py`` as the test oracle.

A Schur triple never has its three members in three distinct layers, and
never all three in one layer -- with the single exception of (0, 0, 0),
which therefore escapes the per-layer decomposition below.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import GroupContext, ResidueSet, _layer_masks, mask_members


def count_schur_triples(A: ResidueSet) -> int:
    """Number of ordered triples (x, y, z) in A^3 with x + y = z."""
    amask = A.mask
    # for y < 2^n, bit y of doubled >> x is set iff y + x (mod 2^n) lies in A
    doubled = amask | amask << A.ctx.modulus
    total = 0
    for x in mask_members(amask):
        # pairs with first coordinate x: y must lie in A and in A - x
        total += (amask & (doubled >> x)).bit_count()
    return total


@dataclass(frozen=True)
class LayerProfile:
    """Per-layer cardinalities of a set: sizes[a-1] = |S & L_a| for a in [1, n+1]."""

    n: int
    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.sizes) != self.n + 1:
            raise ValueError("profile must carry one entry per layer")

    def size_of(self, a: int) -> int:
        return self.sizes[a - 1]


def layer_profile(A: ResidueSet) -> LayerProfile:
    n = A.ctx.n
    return LayerProfile(n, tuple((A.mask & layer).bit_count() for layer in _layer_masks(n)))


@dataclass(frozen=True)
class LayerTripleCounts:
    """Schur triples split by which coordinate leaves the layer L_a.

    sum_above:    x, y in L_a and z = x + y in a layer above a
    middle_above: x, z in L_a and y in a layer above a
    first_above:  y, z in L_a and x in a layer above a
    """

    sum_above: int
    middle_above: int
    first_above: int

    @property
    def total(self) -> int:
        return self.sum_above + self.middle_above + self.first_above


def count_triples_by_layer(A: ResidueSet) -> dict[int, LayerTripleCounts]:
    """Triple counts per layer a in [1, n]; totals ST(A) when 0 is not in A."""
    n = A.ctx.n
    size = A.ctx.modulus
    amask = A.mask
    result = {}
    below = 0  # L_1 | ... | L_a
    for a, layer in enumerate(_layer_masks(n)[:n], 1):
        below |= layer
        sa = amask & layer
        s_plus = amask & ~below
        # bit y < 2^n of doubled >> x is set iff y + x (mod 2^n) lies in the set
        sa_doubled = sa | sa << size
        s_plus_doubled = s_plus | s_plus << size
        sum_above = 0
        middle_above = 0
        for x in mask_members(sa):
            # y in L_a with x + y above a
            sum_above += (sa & (s_plus_doubled >> x)).bit_count()
            # y above a with x + y back in L_a
            middle_above += (s_plus & (sa_doubled >> x)).bit_count()
        # x above a with x + y in L_a is the same count, by symmetry of x and y
        result[a] = LayerTripleCounts(sum_above, middle_above, middle_above)
    return result


def schur_lower_bound(profile: LayerProfile, ctx: GroupContext) -> int:
    """The profile-only lower bound on ST: it never exceeds the true count.

    Per layer a the bound is three times
    max(|S_a| (|S_{a+}| - |L_a| + |S_a|), |S_{a+}| (2 |S_a| - |L_a|), 0).
    """
    if profile.n != ctx.n:
        raise ValueError("profile does not match the group")
    total = 0
    s_plus = profile.size_of(ctx.n + 1)  # |S_{a+}| = |S & (L_{a+1} | ... | L_{n+1})|
    for a in range(ctx.n, 0, -1):
        layer_size = 1 << (ctx.n - a)
        sa = profile.size_of(a)
        total += max(sa * (s_plus - layer_size + sa), s_plus * (2 * sa - layer_size), 0)
        s_plus += sa
    return 3 * total
