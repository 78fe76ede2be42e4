"""Schur-triple counting and the layer-profile lower bound.

ST(A) counts ordered triples (x, y, z) in A^3 with x + y = z; (x, y, z) and
(y, x, z) are distinct when x != y, and x = y is allowed.  ST and its
per-layer split are pair counts of one kernel, ``_pair_sums_in(X, Y, Z, n)``
= #{(x, y) in X x Y : x + y mod 2^n in Z}: ST(A) is (A, A, A).  The naive
triple loop is kept in ``tests/test_counting.py`` as the test oracle.

The kernel has two paths.  The product spreads each mask into fields of
n + 1 bits, bit x to bit (n + 1) x: eight fields of n + 1 bits are n + 1
bytes, so the spread is one 256-entry byte table per n, one ``b"".join``
and one ``int.from_bytes``.  In the product of the spreads of X and Y (a
squaring when X = Y) field s counts the pairs with x + y = s, 0 <= s <
2^(n+1) - 1.  Adding the product shifted down by 2^n fields folds field
s + 2^n onto field s, which then holds the cyclic count, at most 2^n: it
fits n + 1 bits, so no field carries into the next.  ANDing with the spread
of Z times 2^(n+1) - 1 keeps the fields of Z.  Their total is one modulo:
adding the fields at odd positions onto those at even ones (the even mask
keeps every bit of the even fields) leaves 2(n + 1)-bit slots of at most
2^(n+1) each, and the slots sum modulo 2^(2n+2) - 1, as 2^(2n+2) is 1
there.  The total is at most 4^n, below that modulus, so the sum is exact.
The tables are built at first use and kept for every n <= 10 and one wider
n (5.8 MB of even mask at n = 21).

The product costs the same for every pair of sets of a given n, so sparse
sets keep the loop: for each x in the smaller of X and Y, popcount Y & (Z
- x), each Z - x read off the doubled mask Z | Z << 2^n by a right shift.
The loop runs when that set has fewer than max(12, 2^n / 8) members.  On a
2-vCPU Xeon VM (CPython 3.11.7, X = Y = Z, best of 5) the two paths cross
at 5 to 8 members for n = 4 to 6, at 10 to 12 for n = 7, at about 22 for n = 8
and at about 2^n / 8 for n = 9 and 10; from n = 10 to 18 the loop over
2^n / 8 members takes 0.6 to 1.6 times the product's time, and over
2^n / 4 members 1.2 to 2.0 times.  Below 12 members at n = 4 to 6 the
product would save about 0.02 s of the 0.1 s that all 65,536 sets of
Z_{2^4} take, so the rule stands.  A random set of Z_{2^8} counts in about
6 us.

A Schur triple never has its three members in three distinct layers, and
never all three in one layer -- with the single exception of (0, 0, 0),
which therefore escapes the per-layer decomposition below.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import GroupContext, ResidueSet, _KernelTables, _layer_masks, mask_members

# the loop walks the smaller of X and Y when it has fewer than max(12, 2^n / 8) members
_LOOP_MEMBERS = 12
_LOOP_SHARE = 8


def _build_spread(n: int) -> tuple[tuple[bytes, ...], int]:
    """The byte table of the (n + 1)-bit field spread of Z_{2^n}, and its even mask.

    Entry v holds bits j of v in fields j: n + 1 bytes for eight fields.  The
    even mask has every bit of the fields at even positions set.
    """
    width = n + 1
    table = tuple(sum(1 << width * j for j in range(8) if v >> j & 1).to_bytes(width, "little")
                  for v in range(256))
    return table, int.from_bytes(table[0x55] * ((1 << n) >> 3), "little") * ((1 << width) - 1)


_spread_tables = _KernelTables(_build_spread)


def _pair_sums_in(X: int, Y: int, Z: int, n: int) -> int:
    """#{(x, y) in X x Y : x + y mod 2^n in Z}, for masks X, Y, Z of Z_{2^n}."""
    size = 1 << n
    if Y.bit_count() < X.bit_count():
        X, Y = Y, X  # the count is symmetric in X and Y
    members = X.bit_count()
    if members < _LOOP_MEMBERS or members * _LOOP_SHARE < size:
        # bit y < 2^n of doubled >> x is set iff y + x (mod 2^n) lies in Z
        doubled = Z | Z << size
        total = 0
        for x in mask_members(X):
            total += (Y & (doubled >> x)).bit_count()
        return total
    table, even = _spread_tables[n]
    nbytes = size >> 3  # 2^n >= _LOOP_MEMBERS here, so n >= 4 and the mask is whole bytes
    spread_x = _spread(X, table, nbytes)
    spread_y = spread_x if Y == X else _spread(Y, table, nbytes)
    spread_z = spread_x if Z == X else spread_y if Z == Y else _spread(Z, table, nbytes)
    width = n + 1
    product = spread_x * spread_y  # a squaring when X == Y: the same object twice
    selected = (product + (product >> (width << n))) & spread_z * ((1 << width) - 1)
    # adjacent fields summed into 2w-bit slots, then the slots by one modulo 2^(2w) - 1
    return ((selected & even) + (selected >> width & even)) % ((1 << 2 * width) - 1)


def _spread(mask: int, table: tuple[bytes, ...], nbytes: int) -> int:
    """``mask`` with bit x moved to bit (n + 1) x: one table entry per byte."""
    return int.from_bytes(b"".join([table[v] for v in mask.to_bytes(nbytes, "little")]), "little")


def count_schur_triples(A: ResidueSet) -> int:
    """Number of ordered triples (x, y, z) in A^3 with x + y = z."""
    return _pair_sums_in(A.mask, A.mask, A.mask, A.ctx.n)


@dataclass(frozen=True)
class LayerProfile:
    """Per-layer cardinalities of a set: sizes[a-1] = |S & L_a| for a in [1, n+1]."""

    n: int
    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.sizes) != self.n + 1:
            raise ValueError("profile must carry one entry per layer")


def layer_profile(A: ResidueSet) -> LayerProfile:
    n = A.ctx.n
    mask = A.mask
    return LayerProfile(n, tuple([(mask & layer).bit_count() for layer in _layer_masks(n)]))


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
    """Triple counts per layer a in [1, n]; they total ST(A) less the triple (0, 0, 0)."""
    n = A.ctx.n
    amask = A.mask
    result = {}
    above = amask
    for a, layer in enumerate(_layer_masks(n)[:n], 1):
        sa = amask & layer
        above ^= sa  # S_{a+} = S & (L_{a+1} | ... | L_{n+1})
        # y above a with x + y back in L_a; x above a with x + y in L_a is the
        # same count, by symmetry of x and y
        middle_above = _pair_sums_in(sa, above, sa, n)
        result[a] = LayerTripleCounts(_pair_sums_in(sa, sa, above, n), middle_above, middle_above)
    return result


def schur_lower_bound(profile: LayerProfile, ctx: GroupContext) -> int:
    """The profile-only lower bound on ST: it never exceeds the true count.

    Per layer a the bound is three times
    max(|S_a| (|S_{a+}| - |L_a| + |S_a|), |S_{a+}| (2 |S_a| - |L_a|), 0).
    """
    n = ctx.n
    if profile.n != n:
        raise ValueError("profile does not match the group")
    sizes = profile.sizes
    total = 0
    s_plus = sizes[n]  # |S_{a+}| = |S & (L_{a+1} | ... | L_{n+1})|
    layer_size = 1  # |L_a| = 2^(n - a)
    for sa in sizes[n - 1::-1]:  # |S_a| for a = n down to 1
        bound = sa * (s_plus - layer_size + sa)
        other = s_plus * (2 * sa - layer_size)
        if other > bound:
            bound = other
        if bound > 0:
            total += bound
        s_plus += sa
        layer_size <<= 1
    return 3 * total
