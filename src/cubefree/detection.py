"""Exact projective-cube detection inside subsets of Z_{2^n}.

The decision engine rests on one identity.  If the generators chosen so
far have cube P inside A, then a further multiset Y completes a cube iff
all of Sigma*Y lies in

    D = A & (A - p_1) & (A - p_2) & ...   over the elements p_i of P,

so the problem restarts on the shrunken set D and the largest cube
dimension satisfies

    maxdim(D) = max over g in D of  1 + maxdim(D & (D - g)).

maxdim is intrinsic to D, which allows a single global memo table (cleared
whole before it holds more than _MEMO_BYTES) plus one exact reduction: a set
of even residues halves into Z_{2^(n-1)}, so each set is halved down to
its lowest layer before lookup.

Two sound caps bound the recursion when 0 is not in D.  Both come first,
from the raw mask: |D| and the valuations present, up to a shift, do not
change under halving, and the lowest valuation present is the number of
halvings.  Only a set whose capped value stays above 1 is halved and looked
up, so the caps decide most calls for the price of a few mask ANDs.

* size cap -- each generator strictly shrinks D (a stalled step would put
  the cyclic subgroup generated by g, hence 0, inside D), so
  maxdim(D) <= |D|;
* layer-gap cap -- if D has members of 2-adic valuation below m but none of
  valuation m, then

      maxdim(D) <= 2^m - 1 + maxdim(D & 2^(m+1) Z).

  Split a cube's generators into those of valuation below m and above m.
  Reduced mod 2^(m+1), no subset of the low ones sums to 2^m, since that
  sum would lie in D with valuation m.  By the zero-sum dichotomy at k = m,
  2^m + x of them then hold x + 1 disjoint zero-sum parts, and the parts'
  sums with the high generators span a cube inside D & 2^(m+1) Z.  Each
  set is halved down to its lowest layer first, so m counts from there,
  and the cap recurses on the word of valuations present.  The first gap
  is used, and only if m <= GAP_CAP_MAX_M = 3, the largest k at which
  every x is checked by the default test run; k = 4 is checked too, behind
  the opt-in slow marker
  (tests/test_detection.py::test_gap_cap_premise and
  test_gap_cap_uses_only_checked_gaps).  Without such a gap the cap is the
  zero-sum cap 2^(top-low+1) - 1, the gap above the top layer: among that
  many generators with valuations in [low, top] some nonempty subset sum
  is divisible by 2^(top+1), so lies outside D.
  (tests/test_sumsets.py::test_stalled_step_contains_generated_subgroup and
  tests/test_detection.py::test_zero_sum_cap_premise check those premises.)

The witness engine decides first, so a cube-free set costs what
is_cube_free costs, then descends without backtracking: each step takes
the smallest g >= the last generator whose child D & (D - g) holds a cube
of the remaining dimension.  No such cube has a generator below the last
one (it would have passed first), so the first g to pass always completes.

The decision engine recurses once per generator, so a dimension near the
interpreter's recursion limit ends in CapacityError.  The memo stores
finished values only, so answers after such a failure are unchanged.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterator

from .errors import CapacityError
from .groups import GeneratorMultiset, ResidueSet, _halve_even, _layer_tables
from .sumsets import projective_cube


@dataclass(frozen=True)
class CubeWitness:
    """Generators together with their cube, certified inside a searched set."""

    generators: GeneratorMultiset
    cube: ResidueSet

    @classmethod
    def build(cls, generators: GeneratorMultiset, within: ResidueSet) -> "CubeWitness":
        cube = projective_cube(generators)
        if not cube.issubset(within):
            raise ValueError(
                f"generators {generators.elements} produce sums outside the searched set"
            )
        return cls(generators, cube)


GAP_CAP_MAX_M = 3  # largest gap the layer-gap cap uses: the dichotomy is checked for every x at k <= 3


def _word_cap(word: int) -> int:
    """The layer-gap cap for a set whose valuations present are the bits of a nonzero word."""
    cap, rest = 0, word
    while rest:
        rest >>= (rest & -rest).bit_length() - 1  # halve down to the lowest layer present
        m = (rest ^ (rest + 1)).bit_length() - 1  # the first valuation missing
        if m > GAP_CAP_MAX_M:
            m = rest.bit_length()  # no usable gap: the zero-sum cap above the top layer
        cap += (1 << m) - 1
        rest >>= m + 1
    return cap


def _span_cap(mask: int, n: int) -> tuple[int, int]:
    """(min(|D|, the layer-gap cap of the valuations present in D), the lowest valuation present).

    The second entry is the number of halvings to D's lowest layer.
    Requires a nonzero mask without bit 0.
    """
    layers = _layer_tables.get(n) or _layer_tables.holding(mask, n)
    word = 0
    for v in range(len(layers) - 2, -1, -1):
        word = word << 1 | (mask & layers[v] != 0)
    return min(mask.bit_count(), _word_cap(word)), (word & -word).bit_length() - 1


def _normalize(mask: int, n: int, halvings: int) -> tuple[int, int]:
    """Halve a set of multiples of 2^halvings that many times; halving preserves maxdim."""
    for _ in range(halvings):
        mask = _halve_even(mask, n)
        n -= 1
    return mask, n


_MEMO_BYTES = 1 << 28  # bytes held by _exact and _atleast, as _remember charges them, before both are cleared
_ENTRY_BYTES = sys.getsizeof((0, 0)) + sys.getsizeof(0) + 64  # key tuple, mask header, dict slot (<= 60)
_exact: dict[tuple[int, int], int] = {}
_atleast: dict[tuple[int, int], int] = {}
_memo_bytes = 0


def clear_detection_cache() -> None:
    global _memo_bytes
    _exact.clear()
    _atleast.clear()
    _memo_bytes = 0


def _remember(table: dict[tuple[int, int], int], key: tuple[int, int], value: int) -> None:
    global _memo_bytes
    if key not in table:
        charge = _ENTRY_BYTES + key[1].bit_length() // 7  # CPython keeps 30 bits in 4 bytes
        if _memo_bytes + charge > _MEMO_BYTES:
            clear_detection_cache()
        _memo_bytes += charge
    table[key] = value


def _maxdim(mask: int, n: int, cap: int) -> int:
    """min(largest cube dimension inside the set, cap)."""
    if cap <= 0 or mask == 0:
        return 0
    if mask & 1:
        return cap  # {0} is a d-cube for every d
    if cap == 1:
        return 1  # any single element is a 1-cube
    ub, low = _span_cap(mask, n)
    if cap > ub:
        cap = ub
    if cap <= 1:
        return cap
    if low:
        mask, n = _normalize(mask, n, low)
    key = (n, mask)
    exact = _exact.get(key)
    if exact is not None:
        return exact if exact < cap else cap
    if _atleast.get(key, 0) >= cap:
        return cap
    # bit y of doubled >> g, for y < 2^n, is set iff y + g (mod 2^n) lies in D
    doubled = mask | mask << (1 << n)
    best = 1
    seen = {0}
    rest = mask
    while rest:
        low = rest & -rest
        g = low.bit_length() - 1
        rest ^= low
        # D & (D - g): the candidate set after adopting the generator g
        child = mask & (doubled >> g)
        if child in seen:
            continue
        seen.add(child)
        sub = _maxdim(child, n, cap - 1)
        if 1 + sub > best:
            best = 1 + sub
            if best >= cap:
                break
    if best < cap:
        _remember(_exact, key, best)
    elif best > _atleast.get(key, 0):
        _remember(_atleast, key, best)
    return best


def max_cube_dimension(A: ResidueSet, cap: int) -> int:
    """Largest cube dimension found in A, capped at ``cap``."""
    if cap < 0:
        raise ValueError("cap must be non-negative")
    try:
        return _maxdim(A.mask, A.ctx.n, cap)
    except RecursionError:
        raise _out_of_depth(cap) from None


def _out_of_depth(d: int) -> CapacityError:
    return CapacityError(f"the search for a {d}-cube ran out of depth: "
                         "it needs more nested calls than the recursion limit allows")


def is_cube_free(A: ResidueSet, d: int, scale_invariant: bool = False) -> bool:
    """True iff A contains no projective d-cube.

    ``scale_invariant`` is accepted and ignored; it goes once the benchmark
    stops passing it.
    """
    if d < 1:
        raise ValueError(f"cube dimension must be positive, got {d}")
    return max_cube_dimension(A, d) < d


def find_cube(A: ResidueSet, d: int) -> CubeWitness | None:
    """Lexicographically smallest d-cube witness inside A, or None.

    Decided at the root first, then read off one generator at a time: the
    first that passes at each step, with no backtracking.
    """
    if d < 1:
        raise ValueError(f"cube dimension must be positive, got {d}")
    ctx = A.ctx
    D = A.mask
    if D == 0:
        return None
    if D & 1:
        return CubeWitness.build(GeneratorMultiset.of(ctx, (0,) * d), A)
    n, size = ctx.n, ctx.modulus
    generators, g = [], 0  # g: the last generator chosen
    try:
        if _maxdim(D, n, d) < d:
            return None
        # Every cube of the remaining dimension in D has all its generators >= g,
        # the last one chosen: were y < g a generator of such a cube Y, the
        # previous D held {g} | Y, so y would have passed there before g.  Each
        # generator of such a cube passes, so the first to pass completes.
        for need in range(d - 1, -1, -1):
            doubled = D | D << size
            rest = D >> g << g
            while rest:
                low = rest & -rest
                g = low.bit_length() - 1
                rest ^= low
                child = D & (doubled >> g)  # D & (D - g)
                if _maxdim(child, n, need) >= need:
                    break
            else:
                raise AssertionError(f"no generator extends {generators} to a {d}-cube")
            generators.append(g)
            D = child
    except RecursionError:
        raise _out_of_depth(d) from None
    return CubeWitness.build(GeneratorMultiset.of(ctx, tuple(generators)), A)


def _run_masks(n: int, m: int) -> Iterator[int]:
    """For each x in turn, the mask of {x, 2x, ..., m*x} modulo 2^n."""
    size = 1 << n
    for x in range(size):
        mask = 0
        for i in range(1, m + 1):
            mask |= 1 << (i * x % size)
        yield mask


def find_multiple_run(A: ResidueSet, m: int) -> int | None:
    """Smallest x (0 allowed) with {x, 2x, ..., m*x} inside A, or None."""
    if m < 1:
        raise ValueError(f"run length must be positive, got {m}")
    amask = A.mask
    for x, run in enumerate(_run_masks(A.ctx.n, m)):
        if run & ~amask == 0:
            return x
    return None


def find_homogeneous_cube(A: ResidueSet, ell: int) -> tuple[int, int] | None:
    """A pair (x, y) whose 2^ell-cube {x,...,(2^ell-1)x} | {y,...,y+(2^ell-1)x} sits in A."""
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell}")
    ctx = A.ctx
    size = ctx.modulus
    amask = A.mask
    # bit y < 2^n of doubled >> c is set iff y + c (mod 2^n) lies in A
    doubled = amask | amask << size
    r = (1 << ell) - 1
    for x, run in enumerate(_run_masks(ctx.n, r)):
        if run & ~amask:
            continue
        inter = amask
        for i in range(1, r + 1):
            inter &= doubled >> (i * x % size)
            if not inter:
                break
        if inter:
            y = (inter & -inter).bit_length() - 1
            return x, y
    return None


def find_degenerate_3cube(A: ResidueSet) -> CubeWitness | None:
    """A 3-cube of the restricted shapes {x,x,x} or {x,3x,y} inside A, or None."""
    ctx = A.ctx
    size = ctx.modulus
    amask = A.mask
    x = find_multiple_run(A, 3)
    if x is not None:
        return CubeWitness.build(GeneratorMultiset.of(ctx, (x, x, x)), A)
    doubled = amask | amask << size
    for x in range(size):
        base = (1 << x) | (1 << (3 * x % size)) | (1 << (4 * x % size))
        if base & ~amask:
            continue
        inter = amask
        for c in (x, 3 * x, 4 * x):
            inter &= doubled >> (c % size)
            if not inter:
                break
        if inter:
            y = (inter & -inter).bit_length() - 1
            return CubeWitness.build(GeneratorMultiset.of(ctx, (x, 3 * x % size, y)), A)
    return None
