import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubefree import groups
from cubefree.errors import RangeError
from cubefree.groups import (
    MAX_N,
    GroupContext,
    ResidueSet,
    centred_set,
    layer_range_set,
    layer_set,
    mask_members,
    residue_abs,
    shift_mask,
    subset_sums,
)


def test_layer_set_examples(ctx3):
    assert layer_set(1, ctx3).members() == [1, 3, 5, 7]
    assert layer_set(3, ctx3).members() == [4]
    assert layer_set(4, ctx3).members() == [0]
    with pytest.raises(RangeError):
        layer_set(5, ctx3)


def test_layer_range_set_examples(ctx3):
    assert layer_range_set(1, 2, ctx3).members() == [1, 2, 3, 5, 6, 7]
    assert layer_range_set(2, 2, ctx3).members() == [2, 6]
    assert layer_range_set(1, 4, ctx3).members() == list(range(8))
    with pytest.raises(ValueError):
        layer_range_set(3, 2, ctx3)


def test_layers_partition_group():
    for n in range(1, 13):
        ctx = GroupContext(n)
        seen = 0
        for i in range(1, n + 2):
            mask = layer_set(i, ctx).mask
            assert mask & seen == 0
            seen |= mask
        assert seen == ctx.full_mask


def test_layer_halving():
    for n in range(2, 13):
        ctx = GroupContext(n)
        for i in range(2, n + 1):
            assert len(layer_set(i - 1, ctx)) == 2 * len(layer_set(i, ctx))


def test_layer_of_matches_layer_set():
    # the layer of x != 0 is its 2-adic valuation plus one
    for n in range(1, 13):
        ctx = GroupContext(n)
        for i in range(1, n + 1):
            for x in layer_set(i, ctx):
                assert (x & -x).bit_length() == i
        assert layer_set(n + 1, ctx).members() == [0]


def dilate(mask, lam, size):
    """Bit mask of {lam * x mod size : x in mask}."""
    return sum(1 << y for y in {lam * x % size for x in mask_members(mask)})


def test_odd_scaling_preserves_layers():
    for n in range(1, 11):
        ctx = GroupContext(n)
        for lam in range(1, ctx.modulus, 2):
            for i in range(1, n + 2):
                layer = layer_set(i, ctx).mask
                assert dilate(layer, lam, ctx.modulus) == layer


def test_centred_examples(ctx3):
    assert centred_set(4, ctx3).members() == [1, 3, 5, 7]
    assert centred_set(5, ctx3).members() == [1, 2, 3, 5, 7]
    assert centred_set(0, ctx3).members() == []
    with pytest.raises(RangeError):
        centred_set(9, ctx3)


def test_centred_nesting():
    for n in range(1, 11):
        ctx = GroupContext(n)
        previous = 0
        for m in range(ctx.modulus + 1):
            mask = centred_set(m, ctx).mask
            assert previous & ~mask == 0
            assert mask.bit_count() == m
            previous = mask


def test_residue_abs():
    assert residue_abs(7, 2) == 1
    assert residue_abs(4, 2) == 4
    assert residue_abs(3, 2) == 3
    assert residue_abs(0, 2) == 0
    with pytest.raises(RangeError):
        residue_abs(8, 2)


def test_residue_set_operations(ctx3):
    a = ResidueSet.from_members(ctx3, [1, 2, 3])
    b = ResidueSet.from_members(ctx3, [3, 4])
    assert (a | b).members() == [1, 2, 3, 4]
    assert (a & b).members() == [3]
    assert (a - b).members() == [1, 2]
    assert a.complement().members() == [0, 4, 5, 6, 7]
    assert ResidueSet(ctx3, shift_mask(a.mask, 6, ctx3)).members() == [0, 1, 7]
    assert ResidueSet(ctx3, dilate(a.mask, 3, 8)).members() == [1, 3, 6]
    assert ResidueSet.from_members(ctx3, [-1]).members() == [7]
    assert len(a) == 3 and 2 in a and 5 not in a


def test_residue_set_context_mismatch(ctx3, ctx4):
    with pytest.raises(ValueError):
        ResidueSet.full(ctx3) | ResidueSet.full(ctx4)


def test_group_context_cached_properties_keep_identity():
    ctx = GroupContext(5)
    assert (ctx.modulus, ctx.full_mask) == (32, (1 << 32) - 1)
    fresh = GroupContext(5)
    assert ctx == fresh and hash(ctx) == hash(fresh)
    assert {ctx: 1}[fresh] == 1
    assert ctx != GroupContext(6)


def test_group_context_validation():
    with pytest.raises(RangeError):
        GroupContext(0)
    assert GroupContext(MAX_N).n == MAX_N
    with pytest.raises(RangeError, match=f"\\[1, {MAX_N}\\]"):
        GroupContext(MAX_N + 1)


def naive_subset_sums(elements, size):
    """Sums of every index subset, the empty one included."""
    mask = 0
    for r in range(len(elements) + 1):
        for idx in combinations(range(len(elements)), r):
            mask |= 1 << (sum(elements[i] for i in idx) % size)
    return mask


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 32).flatmap(
    lambda size: st.tuples(st.just(size),
                           st.lists(st.integers(0, size - 1), max_size=8))))
@example((2, []))
@example((8, [0, 0, 3]))
@example((16, [5, 5, 5, 5, 5, 5, 5, 5]))
@example((32, [31, 0, 31, 16, 16]))
def test_subset_sums_matches_enumeration(case):
    size, elements = case
    assert subset_sums(elements, size) == naive_subset_sums(elements, size)


def walk_halve(mask):
    """{x / 2 : x in mask} for a mask of even residues, one member at a time."""
    halved = 0
    while mask:
        low = mask & -mask
        mask ^= low
        halved |= 1 << ((low.bit_length() - 1) >> 1)
    return halved


@st.composite
def group_masks(draw, min_n=1, max_n=MAX_N):
    """(n, mask): sparse subsets of Z_{2^n} for every n, dense ones for n <= 16."""
    n = draw(st.integers(min_n, max_n))
    size = 1 << n
    if n <= 16 and draw(st.booleans()):
        mask = random.Random(draw(st.integers(0, 1 << 64))).getrandbits(size)
    else:
        mask = sum(1 << x for x in draw(st.sets(st.integers(0, size - 1), max_size=12)))
    return n, mask


@settings(max_examples=300, deadline=None)
@given(group_masks(min_n=2))
@example((2, 0b0100))
@example((12, (1 << 4096) - 1))
@example((MAX_N, 1 << ((1 << MAX_N) - 2)))
def test_halve_even_matches_walk(case):
    n, mask = case
    evens = ((1 << (1 << n)) - 1) // 3  # bits at the even positions
    mask &= evens
    assert groups._halve_even(mask, n) == walk_halve(mask)


def test_kept_wide_halving_table_serves_narrower_groups():
    # past s = 2^(n-2) the steps of Z_{2^14} leave a halved mask of Z_{2^n} as it is
    groups._halving_tables.clear()
    table = groups._halving_tables[14]
    for n in (13, 12, 11):
        mask = layer_range_set(2, 3, GroupContext(n)).mask
        assert groups._halve_even(mask, n) == walk_halve(mask)
    assert groups._halving_tables[14] is table and set(groups._halving_tables) == {14}
    mask = layer_set(2, GroupContext(4)).mask
    assert groups._halve_even(mask, 4) == walk_halve(mask) and 4 in groups._halving_tables


def test_layer_tables_keep_one_wide_group():
    # tables of at most 2^10 bits are all kept; of the wider ones, the last only
    for n in (3, 12, 10, 14, 11):
        assert groups._layer_masks(n) == tuple(
            sum(1 << x for x in range(1, 1 << n) if x & -x == 1 << v) for v in range(n)) + (1,)
    kept = set(groups._layer_tables)
    assert {3, 10, 11} <= kept and not kept & {12, 14}
    assert max(kept) == 11
