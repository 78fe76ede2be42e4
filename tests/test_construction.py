import pytest

from cubefree.construction import (
    block_vector,
    construction_layers,
    construction_size,
    floor_log2,
    layered_construction,
)
from cubefree.errors import CapacityError
from cubefree.groups import GroupContext, ResidueSet, layer_range_set, layer_set


def recursive_construction(d, ctx):
    """Literal recursive form: first layers plus a scaled-down embedded copy.

    The reference the block-vector rebuild is checked against.
    """
    if d == 1:
        return ResidueSet.empty(ctx)
    ell = floor_log2(d)
    base = layer_range_set(1, min(ell, ctx.n), ctx)
    if ell > ctx.n:
        raise CapacityError(f"construction for d={d} does not fit in n={ctx.n}")
    inner_d = d - (1 << ell) + 1
    if inner_d == 1:
        return base
    if ctx.n <= ell + 1:
        raise CapacityError(f"construction for d={d} does not fit in n={ctx.n}")
    inner = recursive_construction(inner_d, GroupContext(ctx.n - ell - 1))
    embedded = ResidueSet.from_members(ctx, ((x << (ell + 1)) for x in inner.members()))
    return base | embedded


def test_floor_log2():
    assert floor_log2(26) == 4
    assert floor_log2(1) == 0
    assert floor_log2(11) == 3
    with pytest.raises(ValueError):
        floor_log2(0)


def test_block_vector_examples():
    assert block_vector(26) == (5, 4, 3)
    assert block_vector(2) == (2,)
    assert block_vector(6) == (3, 2, 2)
    assert sum(block_vector(26)) == 12
    with pytest.raises(ValueError):
        block_vector(1)


def test_construction_examples():
    ctx5 = GroupContext(5)
    assert layered_construction(3, ctx5).mask == \
        (layer_set(1, ctx5) | layer_set(3, ctx5)).mask
    ctx12 = GroupContext(12)
    expected = (layer_range_set(1, 4, ctx12) | layer_range_set(6, 8, ctx12)
                | layer_range_set(10, 11, ctx12))
    assert layered_construction(26, ctx12).mask == expected.mask
    assert layered_construction(1, ctx5).members() == []


def test_construction_never_contains_zero():
    for d in range(1, 20):
        top = max(construction_layers(d), default=1)
        ctx = GroupContext(max(top, 1))
        assert 0 not in layered_construction(d, ctx)


def test_construction_capacity_error():
    with pytest.raises(CapacityError):
        layered_construction(26, GroupContext(10))


def test_construction_sizes():
    ctx3 = GroupContext(3)
    assert construction_size(4, ctx3) == 6
    assert construction_size(3, ctx3) == 5
    assert construction_size(1, ctx3) == 0


def test_power_of_two_sizes():
    for ell in range(1, 5):
        d = 1 << ell
        for n in range(max(construction_layers(d)), 13):
            ctx = GroupContext(n)
            assert construction_size(d, ctx) == (1 - 2 ** -ell) * ctx.modulus


def test_recursion_matches_block_vector_rebuild():
    for d in range(2, 65):
        n = sum(block_vector(d)) - 1
        ctx = GroupContext(n)
        assert layered_construction(d, ctx).mask == recursive_construction(d, ctx).mask


def test_table_rows_small():
    rows = {2: (1,), 3: (1, 3), 4: (1, 2), 5: (1, 2, 4), 6: (1, 2, 4, 6),
            7: (1, 2, 4, 5), 8: (1, 2, 3), 9: (1, 2, 3, 5)}
    for d, layers in rows.items():
        assert construction_layers(d) == layers
