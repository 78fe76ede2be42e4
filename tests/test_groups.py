import pytest

from cubefree.errors import RangeError
from cubefree.groups import (
    GeneratorMultiset,
    GroupContext,
    ResidueSet,
    SignedResidue,
    anti_centred_set,
    centred_set,
    layer_of,
    layer_range_set,
    layer_set,
    residue_abs,
    scale_multiset,
)


def test_layer_of_examples(ctx3):
    assert layer_of(5, ctx3) == 1
    assert layer_of(0, ctx3) == 4
    assert layer_of(6, ctx3) == 2


def test_layer_of_range_error(ctx3):
    with pytest.raises(RangeError):
        layer_of(8, ctx3)
    with pytest.raises(RangeError):
        layer_of(-1, ctx3)


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
    for n in range(1, 13):
        ctx = GroupContext(n)
        for i in range(1, n + 2):
            for x in layer_set(i, ctx):
                assert layer_of(x, ctx) == i


def test_odd_scaling_preserves_layers():
    for n in range(1, 11):
        ctx = GroupContext(n)
        for lam in range(1, ctx.modulus, 2):
            for x in range(ctx.modulus):
                assert layer_of(lam * x % ctx.modulus, ctx) == layer_of(x, ctx)


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


def test_anti_centred_examples(ctx3):
    assert anti_centred_set(1, ctx3).members() == [0]
    assert anti_centred_set(2, ctx3).members() == [0, 4]


def test_anti_centred_power_sizes():
    for n in range(2, 9):
        ctx = GroupContext(n)
        for ell in range(1, n):
            m = 1 << (n - ell)
            got = anti_centred_set(m, ctx)
            expected = layer_range_set(ell + 1, n + 1, ctx)
            assert got.mask == expected.mask


def test_scale_multiset(ctx3):
    gens = GeneratorMultiset.of(ctx3, (1, 1, 2))
    assert scale_multiset(1, gens).elements == (1, 1, 2)
    assert scale_multiset(3, gens).elements == (3, 3, 6)
    assert scale_multiset(7, GeneratorMultiset.of(ctx3, (1,))).elements == (7,)
    with pytest.raises(ValueError):
        scale_multiset(2, gens)


def test_residue_abs():
    assert residue_abs(7, 2) == 1
    assert residue_abs(4, 2) == 4
    assert residue_abs(3, 2) == 3
    assert residue_abs(0, 2) == 0
    with pytest.raises(RangeError):
        residue_abs(8, 2)
    assert SignedResidue(7, 2).abs == 1


def test_residue_set_operations(ctx3):
    a = ResidueSet.from_members(ctx3, [1, 2, 3])
    b = ResidueSet.from_members(ctx3, [3, 4])
    assert (a | b).members() == [1, 2, 3, 4]
    assert (a & b).members() == [3]
    assert (a - b).members() == [1, 2]
    assert a.complement().members() == [0, 4, 5, 6, 7]
    assert a.shifted(6).members() == [0, 1, 7]
    assert a.scaled(3).members() == [1, 3, 6]
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
