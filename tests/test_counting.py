from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubefree.counting import (
    count_schur_triples,
    count_triples_by_layer,
    decomposition_total,
    layer_profile,
    schur_lower_bound,
)
from cubefree.groups import (
    GroupContext,
    ResidueSet,
    anti_centred_set,
    centred_set,
    layer_of,
    layer_set,
)


def naive_schur(A):
    members = A.members()
    size = A.ctx.modulus
    return sum(1 for x in members for y in members if (x + y) % size in A)


def test_count_examples(ctx3):
    assert count_schur_triples(centred_set(5, ctx3)) == 12
    assert count_schur_triples(layer_set(1, ctx3)) == 0
    assert count_schur_triples(layer_set(1, ctx3) | layer_set(4, ctx3)) == 13
    assert count_schur_triples(ResidueSet.full(ctx3)) == 64


def test_count_matches_naive_exhaustively(ctx3):
    for mask in range(256):
        A = ResidueSet(ctx3, mask)
        assert count_schur_triples(A) == naive_schur(A)


def test_count_matches_naive_sampled(rng):
    ctx = GroupContext(6)
    for _ in range(200):
        A = ResidueSet(ctx, rng.getrandbits(64))
        assert count_schur_triples(A) == naive_schur(A)


def test_count_matches_naive_at_the_wrap():
    for n in range(1, 8):
        ctx = GroupContext(n)
        top = ctx.modulus - 1
        for members in ([], [0], [top], [0, top], [1, top], range(ctx.modulus)):
            A = ResidueSet.from_members(ctx, members)
            assert count_schur_triples(A) == naive_schur(A)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))))
def test_count_matches_naive_property(case):
    n, mask = case
    A = ResidueSet(GroupContext(n), mask)
    assert count_schur_triples(A) == naive_schur(A)


def test_layer_profile(ctx3):
    p = layer_profile(centred_set(5, ctx3))
    assert p.sizes == (4, 1, 0, 0)
    assert p.suffix(1) == 1 and p.suffix(2) == 0
    assert p.top_layer == 2
    assert layer_profile(ResidueSet.full(ctx3)).sizes == (4, 2, 1, 1)
    assert layer_profile(ResidueSet.empty(ctx3)).sizes == (0, 0, 0, 0)
    assert layer_profile(ResidueSet.empty(ctx3)).top_layer == 0


def test_triples_by_layer_example(ctx3):
    table = count_triples_by_layer(centred_set(5, ctx3))
    assert table[1].sum_above == 4
    assert table[1].middle_above == 4
    assert table[1].first_above == 4
    assert all(table[a].total == 0 for a in (2, 3))


def test_triple_decomposition_misses_only_zero_triple(ctx3):
    zero_only = ResidueSet.from_members(ctx3, [0])
    assert count_schur_triples(zero_only) == 1
    assert decomposition_total(count_triples_by_layer(zero_only)) == 0


def test_decomposition_identity_exhaustive():
    for n in (3, 4):
        ctx = GroupContext(n)
        for mask in range(0, 1 << ctx.modulus, 2):  # even masks exclude residue 0
            A = ResidueSet(ctx, mask)
            assert decomposition_total(count_triples_by_layer(A)) == \
                count_schur_triples(A)


def test_no_triple_spans_three_layers(ctx3):
    size = ctx3.modulus
    for x in range(size):
        for y in range(size):
            z = (x + y) % size
            layers = {layer_of(x, ctx3), layer_of(y, ctx3), layer_of(z, ctx3)}
            assert len(layers) <= 2, (x, y, z)
            if len(layers) == 1:
                assert x == y == z == 0


def test_lower_bound_examples(ctx3):
    assert schur_lower_bound(layer_profile(centred_set(5, ctx3)), ctx3) == 12
    assert schur_lower_bound(layer_profile(layer_set(1, ctx3)), ctx3) == 0
    full_bound = schur_lower_bound(layer_profile(ResidueSet.full(ctx3)), ctx3)
    assert full_bound == 63 <= count_schur_triples(ResidueSet.full(ctx3))


def test_lower_bound_exhaustive_n3(ctx3):
    for mask in range(256):
        A = ResidueSet(ctx3, mask)
        assert count_schur_triples(A) >= schur_lower_bound(layer_profile(A), ctx3)


def test_minimum_at_centred_n3(ctx3):
    best = min(count_schur_triples(ResidueSet.from_members(ctx3, c))
               for c in combinations(range(8), 5))
    assert best == 12
    assert count_schur_triples(centred_set(5, ctx3)) == 12


def test_anti_centred_subgroup_triples():
    for n in range(2, 9):
        ctx = GroupContext(n)
        for ell in range(1, n):
            m = 1 << (n - ell)
            assert count_schur_triples(anti_centred_set(m, ctx)) == m * m


def test_profile_mismatch_rejected(ctx3, ctx4):
    with pytest.raises(ValueError):
        schur_lower_bound(layer_profile(ResidueSet.full(ctx3)), ctx4)
