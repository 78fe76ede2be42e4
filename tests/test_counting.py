import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubefree import counting
from cubefree.counting import (
    _pair_sums_in,
    count_schur_triples,
    count_triples_by_layer,
    layer_profile,
    schur_lower_bound,
)
from cubefree.groups import (
    GroupContext,
    ResidueSet,
    centred_set,
    layer_range_set,
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


def naive_pair_sums(X, Y, Z):
    """#{(x, y) in X x Y : x + y in Z}, one pair at a time."""
    return sum(1 for x in X for y in Y if (x + y) % X.ctx.modulus in Z)


def masks(n):
    """Masks of Z_{2^n} of any size from empty to full, so both kernel paths are drawn."""
    size = 1 << n
    return st.tuples(st.integers(0, size), st.integers(0, 2 ** 32)).map(
        lambda c: sum(1 << x for x in random.Random(c[1]).sample(range(size), c[0])))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), masks(n), masks(n), masks(n))))
def test_pair_sums_match_naive_property(case):
    n, *sets = case
    X, Y, Z = (ResidueSet(GroupContext(n), mask) for mask in sets)
    assert _pair_sums_in(X.mask, Y.mask, Z.mask, n) == naive_pair_sums(X, Y, Z)


def test_pair_sums_take_the_loop_below_the_density_rule(monkeypatch):
    spreads = []
    real_spread = counting._spread
    monkeypatch.setattr(counting, "_spread", lambda *a: spreads.append(a) or real_spread(*a))
    # fewer than max(12, 2^n / 8) members in the smaller of X and Y: the loop
    for n, members in ((4, 11), (9, 63), (9, 11)):
        X = (1 << members) - 1
        _pair_sums_in(X, (1 << (1 << n)) - 1, X, n)
        assert spreads == []
    for n, members in ((4, 12), (9, 64)):
        X = (1 << members) - 1
        assert _pair_sums_in(X, X << 1, X, n) == _pair_sums_in(X << 1, X, X, n) \
            == naive_pair_sums(*(ResidueSet(GroupContext(n), m) for m in (X, X << 1, X)))
        assert len(spreads) == 4  # X and Y spread once per call, Z is X
        spreads.clear()


def test_count_matches_naive_at_the_wrap():
    # each pair count goes round 2^n - 1 -> 0; with a full X or Y, every z in Z
    # is hit once per member of the other set
    for n in range(1, 11):
        ctx = GroupContext(n)
        top = ctx.modulus - 1
        full = ResidueSet.full(ctx)
        cases = [ResidueSet.from_members(ctx, c) for c in ([], [0], [top])] + [full]
        for X, Y, Z in product(cases, repeat=3):
            want = len(X) * len(Z) if Y == full else \
                len(Y) * len(Z) if X == full else naive_pair_sums(X, Y, Z)
            assert _pair_sums_in(X.mask, Y.mask, Z.mask, n) == want, (n, X, Y, Z)
        for members in ([0, top], [1, top]):
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
    assert layer_profile(ResidueSet.full(ctx3)).sizes == (4, 2, 1, 1)
    assert layer_profile(ResidueSet.empty(ctx3)).sizes == (0, 0, 0, 0)


def test_triples_by_layer_example(ctx3):
    table = count_triples_by_layer(centred_set(5, ctx3))
    assert table[1].sum_above == 4
    assert table[1].middle_above == 4
    assert table[1].first_above == 4
    assert all(table[a].total == 0 for a in (2, 3))


def test_triple_decomposition_misses_only_zero_triple(ctx3):
    zero_only = ResidueSet.from_members(ctx3, [0])
    assert count_schur_triples(zero_only) == 1
    assert sum(c.total for c in count_triples_by_layer(zero_only).values()) == 0


def test_decomposition_identity_exhaustive():
    for n in (3, 4):
        ctx = GroupContext(n)
        for mask in range(0, 1 << ctx.modulus, 2):  # even masks exclude residue 0
            A = ResidueSet(ctx, mask)
            assert sum(c.total for c in count_triples_by_layer(A).values()) == \
                count_schur_triples(A)


def naive_triples_by_layer(A):
    """Classify every Schur triple by the layers of x, y and z = x + y."""
    n, size = A.ctx.n, A.ctx.modulus
    counts = {a: [0, 0, 0] for a in range(1, n + 1)}
    for x in A:
        for y in A:
            z = (x + y) % size
            if z in A:
                lx, ly, lz = ((v & -v).bit_length() or n + 1 for v in (x, y, z))
                if lx == ly < lz:
                    counts[lx][0] += 1
                elif lx == lz < ly:
                    counts[lx][1] += 1
                elif ly == lz < lx:
                    counts[ly][2] += 1
    return counts


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), masks(n))))
def test_triples_by_layer_matches_naive_classification(case):
    n, mask = case
    A = ResidueSet(GroupContext(n), mask)
    got = {a: [c.sum_above, c.middle_above, c.first_above]
           for a, c in count_triples_by_layer(A).items()}
    assert got == naive_triples_by_layer(A)


def test_no_triple_spans_three_layers(ctx3):
    size = ctx3.modulus
    for x in range(size):
        for y in range(size):
            z = (x + y) % size
            layers = {(v & -v).bit_length() for v in (x, y, z)}  # valuation + 1; 0 for 0
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


def naive_lower_bound(p, n):
    """The profile bound with each |S_{a+}| summed afresh per layer."""
    total = 0
    for a in range(1, n + 1):
        sa, s_plus, layer_size = p.sizes[a - 1], sum(p.sizes[a:]), 1 << (n - a)
        total += max(sa * (s_plus - layer_size + sa), s_plus * (2 * sa - layer_size), 0)
    return 3 * total


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))))
def test_lower_bound_matches_per_layer_sums(case):
    n, mask = case
    ctx = GroupContext(n)
    p = layer_profile(ResidueSet(ctx, mask))
    assert schur_lower_bound(p, ctx) == naive_lower_bound(p, n)


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
            assert count_schur_triples(layer_range_set(ell + 1, n + 1, ctx)) == m * m


def test_profile_mismatch_rejected(ctx3, ctx4):
    with pytest.raises(ValueError):
        schur_lower_bound(layer_profile(ResidueSet.full(ctx3)), ctx4)
