import sys
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubefree import detection, groups
from cubefree.construction import layered_construction
from cubefree.errors import CapacityError
from cubefree.detection import (
    CubeWitness,
    _maxdim,
    _normalize,
    _span_cap,
    clear_detection_cache,
    find_cube,
    find_degenerate_3cube,
    find_homogeneous_cube,
    find_multiple_run,
    is_cube_free,
    max_cube_dimension,
)
from cubefree.groups import (
    GeneratorMultiset,
    GroupContext,
    ResidueSet,
    _layer_masks,
    layer_range_set,
    layer_set,
    mask_members,
)
from cubefree.oracle import ResidueCollection, _half_sum_free_multisets, disjoint_zero_sets
from cubefree.search import max_cube_free_layer_unions
from cubefree.sumsets import cube_mask, projective_cube
from cubefree.verify import _naive_contains_cube


def test_find_cube_returns_lex_smallest_witness(ctx3):
    A = ResidueSet.from_members(ctx3, [2, 3, 4, 5, 7])
    witness = find_cube(A, 3)
    assert witness.generators.elements == (2, 2, 3)
    assert witness.cube.issubset(A)
    # the classic witness for this set is also valid, just not lex-minimal
    classic = projective_cube(GeneratorMultiset.of(ctx3, (2, 5, 5)))
    assert classic.members() == [2, 4, 5, 7]
    assert classic.issubset(A)


def test_find_cube_zero_member(ctx3):
    A = ResidueSet.from_members(ctx3, [0, 6])
    for d in (1, 2, 5):
        witness = find_cube(A, d)
        assert witness.generators.elements == (0,) * d
        assert witness.cube.members() == [0]


def test_find_cube_absent(ctx4):
    assert find_cube(layer_set(1, ctx4) | layer_set(2, ctx4), 4) is None
    assert find_cube(ResidueSet.empty(ctx4), 2) is None


def test_is_cube_free_examples(ctx3):
    assert is_cube_free(layer_set(1, ctx3), 2)
    assert not is_cube_free(ResidueSet.from_members(ctx3, [2, 3, 4, 5, 7]), 3)
    assert is_cube_free(ResidueSet.empty(ctx3), 4)
    with pytest.raises(ValueError):
        is_cube_free(layer_set(1, ctx3), 0)


def test_max_cube_dimension_cap(ctx3):
    full = ResidueSet.full(ctx3)
    assert max_cube_dimension(full, 50) == 50  # 0 present: every dimension
    punctured = full - ResidueSet.from_members(ctx3, [0])
    assert max_cube_dimension(punctured, 50) == 7


def test_layer_unions_match_enumeration():
    # every union of L_1..L_n without {0}, n <= 5: a cube of dimension md
    # exists and none of dimension md + 1 (checked while md + 1 <= n + 1)
    clear_detection_cache()
    for n in range(1, 6):
        ctx = GroupContext(n)
        layers = _layer_masks(n)
        for v in range(1, 1 << n):
            A = ResidueSet(ctx, sum(layers[i] for i in range(n) if v >> i & 1))
            md = max_cube_dimension(A, n + 2)
            assert _naive_contains_cube(A, md)
            if md + 1 <= n + 1:
                assert not _naive_contains_cube(A, md + 1)


def test_find_cube_witness_is_lex_minimal(rng):
    # the descent keeps the first generator to pass at each step; the witness
    # must still be the first cube-holding tuple in lexicographic order
    cases = [(GroupContext(4), 3, 0)] * 150
    cases += [(GroupContext(5), d, rng.randint(1, 3)) for d in range(2, 6) for _ in range(40)]
    for ctx, d, thinnings in cases:
        mask = rng.getrandbits(ctx.modulus)
        for _ in range(thinnings):
            mask &= rng.getrandbits(ctx.modulus) & ~1
        A = ResidueSet(ctx, mask)
        witness = find_cube(A, d)
        naive = next(
            (g for g in combinations_with_replacement(A.members(), d)
             if cube_mask(g, ctx) & ~A.mask == 0), None)
        assert (witness is None) == (naive is None)
        if witness is not None:
            assert witness.generators.elements == naive


def test_find_cube_on_a_cube_free_set_only_decides(rng):
    # a cube-free set is answered at the root, where the caps apply, so
    # find_cube leaves exactly the memo is_cube_free leaves; probing the
    # children, which keep the root's layers, would fill it with their searches
    for d in (5, 7):
        for n in range(6, 9):
            members = layered_construction(d, GroupContext(n)).members()
            for _ in range(3):
                A = ResidueSet.from_members(
                    GroupContext(n), [x for x in members if rng.random() < 0.85])
                memos = []
                for query in (is_cube_free, find_cube):
                    clear_detection_cache()
                    query(A, d)
                    memos.append((dict(detection._exact), dict(detection._atleast)))
                assert find_cube(A, d) is None
                assert memos[0] == memos[1]


def test_construction_maximality_beyond_small_dimensions():
    # adding any missing residue to the d=7 construction creates a 7-cube
    ctx = GroupContext(7)
    c7 = layered_construction(7, ctx)
    assert find_cube(c7, 7) is None
    for r in c7.complement().members():
        witness = find_cube(c7.with_member(r), 7)
        assert witness is not None
        assert witness.cube.issubset(c7.with_member(r))


def test_homogeneous_absent_in_odd_layer(ctx3):
    # the 2-cube-free extremal layer admits no homogeneous 2-cube
    assert find_homogeneous_cube(layer_set(1, ctx3), 1) is None


def test_witness_generators_lie_in_set(rng):
    ctx = GroupContext(4)
    for _ in range(300):
        A = ResidueSet(ctx, rng.getrandbits(16))
        witness = find_cube(A, 3)
        if witness is not None:
            assert all(g in A for g in witness.generators.elements)
            assert witness.cube.issubset(A)


def test_detection_monotone_under_supersets(rng):
    ctx = GroupContext(4)
    for _ in range(200):
        small_mask = rng.getrandbits(16)
        big_mask = small_mask | rng.getrandbits(16)
        for d in (2, 3):
            if find_cube(ResidueSet(ctx, small_mask), d) is not None:
                assert find_cube(ResidueSet(ctx, big_mask), d) is not None


def test_cube_witness_build_rejects_outside_sums(ctx3):
    A = ResidueSet.from_members(ctx3, [1, 2])
    with pytest.raises(ValueError):
        CubeWitness.build(GeneratorMultiset.of(ctx3, (1, 2)), A)


def test_find_homogeneous_cube(ctx3):
    assert find_homogeneous_cube(ResidueSet.full(ctx3), 1) is not None
    ctx4 = GroupContext(4)
    c4 = layered_construction(4, ctx4)
    assert find_homogeneous_cube(c4, 2) is None
    x, y = find_homogeneous_cube(c4.with_member(4), 2)
    run = {i * x % 16 for i in range(1, 4)}
    shifted = {(y + i * x) % 16 for i in range(4)}
    target = c4.with_member(4)
    assert all(v in target for v in run | shifted)


def test_find_multiple_run(ctx3):
    assert find_multiple_run(ResidueSet.from_members(ctx3, [0, 5]), 7) == 0
    assert find_multiple_run(layer_set(1, ctx3), 2) is None
    assert find_multiple_run(ResidueSet.from_members(ctx3, [2, 4, 6]), 3) == 2
    with pytest.raises(ValueError):
        find_multiple_run(layer_set(1, ctx3), 0)


def test_find_degenerate_3cube():
    for n in range(3, 8):
        ctx = GroupContext(n)
        assert find_degenerate_3cube(layered_construction(3, ctx)) is None
    ctx = GroupContext(5)
    full = ResidueSet.full(ctx)
    witness = find_degenerate_3cube(full)
    assert witness is not None and witness.cube.issubset(full)
    runny = ResidueSet.from_members(ctx, [1, 2, 3])
    assert find_degenerate_3cube(runny).generators.elements == (1, 1, 1)


def test_degenerate_3cube_on_dense_sets(rng):
    # beyond 5/8 of the group one of the two special shapes appears (n <= 5)
    ctx = GroupContext(4)
    threshold = 10  # (5/8) * 16
    for _ in range(200):
        members = rng.sample(range(16), rng.randint(threshold + 1, 16))
        A = ResidueSet.from_members(ctx, members)
        assert find_degenerate_3cube(A) is not None


@st.composite
def cap_premise_cases(draw):
    """(n, t, elements): 2^(t-j+1) residues of Z_{2^n} with valuations in [j-1, t-1]."""
    n = draw(st.integers(1, 5))
    t = draw(st.integers(1, n))
    j = draw(st.integers(1, t))
    valuations = draw(st.lists(st.integers(j - 1, t - 1),
                               min_size=1 << (t - j + 1), max_size=1 << (t - j + 1)))
    elements = [(2 * draw(st.integers(0, (1 << (n - v - 1)) - 1)) + 1) << v for v in valuations]
    return n, t, elements


@settings(max_examples=300, deadline=None)
@given(cap_premise_cases())
@example((5, 5, [1] * 32))
@example((4, 3, [2, 6, 10, 14]))
def test_zero_sum_cap_premise(case):
    # the premise of the zero-sum cap in _maxdim: such a multiset always has
    # a nonempty subset sum divisible by 2^t, so no set avoiding the multiples
    # of 2^t holds its cube
    n, t, elements = case
    ctx = GroupContext(n)
    assert cube_mask(elements, ctx) & layer_range_set(t + 1, n + 1, ctx).mask


# k -> half-sum-free multisets of >= 2^k residues mod 2^(k+1)
PREMISE_COUNTS = {1: 1, 2: 30, 3: 1756, 4: 347736}


@pytest.mark.parametrize("k", [1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_gap_cap_premise(k):
    # the zero-sum dichotomy at k for every x, the premise of the layer-gap
    # cap at a gap m = k: 2^k + x nonzero residues mod 2^(k+1) either have a
    # subset sum 2^k or hold x + 1 disjoint zero-sum parts
    checked = 0
    for elements in _half_sum_free_multisets(k):  # every size; the walk is finite
        x = len(elements) - (1 << k)
        if x >= 0:
            checked += 1
            assert disjoint_zero_sets(ResidueCollection(k, elements), x + 1) is not None, elements
    assert checked == PREMISE_COUNTS[k]


def test_gap_cap_uses_only_checked_gaps():
    # a gap m >= 1 rests on the dichotomy at k = m (below a gap at m = 0 lie
    # no generators), so the cap may use no gap that the premise test skips
    assert set(range(1, detection.GAP_CAP_MAX_M + 1)) <= set(PREMISE_COUNTS)


def _lemma_free_maxdims(n):
    """maxdim of every set of Z_{2^n}, indexed by mask, by the bare recursion.

    D & (D - g) is a subset of D, so a smaller mask; sets holding 0 get 0
    here and are never read.
    """
    size = 1 << n
    table = [0] * (1 << size)
    for D in range(2, 1 << size, 2):
        doubled = D | D << size
        table[D] = max(1 + table[D & (doubled >> g)] for g in mask_members(D))
    return table


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gap_cap_bounds_every_small_set(n):
    table = _lemma_free_maxdims(n)
    assert [D for D in range(2, 1 << (1 << n), 2) if _span_cap(D, n)[0] < table[D]] == []


def _lemma_free_maxdim(mask, n, cap):
    """min(maxdim, cap) by the bare recursion: no caps, no halving, no scaling."""
    size = 1 << n
    memo = {}

    def rec(D, c):
        if c == 0 or not D:
            return 0
        best = memo.get((D, c))
        if best is None:
            best, doubled = 0, D | D << size
            for g in mask_members(D):
                best = max(best, 1 + rec(D & (doubled >> g), c - 1))
                if best >= c:
                    break
            memo[D, c] = best
        return best

    return rec(mask, cap)


@st.composite
def sparse_layer_sets(draw):
    """(mask, n): a few members in each of some layers of Z_{2^n}, 5 <= n <= 7, with a gap."""
    n = draw(st.integers(5, 7))
    low = draw(st.integers(0, 2))
    gap = draw(st.integers(low + 1, low + 4))  # the first gap, at m = gap - low <= 4 (4 is not used)
    above = draw(st.sets(st.integers(gap + 1, n - 1), max_size=3)) if gap + 1 < n else set()
    mask = 0
    for v in [*range(low, min(gap, n)), *above]:
        odd = draw(st.sets(st.integers(0, (1 << (n - v - 1)) - 1), min_size=1, max_size=3))
        for u in odd:
            mask |= 1 << ((2 * u + 1) << v)
    return mask, n


@settings(max_examples=150, deadline=None)
@given(sparse_layer_sets())
@example((1 << 1 | 1 << 3 | 1 << 8 | 1 << 24, 5))  # {1, 3, 8, 24}: a gap at m = 1, L_4 above it
def test_gap_cap_bounds_sparse_layer_sets(case):
    mask, n = case
    cap = _span_cap(mask, n)[0]
    assert _lemma_free_maxdim(mask, n, cap + 1) <= cap


def _stabilizer_orbits(n, k):
    """Orbit masks of the nonzero residues under the odd lam = 1 (mod 2^k)."""
    size = 1 << n
    orbits, covered = [], 1
    for x in range(1, size):
        if not covered >> x & 1:
            orbit = 0
            for lam in range(1, size, 1 << k):
                orbit |= 1 << (lam * x % size)
            orbits.append(orbit)
            covered |= orbit
    return orbits


def test_memo_bound_keeps_answers(monkeypatch, rng):
    ctx = GroupContext(4)
    queries = [(ResidueSet(ctx, rng.getrandbits(16)), rng.randint(2, 5)) for _ in range(200)]

    def answers():
        clear_detection_cache()
        sweeps = [(c.optimum, c.witness.mask, c.explored)
                  for c in (max_cube_free_layer_unions(GroupContext(n), d)
                            for n in range(1, 7) for d in range(1, n + 1))]
        found = [w and w.generators.elements for w in (find_cube(A, d) for A, d in queries)]
        return sweeps, found

    expected = answers()
    limit, charged = 4096, []

    class Tracked(dict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            held = [mask for table in (detection._exact, detection._atleast) for _, mask in table]
            charges = [detection._ENTRY_BYTES + m.bit_length() // 7 for m in held]
            assert all(c >= sys.getsizeof(m) + sys.getsizeof((0, 0)) for c, m in zip(charges, held))
            assert detection._memo_bytes == sum(charges)
            charged.append(detection._memo_bytes)

    monkeypatch.setattr(detection, "_MEMO_BYTES", limit)
    monkeypatch.setattr(detection, "_exact", Tracked())
    monkeypatch.setattr(detection, "_atleast", Tracked())
    assert answers() == expected
    # the memo filled up, and was cleared before it grew past the bound
    largest = detection._ENTRY_BYTES + 64 // 7  # the charge of a mask of Z_{2^6}
    assert limit - largest < max(charged) <= limit


def reference_normalize(mask, n):
    """Halve while all members are even."""
    members = {x for x in range(1 << n) if mask >> x & 1}
    while not any(x & 1 for x in members):
        members = {x >> 1 for x in members}
        n -= 1
    return sum(1 << x for x in members), n


@st.composite
def detection_masks(draw):
    """(mask, n): a nonzero set without 0, its members all divisible by 2^t."""
    n = draw(st.integers(1, 12))
    t = draw(st.integers(0, n - 1))
    members = draw(st.sets(st.integers(1, (1 << (n - t)) - 1), min_size=1,
                           max_size=draw(st.sampled_from((4, 40, 1 << (n - t))))))
    return sum(1 << (x << t) for x in members), n


@settings(max_examples=300, deadline=None)
@given(detection_masks())
@example((1 << 1, 1))
@example((1 << 4 | 1 << 12, 4))  # {4, 12}: halved twice to {1, 3}
@example(((1 << 1024) - 2, 10))
@example((1 << 3 | 1 << 2047, 11))
def test_normalize_matches_reference(case):
    # the lowest valuation read off the raw mask is the number of halvings
    mask, n = case
    assert _normalize(mask, n, _span_cap(mask, n)[1]) == reference_normalize(mask, n)


@settings(max_examples=300, deadline=None)
@given(detection_masks())
@example((1 << 4 | 1 << 12, 4))
@example((1 << 1 | 1 << 2, 2))  # {1, 2}: layers L_1 and L_2
def test_span_cap_is_read_off_the_raw_mask(case):
    # the cap from the raw mask equals the cap after halving, and both are
    # min(|D|, the layer-gap cap of the valuations present); the halved set
    # has odd members
    mask, n = case
    valuations = {(x & -x).bit_length() - 1 for x in range(1, 1 << n) if mask >> x & 1}
    expected = min(mask.bit_count(), reference_gap_cap(valuations))
    assert _span_cap(mask, n) == (expected, min(valuations))
    assert _span_cap(*reference_normalize(mask, n)) == (expected, 0)


def dilate(mask, lam, size):
    """Bit mask of {lam * x mod size : x in mask}."""
    return sum(1 << y for y in {lam * x % size for x in mask_members(mask)})


@st.composite
def odd_dilates(draw):
    """(n, mask, lam, d): a set of Z_{2^n}, n <= 7, an odd lam and a cube dimension."""
    n = draw(st.integers(1, 7))
    members = draw(st.sets(st.integers(0, (1 << n) - 1), max_size=draw(st.sampled_from((6, 1 << n)))))
    lam = 2 * draw(st.integers(0, (1 << (n - 1)) - 1)) + 1
    return n, sum(1 << x for x in members), lam, draw(st.integers(1, n + 1))


@settings(max_examples=200, deadline=None)
@given(odd_dilates())
@example((5, 1 << 3 | 1 << 6 | 1 << 9, 11, 3))  # {3, 6, 9} is the 2-cube of (3, 6)
@example((7, ((1 << 128) - 1) // 3 * 2, 3, 7))  # the odd residues of Z_128
def test_detection_agrees_on_odd_dilates(case):
    # an odd lam is an automorphism of Z_{2^n} (Sigma*(lam Y) = lam Sigma*Y),
    # so A and lam A hold cubes of the same dimensions; their memo keys differ
    n, mask, lam, d = case
    ctx = GroupContext(n)
    A, B = ResidueSet(ctx, mask), ResidueSet(ctx, dilate(mask, lam, 1 << n))
    assert max_cube_dimension(A, n + 2) == max_cube_dimension(B, n + 2)
    for S in (A, B):
        witness = find_cube(S, d)
        assert (witness is None) == is_cube_free(S, d)
        if witness is not None:
            assert len(witness.generators) == d and witness.cube.issubset(S)
            assert witness.cube == projective_cube(witness.generators)


def test_deep_cubes_end_in_capacity_error():
    # {1} x d is a d-cube of {1, ..., 1023}, and both engines recurse once
    # per generator; the memo keeps finished values only, so later answers
    # are those of a cold memo
    A = ResidueSet(GroupContext(10), (1 << 1024) - 2)
    clear_detection_cache()
    for query in (max_cube_dimension, find_cube):
        with pytest.raises(CapacityError, match="search for a 1000-cube ran out of depth"):
            query(A, 1000)
    assert max_cube_dimension(A, 600) == 600
    assert find_cube(A, 600).generators.elements == (1,) * 600


def reference_gap_cap(valuations):
    """2^m - 1 plus the cap of the valuations above the first gap m after the lowest, m <= 3.

    Without such a gap: 2^(top - low + 1) - 1, the zero-sum cap.
    """
    cap = 0
    while valuations:
        low = min(valuations)
        m = next(m for m in range(len(valuations) + 1) if low + m not in valuations)
        if m > detection.GAP_CAP_MAX_M:
            m = max(valuations) - low + 1
        cap += (1 << m) - 1
        valuations = {v for v in valuations if v > low + m}
    return cap


def test_gap_cap_examples():
    # no gap, gaps at m = 1 .. 4, and several gaps; |D| stays above the cap
    assert reference_gap_cap({0, 1, 2}) == 7
    assert reference_gap_cap({1, 3}) == 1 + 1  # halved, a gap at m = 1
    assert reference_gap_cap({0, 2, 3}) == 1 + 3
    assert reference_gap_cap({0, 1, 3}) == 3 + 1
    assert reference_gap_cap({0, 1, 2, 4, 5}) == 7 + 3
    assert reference_gap_cap({0, 1, 2, 3, 5}) == 63  # a gap at m = 4 is not used
    assert reference_gap_cap({0, 2, 4, 6}) == 4
    n = 8
    for valuations in ({0, 2, 3}, {0, 1, 2, 3, 5}, {1, 2, 4, 7}):
        mask = sum((1 << (u << v)) for v in valuations for u in range(1, 1 << (n - v), 2))
        assert _span_cap(mask, n)[0] == reference_gap_cap(valuations)


def test_small_members_of_a_wide_group_need_no_wide_table():
    # the layers of Z_{2^21} agree with those of Z_{2^7} below 128
    ctx = GroupContext(21)
    A = ResidueSet.from_members(ctx, range(2, 122, 2))
    groups._layer_tables.clear()
    witness = find_cube(A, 4)
    assert witness.generators.elements == (2, 2, 2, 2) and witness.cube.issubset(A)
    assert not is_cube_free(A, 5)
    assert max(groups._layer_tables) <= 7


def test_wide_groups_share_the_kept_table():
    # a sweep of Z_{2^12} reads the unions topped by L_11 off the table of Z_{2^12}
    groups._layer_tables.clear()
    table = groups._layer_masks(12)
    assert max_cube_free_layer_unions(GroupContext(12), 2).optimum == 2048
    assert groups._layer_masks(12) is table and 11 not in groups._layer_tables


def test_detection_tree_is_pinned(rng):
    # the memo after a fixed batch of searches from a cold memo: the layer
    # sweeps 1 <= d <= n <= 7, which the layer-gap cap closes at their roots
    # (they store at-least entries only), then unions of the orbits of the
    # odd lam = 1 (mod 2^k), k >= 2, whose searches store exact entries;
    # a cap return that moved ahead of or behind a memo write changes these.
    # Keys are halved sets, not odd scalings of them: the sweeps walk other
    # generators to their cubes (202 -> 196 at-least entries), and the
    # orbit unions, mapped into each other by many odd lam, share fewer keys
    clear_detection_cache()
    for n in range(1, 8):
        for d in range(1, n + 1):
            max_cube_free_layer_unions(GroupContext(n), d)
    assert (len(detection._exact), len(detection._atleast)) == (0, 196)
    for n in (5, 6):
        for k in range(2, n):
            orbits = _stabilizer_orbits(n, k)
            for _ in range(20):
                _maxdim(sum(o for o in orbits if rng.random() < 0.5), n, n + 2)
    assert (len(detection._exact), len(detection._atleast)) == (18603, 2105)


def test_one_shot_memo_is_pinned(rng):
    # the memo after a fixed batch of one-shot queries from a cold memo;
    # keyed on halved sets only, odd dilates no longer share an entry
    # (607, 88 when keys were scaled to the smallest odd member 1); find_cube
    # decides at the root first and no longer searches the children of a
    # cube-free set (615, 83 when it did)
    clear_detection_cache()
    for n in (5, 6):
        ctx = GroupContext(n)
        for _ in range(60):
            A = ResidueSet(ctx, rng.getrandbits(1 << n) & rng.getrandbits(1 << n) & ~1)
            d = rng.randint(2, n + 1)
            find_cube(A, d)
            is_cube_free(A, d)
    assert (len(detection._exact), len(detection._atleast)) == (610, 83)


def test_run_masks_are_built_as_read():
    # Z_{2^21} has 2^21 runs of 2^21 bits each (2^42 bits), so each mask is
    # built only when it is read
    wide = detection._run_masks(groups.MAX_N, 3)
    assert [next(wide) for _ in range(3)] == [1, 0b1110, 0b1010100]
    A = ResidueSet.from_members(GroupContext(11), [5, 10, 15, 2000])
    assert find_multiple_run(A, 3) == 5 and find_multiple_run(A, 4) is None
