from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubefree import cli
from cubefree.errors import CapacityError, InapplicableCompressionError
from cubefree.groups import subset_sums
from cubefree.oracle import (
    ResidueCollection,
    compress,
    compress_type1,
    compress_type2,
    compress_type3,
    disjoint_zero_sets,
    max_disjoint_zero_sets,
    verify_zero_sum_dichotomy,
)


def _dfs_disjoint(masks_by_min, used, start, need):
    """Depth-first search for ``need`` disjoint masks, parts ordered by lowest index."""
    if need == 0:
        return []
    for min_idx in range(start, len(masks_by_min)):
        if used >> min_idx & 1:
            continue
        for m in masks_by_min[min_idx]:
            if m & used:
                continue
            rest = _dfs_disjoint(masks_by_min, used | m, min_idx + 1, need - 1)
            if rest is not None:
                return [m] + rest
    return None


def reference_max_disjoint(C):
    """Brute-force reference: every zero-sum index mask, then a DFS per count."""
    s = len(C.elements)
    by_min = [[] for _ in range(s)]
    for mask in range(1, 1 << s):
        if sum(C.elements[i] for i in range(s) if mask >> i & 1) % C.modulus == 0:
            by_min[(mask & -mask).bit_length() - 1].append(mask)
    best = 0
    while _dfs_disjoint(by_min, 0, 0, best + 1) is not None:
        best += 1
    return best


collections = st.integers(1, 3).flatmap(
    lambda k: st.lists(st.integers(1, (1 << (k + 1)) - 1), max_size=12).map(
        lambda xs: ResidueCollection.of(k, xs)))


def test_collection_validation():
    with pytest.raises(ValueError):
        ResidueCollection.of(2, [0, 1])
    with pytest.raises(ValueError):
        ResidueCollection(2, (3, 1))


def test_disjoint_zero_sets_example():
    c = ResidueCollection.of(2, [1, 7, 3, 5])
    cert = disjoint_zero_sets(c, 2)
    assert cert is not None and cert.verify(c)
    assert sorted(map(sorted, cert.parts)) == [[0, 3], [1, 2]]  # sorted elements: 1,3,5,7
    assert disjoint_zero_sets(ResidueCollection.of(2, [1]), 1) is None


def test_disjoint_zero_sets_unit_pairing():
    k = 3
    mod = 1 << (k + 1)
    c = ResidueCollection.of(k, [1] * 7 + [mod - 1] * 7)
    cert = disjoint_zero_sets(c, 7)
    assert cert is not None and cert.verify(c)
    assert max_disjoint_zero_sets(c) == 7


@settings(max_examples=150, deadline=None)
@given(collections)
def test_disjoint_zero_parts_match_reference(C):
    best = max_disjoint_zero_sets(C)
    assert best == reference_max_disjoint(C)
    for m in range(1, best + 1):
        cert = disjoint_zero_sets(C, m)
        assert cert is not None and len(cert.parts) == m and cert.verify(C)
    assert disjoint_zero_sets(C, best + 1) is None


def test_verify_dichotomy_small():
    report = verify_zero_sum_dichotomy(1, 0)
    assert report.space_size == 6 and report.checked == 6 and report.ok
    report = verify_zero_sum_dichotomy(2, 0)
    assert report.space_size == 210 and report.ok
    with pytest.raises(CapacityError):
        verify_zero_sum_dichotomy(3, 1, budget=1000)


def plain_dichotomy_fields(k, x):
    """Every report field by plain exhaustion: each multiset, its subset sums, then the oracle."""
    size = 1 << (k + 1)
    combos = list(combinations_with_replacement(range(1, size), (1 << k) + x))
    free = [c for c in combos if not subset_sums(c, size) >> (1 << k) & 1]
    parted = [disjoint_zero_sets(ResidueCollection(k, c), x + 1) is not None for c in free]
    return (k, x, len(combos), len(combos), len(combos) - len(free), sum(parted),
            tuple(c for c, ok in zip(free, parted) if not ok))


@pytest.mark.parametrize("k,x", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0)])
def test_pruned_dichotomy_matches_plain_exhaustion(k, x):
    # the smoke cases, (2, 2) and (3, 0): the prefix walk counts the half sums
    # it never visits, and must agree with visiting each multiset
    r = verify_zero_sum_dichotomy(k, x)
    assert (r.k, r.x, r.space_size, r.checked, r.half_sum_count, r.disjoint_zero_count,
            r.counterexamples) == plain_dichotomy_fields(k, x)


def test_verify_lemma_figures_at_k3_x1():
    code, report = cli.run(["verify-lemma", "--k", "3", "--x", "1"])
    assert code == 0
    assert report.result == {"space_size": 817190, "checked": 817190, "half_sum": 816694,
                             "disjoint_zero": 496, "counterexamples": []}


def test_compress_type1():
    c = ResidueCollection.of(2, [1, 1, 3])
    out = compress_type1(c, 3)
    assert out.elements == (1, 1, 1, 1, 1)
    # negative side: |t|=2 with t=6 (-2) turns into two copies of -1
    c = ResidueCollection.of(2, [1, 6])
    out = compress_type1(c, 6)
    assert out.elements == (1, 7, 7)
    with pytest.raises(InapplicableCompressionError):
        compress_type1(ResidueCollection.of(2, [3, 3]), 3)  # no units
    with pytest.raises(InapplicableCompressionError):
        compress_type1(ResidueCollection.of(2, [1, 1]), 1)  # |t| too small


def test_compress_type2():
    c = ResidueCollection.of(2, [7, 3, 3])
    out = compress_type2(c, 1)
    assert out.elements == (7, 7, 7)
    with pytest.raises(InapplicableCompressionError):
        compress_type2(ResidueCollection.of(2, [7, 3]), 1)


def test_compress_type3():
    c = ResidueCollection.of(2, [1, 1, 3, 3])
    out = compress_type3(c, 3, 3)
    assert out.elements == (1, 1, 7, 7)
    with pytest.raises(InapplicableCompressionError):
        compress_type3(ResidueCollection.of(2, [1, 3, 3]), 3, 3)  # one unit only
    with pytest.raises(InapplicableCompressionError):
        compress_type3(ResidueCollection.of(1, [1, 1]), 1, 1)  # k too small
    with pytest.raises(InapplicableCompressionError):
        compress_type3(ResidueCollection.of(3, [1] * 4 + [5, 5]), 5, 5)  # below range


def test_compress_dispatch():
    c = ResidueCollection.of(2, [1, 1, 3])
    assert compress(c, "type1", t=3).elements == (1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        compress(c, "type1")
    with pytest.raises(ValueError):
        compress(c, "type9", t=1)


def test_type1_preserves_sumset_on_compliant_collections():
    # hand-picked collections with no half-modulus subset sum
    cases = [
        (2, [1, 1, 6], 6),
        (2, [1, 1, 1, 6], 6),
        (3, [1, 1, 15, 3], 3),
        (3, [1, 1, 1, 1, 13], 13),
    ]
    for k, elements, t in cases:
        c = ResidueCollection.of(k, elements)
        assert not c.sumset_mask() >> c.half & 1
        assert compress_type1(c, t).sumset_mask() == c.sumset_mask()


def test_type2_type3_never_enlarge_sumset():
    c = ResidueCollection.of(2, [7, 3, 3])
    assert compress_type2(c, 1).sumset_mask() & ~c.sumset_mask() == 0
    c = ResidueCollection.of(2, [1, 1, 3, 3])
    assert compress_type3(c, 3, 3).sumset_mask() & ~c.sumset_mask() == 0
