import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubefree.errors import CapacityError, InapplicableCompressionError
from cubefree.oracle import (
    ResidueCollection,
    check_zero_sum_dichotomy,
    compress,
    compress_type1,
    compress_type2,
    compress_type3,
    disjoint_zero_sets,
    half_sum_subset,
    max_disjoint_zero_sets,
    verify_zero_sum_dichotomy,
    zero_sum_subset,
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


def test_zero_sum_subset_examples():
    assert zero_sum_subset([1, 1, 1], 3) == {0, 1, 2}
    assert zero_sum_subset([2, 3], 2) == {0}
    idx = zero_sum_subset([1, 3, 5, 7], 4)
    assert idx and sum([1, 3, 5, 7][i] for i in idx) % 4 == 0
    with pytest.raises(ValueError):
        zero_sum_subset([1, 2], 3)


def test_zero_sum_subset_always_contiguous(rng):
    for _ in range(300):
        m = rng.randint(1, 12)
        xs = [rng.randint(-20, 20) for _ in range(rng.randint(m, m + 6))]
        idx = sorted(zero_sum_subset(xs, m))
        assert idx == list(range(idx[0], idx[-1] + 1))
        assert sum(xs[i] for i in idx) % m == 0


def test_half_sum_subset():
    c = ResidueCollection.of(1, [2, 2])
    assert half_sum_subset(c) == {0}
    assert half_sum_subset(ResidueCollection.of(2, [1, 7])) is None
    found = half_sum_subset(ResidueCollection.of(2, [1, 1, 1, 1, 3, 5, 7]))
    assert found is not None
    elements = ResidueCollection.of(2, [1, 1, 1, 1, 3, 5, 7]).elements
    assert sum(elements[i] for i in found) % 8 == 4


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


def test_dichotomy_instances():
    v = check_zero_sum_dichotomy(ResidueCollection.of(1, [2, 2]))
    assert v.kind == "half_sum"
    v = check_zero_sum_dichotomy(ResidueCollection.of(1, [1, 3]))
    assert v.kind == "disjoint_zero"
    assert v.certificate.verify(ResidueCollection.of(1, [1, 3]))
    with pytest.raises(ValueError):
        check_zero_sum_dichotomy(ResidueCollection.of(2, [1, 2]))


def test_verify_dichotomy_small():
    report = verify_zero_sum_dichotomy(1, 0)
    assert report.space_size == 6 and report.checked == 6 and report.ok
    report = verify_zero_sum_dichotomy(2, 0)
    assert report.space_size == 210 and report.ok
    with pytest.raises(CapacityError):
        verify_zero_sum_dichotomy(3, 1, budget=1000)


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
