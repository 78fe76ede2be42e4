from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubefree import construction, detection, oracle, verify
from cubefree.groups import GroupContext, ResidueSet, layer_set
from cubefree.sumsets import cube_mask


def test_smoke_level_all_green():
    results = verify.run_checks(level="smoke")
    assert len(results) == len(verify.CHECKS)
    failed = [r.name for r in results if not r.ok]
    assert failed == []


def test_run_checks_validation():
    with pytest.raises(ValueError):
        verify.run_checks(level="weekly")
    with pytest.raises(ValueError):
        verify.run_checks(names=["no_such_check"])


def test_results_are_seed_stable():
    a = verify.run_checks(level="smoke", names=["compression_properties"])[0]
    b = verify.run_checks(level="smoke", names=["compression_properties"])[0]
    assert a.ok and b.ok and a.details == b.details


def test_fault_injection_is_reported(monkeypatch):
    # corrupt the construction: adding the skipped layer creates cubes, so the
    # cube-freeness check must fail and name the failing instance
    original = verify.construction.layered_construction

    def corrupted(d, ctx):
        return original(d, ctx) | layer_set(min(2, ctx.n), ctx)

    monkeypatch.setattr(verify.construction, "layered_construction", corrupted)
    result = verify.run_checks(level="smoke",
                               names=["construction_free_and_maximal"])[0]
    assert not result.ok
    assert any("contains" in f for f in result.failures)


def test_fault_injection_in_table(monkeypatch):
    def corrupted(d, ctx):
        return ResidueSet.from_members(ctx, [1])

    monkeypatch.setattr(verify.construction, "layered_construction", corrupted)
    result = verify.run_checks(level="smoke", names=["construction_table"])[0]
    assert not result.ok
    assert result.failures


def test_naive_oracles_agree_on_spot_checks():
    ctx = GroupContext(3)
    A = ResidueSet.from_members(ctx, [2, 3, 4, 5, 7])
    assert verify._naive_contains_cube(A, 3)
    assert not verify._naive_contains_cube(layer_set(1, ctx), 2)


def _plain_contains_cube(A, d):
    return any(cube_mask(g, A.ctx) & ~A.mask == 0
               for g in combinations_with_replacement(A.members(), d))


def test_pruned_naive_oracle_matches_plain_enumeration_in_z8():
    ctx = GroupContext(3)
    for mask in range(1 << 8):
        A = ResidueSet(ctx, mask)
        for d in range(5):
            assert verify._naive_contains_cube(A, d) == _plain_contains_cube(A, d), (mask, d)


def _masks(n):
    """Dense masks drawn whole, and sparse ones from a few members."""
    size = 1 << n
    return st.one_of(st.integers(0, (1 << size) - 1),
                     st.sets(st.integers(0, size - 1)).map(lambda xs: sum(1 << x for x in xs)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([4, 5]).flatmap(lambda n: st.tuples(st.just(n), _masks(n))),
       st.integers(1, 4))
def test_pruned_naive_oracle_matches_plain_enumeration(case, d):
    n, mask = case
    A = ResidueSet(GroupContext(n), mask)
    assert verify._naive_contains_cube(A, d) == _plain_contains_cube(A, d)


def test_broken_disjoint_parts_oracle_fails_the_dichotomy(monkeypatch):
    # half-sum collections are counted, not visited, so the walked ones must
    # still reach the disjoint-parts oracle
    monkeypatch.setattr(oracle, "disjoint_zero_sets", lambda C, m: None)
    result = verify.run_checks(level="smoke", names=["zero_sum_dichotomy"])[0]
    assert not result.ok and result.failures


def test_broken_detector_fails_the_enumeration_check(monkeypatch):
    monkeypatch.setattr(detection, "find_cube", lambda A, d: None)
    result = verify.run_checks(level="smoke", names=["detector_vs_enumeration"])[0]
    assert not result.ok and result.failures


def test_maximality_representatives_match_complement_walk():
    # odd scaling fixes a layer union, so adding x = 2^v u, u odd, answers as
    # adding 2^v does, over the whole desk range d <= 5, n <= 7
    for d in range(1, 6):
        for n in range(max(construction.construction_layers(d), default=1), 8):
            cd = construction.layered_construction(d, GroupContext(n))
            for r in cd.complement().members():
                assert detection.is_cube_free(cd.with_member(r), d) == \
                    detection.is_cube_free(cd.with_member(r & -r), d), (d, n, r)


def test_constructions_cube_free_and_maximal_up_to_n_16():
    for n in range(1, 17):
        for d in range(1, n + 1):
            assert verify._construction_failures(d, GroupContext(n)) == [], (n, d)


def test_fault_injection_reports_a_missing_layer(monkeypatch):
    # without its top layer L_t the construction stays cube-free, and adding
    # 2^(t-1), the representative of L_t, must be reported
    original = verify.construction.layered_construction

    def thinned(d, ctx):
        built, layers = original(d, ctx), verify.construction.construction_layers(d)
        return ResidueSet(ctx, built.mask & ~layer_set(layers[-1], ctx).mask) if layers else built

    monkeypatch.setattr(verify.construction, "layered_construction", thinned)
    result = verify.run_checks(level="smoke", names=["construction_free_and_maximal"])[0]
    assert not result.ok
    assert "d=3 n=3: adding 4 stays 3-cube-free" in result.failures
