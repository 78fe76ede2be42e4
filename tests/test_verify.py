import pytest

from cubefree import verify
from cubefree.groups import GroupContext, ResidueSet, layer_set


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
