"""Acceptance suite: every stated criterion at full desk scale.

Each test runs one named verification check at its stated range and
tolerance (all checks are exact; zero failures are required) and prints one
pass/fail line.  Run with ``pytest -s tests/test_acceptance.py`` to see the
lines; the same checks back the ``cubefree verify-claims --level desk``
command.
"""

import random

import pytest

from cubefree import construction, search, verify
from cubefree.groups import GroupContext

CRITERIA = [
    ("construction_table", "tabled constructions reproduced exactly at n=12"),
    ("max_cube_free_d2", "2-cube-free maxima equal the largest layer (n=3,4)"),
    ("homogeneous_threshold", "dense sets contain a homogeneous cube (n<=5)"),
    ("multiple_run_threshold", "dense sets contain a multiple run (n<=4, ell<=2)"),
    ("construction_free_and_maximal", "constructions cube-free and maximal (d<=5, n<=7)"),
    ("layer_union_optimum", "layer-union optimum equals the construction (d<=n<=10)"),
    ("min_schur", "minimum Schur count is 3*2^(n-1) at size 2^(n-1)+1 (n=3,4)"),
    ("max_cube_free_d3", "3-cube-free maxima equal (5/8)*2^n (n=3,4,5)"),
    ("zero_sum_dichotomy", "half-sum or disjoint zero parts (k<=3 ranges)"),
    ("full_collection_half_sum", "all 1716 full collections reach the half sum (k=2)"),
    ("compression_properties", "compression laws over >=10^4 random valid sites"),
    ("detector_vs_enumeration", "detector agrees with naive enumeration"),
    ("schur_lower_bound", "ST >= profile bound (n<=4 exhaustive, 10^5 at n=8)"),
]

# the work each exhaustive check reports: collections settled (the half-sum
# ones by the prefix argument) and (set, d) cases compared
DESK_DETAILS = {
    "zero_sum_dichotomy": "1138572 collections, all split into half-sum or disjoint zero parts",
    "detector_vs_enumeration": "4768 (set, d) cases agree with multiset enumeration",
}


@pytest.mark.parametrize("name,summary", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance(name, summary):
    result = verify.CHECKS[name]("desk", random.Random(verify.DEFAULT_SEED))
    verdict = "PASS" if result.ok else "FAIL"
    print(f"{verdict} {name}: {summary} [{result.details}] "
          f"({result.elapsed_ms / 1000.0:.1f} s)")
    assert result.ok, f"{name}: {result.failures[:5]}"
    assert result.details == DESK_DETAILS.get(name, result.details)


def test_every_check_is_an_acceptance_criterion():
    assert [c[0] for c in CRITERIA] == list(verify.CHECKS)


@pytest.mark.parametrize("n", [11, 12])
def test_layer_union_optimum_beyond_desk_scale(n):
    # every sweep 1 <= d <= n of Z_{2^11} and Z_{2^12} (the desk check stops
    # at n = 10) meets the construction; each union is read off its layer word
    ctx = GroupContext(n)
    optima = [search.max_cube_free_layer_unions(ctx, d).optimum for d in range(1, n + 1)]
    assert optima == [construction.construction_size(d, ctx) for d in range(1, n + 1)]
