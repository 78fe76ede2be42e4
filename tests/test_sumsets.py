from itertools import combinations, combinations_with_replacement

import pytest

from cubefree.groups import GeneratorMultiset, GroupContext, mask_members
from cubefree.sumsets import cube_mask, projective_cube


def subset_sum_cube(elements, ctx):
    """Oracle: enumerate every nonempty index subset explicitly."""
    sums = set()
    for r in range(1, len(elements) + 1):
        for idx in combinations(range(len(elements)), r):
            sums.add(sum(elements[i] for i in idx) % ctx.modulus)
    return sums


def test_projective_cube_examples(ctx3):
    assert projective_cube(GeneratorMultiset.of(ctx3, (2, 5, 5))).members() == [2, 4, 5, 7]
    assert projective_cube(GeneratorMultiset.of(ctx3, (3, 3))).members() == [3, 6]
    assert projective_cube(GeneratorMultiset.of(ctx3, (1, 1, 1))).members() == [1, 2, 3]
    with pytest.raises(ValueError):
        projective_cube(GeneratorMultiset.of(ctx3, ()))


def test_cube_matches_subset_enumeration_exhaustive():
    for n in (2, 3, 4):
        ctx = GroupContext(n)
        for size in (1, 2, 3):
            for elements in combinations_with_replacement(range(ctx.modulus), size):
                gens = GeneratorMultiset.of(ctx, elements)
                assert set(projective_cube(gens).members()) == subset_sum_cube(elements, ctx)


def test_cube_matches_subset_enumeration_sampled(rng):
    ctx = GroupContext(6)
    for _ in range(300):
        size = rng.randint(1, 6)
        elements = tuple(sorted(rng.randrange(ctx.modulus) for _ in range(size)))
        gens = GeneratorMultiset.of(ctx, elements)
        assert set(projective_cube(gens).members()) == subset_sum_cube(elements, ctx)


def test_cube_monotone_under_multiset_extension(rng):
    ctx = GroupContext(5)
    for _ in range(200):
        small = [rng.randrange(32) for _ in range(rng.randint(1, 4))]
        big = small + [rng.randrange(32) for _ in range(rng.randint(1, 3))]
        a = projective_cube(GeneratorMultiset.of(ctx, small))
        b = projective_cube(GeneratorMultiset.of(ctx, big))
        assert a.issubset(b)


def dilate(mask, lam, size):
    """Bit mask of {lam * x mod size : x in mask}."""
    return sum(1 << y for y in {lam * x % size for x in mask_members(mask)})


def test_cube_scaling_equivariance(rng):
    ctx = GroupContext(5)
    for _ in range(200):
        gens = GeneratorMultiset.of(
            ctx, (rng.randrange(32) for _ in range(rng.randint(1, 5))))
        lam = rng.choice(range(1, 32, 2))
        scaled = GeneratorMultiset.of(ctx, (lam * a for a in gens.elements))
        assert projective_cube(scaled).mask == dilate(projective_cube(gens).mask, lam, 32)


def test_stalled_step_contains_generated_subgroup():
    # zero growth forces the cyclic subgroup generated by the new element,
    # hence both 0 and 2^(n-1), into the sumset
    stalls = 0
    for n in (3, 4):
        ctx = GroupContext(n)
        half = 1 << (n - 1)
        for size in (2, 3, 4):
            for elements in combinations_with_replacement(range(1, ctx.modulus), size):
                for pos, a in enumerate(elements):
                    prior = cube_mask(elements[:pos], ctx) | 1  # the empty sum too
                    if cube_mask(elements[:pos + 1], ctx) | 1 != prior:
                        continue
                    stalls += 1
                    value = a
                    while True:
                        assert prior >> value & 1
                        if value == 0:
                            break
                        value = (value + a) % ctx.modulus
                    assert prior >> half & 1
    assert stalls
