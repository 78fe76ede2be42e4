import random
from functools import partial
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubefree.construction import construction_size
from cubefree import cli, search
from cubefree.detection import _word_cap, is_cube_free
from cubefree.errors import CapacityError
from cubefree.groups import MAX_N, GroupContext, ResidueSet, _layer_masks, centred_set
from cubefree.counting import count_schur_triples
from cubefree.sumsets import cube_mask
from cubefree.search import (
    _bnb_max,
    _minimal_unique,
    _run_dimension,
    cube_constraint_masks,
    degenerate_3cube_masks,
    export_cnf,
    export_lp,
    max_cube_free_exact,
    max_cube_free_layer_unions,
    min_schur_exhaustive,
    parse_assignment,
    validate_assignment,
)


def find_nothing(cand):
    """The separator for a family passed to ``_bnb_max`` whole: no mask is left to find."""
    return []


def brute_force_max_cube_free(n, d):
    ctx = GroupContext(n)
    best = -1
    for mask in range(1 << ctx.modulus):
        if mask.bit_count() > best and is_cube_free(ResidueSet(ctx, mask), d):
            best = mask.bit_count()
    return best


def parse_dimacs(text):
    clauses = []
    num_vars = 0
    for line in text.splitlines():
        if line.startswith(("c", "p")) or not line.strip():
            if line.startswith("p"):
                num_vars = int(line.split()[2])
            continue
        lits = [int(tok) for tok in line.split()]
        assert lits[-1] == 0
        clauses.append(lits[:-1])
    return num_vars, clauses


def dpll(clauses, assignment):
    """Tiny complete SAT solver used as an independent oracle for the models."""
    while True:
        unit = None
        simplified = []
        for clause in clauses:
            undecided = []
            satisfied = False
            for lit in clause:
                value = assignment.get(abs(lit))
                if value is None:
                    undecided.append(lit)
                elif (lit > 0) == value:
                    satisfied = True
                    break
            if satisfied:
                continue
            if not undecided:
                return None
            if len(undecided) == 1:
                unit = undecided[0]
            simplified.append(undecided)
        clauses = simplified
        if unit is None:
            break
        assignment = dict(assignment)
        assignment[abs(unit)] = unit > 0
    if not clauses:
        return assignment
    var = abs(clauses[0][0])
    for value in (True, False):
        trial = dict(assignment)
        trial[var] = value
        result = dpll(clauses, trial)
        if result is not None:
            return result
    return None


def test_exact_matches_brute_force_n3():
    for d in (1, 2, 3):
        expected = brute_force_max_cube_free(3, d)
        cert = max_cube_free_exact(GroupContext(3), d)
        assert cert.optimum == expected
        assert is_cube_free(cert.witness, d)
        assert len(cert.witness) == cert.optimum


def test_exact_small_values():
    assert max_cube_free_exact(GroupContext(3), 2).optimum == 4
    assert max_cube_free_exact(GroupContext(4), 2).optimum == 8
    assert max_cube_free_exact(GroupContext(3), 3).optimum == 5
    assert max_cube_free_exact(GroupContext(4), 4).optimum == 12
    assert max_cube_free_exact(GroupContext(4), 3, symmetry=True).optimum == 10


def test_exact_confirms_construction_at_larger_cases():
    # theorem cases (d a power of two) and the first conjectured cases; (6, 5)
    # needs its C(68, 5) generator multisets as the budget
    for n, d, budget in [(4, 4, None), (4, 5, None), (4, 8, None), (5, 4, None),
                         (6, 4, None), (6, 5, 10_424_128)]:
        cert = max_cube_free_exact(GroupContext(n), d, symmetry=True, budget=budget)
        assert cert.optimum == construction_size(d, GroupContext(n))
        assert len(cert.witness) == cert.optimum and is_cube_free(cert.witness, d)
    assert (construction_size(4, GroupContext(6)), construction_size(5, GroupContext(6))) == (48, 52)


@pytest.mark.parametrize("n, d", [(n, d) for n in range(1, 5) for d in range(2, 9)]
                         + [(5, d) for d in range(2, 6)])
def test_lazy_search_matches_enumerated_family(n, d):
    # the exact search gathers its cubes from find_cube; the enumerated
    # minimal family, searched with no incumbent, is the independent oracle
    ctx = GroupContext(n)
    optimum, _, _ = _bnb_max(ctx.modulus, cube_constraint_masks(ctx, d), 0, 0, 0, 10**7,
                             find_nothing)
    for symmetry in (False, True):
        cert = max_cube_free_exact(ctx, d, symmetry=symmetry)
        assert cert.optimum == optimum
        assert len(cert.witness) == optimum and is_cube_free(cert.witness, d)


def test_exact_search_without_construction_seed():
    # d = 6 does not fit inside Z_16, so the search starts from scratch
    cert = max_cube_free_exact(GroupContext(4), 6)
    assert cert.optimum == 13
    assert is_cube_free(cert.witness, 6)


def reference_bnb_max(size, masks, start_val, start_mask, forced_in, node_budget):
    """The list-walk branch and bound that ``_bnb_max`` replaced: every node
    scans the open constraints and rebuilds their list for each child."""
    full = (1 << size) - 1
    state = {"best_val": start_val, "best_mask": start_mask, "nodes": 0}
    ordered = sorted(masks, key=lambda c: (c.bit_count(), c))

    def rec(excluded, exc_count, forbidden, alive):
        state["nodes"] += 1
        if state["nodes"] > node_budget:
            raise CapacityError(
                f"branch-and-bound exceeded the node budget of {node_budget}"
            )
        if not alive:
            val = size - exc_count
            if val > state["best_val"]:
                state["best_val"] = val
                state["best_mask"] = full & ~excluded
            return
        limit = size - state["best_val"] - 1
        packing = 0
        used = 0
        branch = None
        branch_pc = size + 1
        # the packing takes constraints by fewest free members, then by index
        for c in sorted(alive, key=lambda c: (c & ~forbidden).bit_count()):
            cf = c & ~forbidden
            if cf == 0:
                return  # some cube can no longer be broken
            if cf & used == 0:
                packing += 1
                used |= cf
            pc = cf.bit_count()
            if pc < branch_pc:
                branch_pc = pc
                branch = cf
        if exc_count + packing > limit:
            return
        forb = forbidden
        rest = branch
        while rest:
            low = rest & -rest
            rest ^= low
            alive2 = [c for c in alive if not c & low]
            rec(excluded | low, exc_count + 1, forb, alive2)
            forb |= low
    rec(0, 0, forced_in, ordered)
    return state["best_val"], state["best_mask"], state["nodes"]


@st.composite
def constraint_families(draw):
    """(size, masks in (bit count, value) order, forced_in, feasible start).

    Up to 56 masks have 2-7 bits and up to 4 one bit: a one-bit mask only
    rules its residue out, and many of them leave trees of a node or two.
    The multi-bit masks come from a generator seeded by one draw: drawing
    them residue by residue took ten times as long as both searches.
    """
    size = draw(st.integers(4, 16))
    residues = st.integers(0, size - 1)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    family = [rng.sample(range(size), rng.randint(2, min(7, size)))
              for _ in range(draw(st.integers(0, 56)))]
    family += [[x] for x in draw(st.lists(residues, max_size=4))]
    masks = sorted({sum(1 << x for x in s) for s in family},
                   key=lambda c: (c.bit_count(), c))
    forced_in = sum(1 << x for x in draw(st.frozensets(residues, max_size=3)))
    start = draw(st.integers(0, (1 << size) - 1))
    for c in masks:
        if c & ~start == 0:
            start &= ~(1 << (c.bit_length() - 1))
    return size, masks, forced_in, start


def brute_force_max_avoiding(size, masks, forced_in):
    """Largest set holding forced_in and no mask, trying the sets by falling
    size; -1 if there is none."""
    free = [x for x in range(size) if not forced_in >> x & 1]
    for k in range(len(free), -1, -1):
        for extra in combinations(free, k):
            chosen = forced_in | sum(1 << x for x in extra)
            if all(c & ~chosen for c in masks):
                return chosen.bit_count()
    return -1


@settings(max_examples=400, deadline=None)
@given(constraint_families())
def test_bitset_branch_and_bound_matches_list_walk(family):
    size, masks, forced_in, start = family
    args = (size, masks, start.bit_count(), start, forced_in)
    bnb_max = partial(_bnb_max, separate=find_nothing)
    val, mask, nodes = bnb_max(*args, node_budget=10**6)
    assert (val, mask, nodes) == reference_bnb_max(*args, node_budget=10**6)
    assert mask.bit_count() == val and all(c & ~mask for c in masks)
    if size <= 12:
        assert val == max(start.bit_count(), brute_force_max_avoiding(size, masks, forced_in))
    for search in (bnb_max, reference_bnb_max):
        with pytest.raises(CapacityError, match=f"node budget of {nodes - 1}$"):
            search(*args, node_budget=nodes - 1)


def test_search_trees_are_pinned():
    # the optimum, and the node count that shows the tree is walked unchanged;
    # the cubes are gathered lazily, and a partial pool prunes less than the
    # whole minimal family would
    for n, symmetry, optimum, explored in ((6, True, 40, 1428), (5, False, 20, 113),
                                           (5, True, 20, 85)):
        cert = max_cube_free_exact(GroupContext(n), 3, symmetry=symmetry)
        assert (cert.optimum, cert.explored) == (optimum, explored)
        assert len(cert.witness) == optimum and is_cube_free(cert.witness, 3)


@pytest.mark.slow
def test_seven_three_optimum_is_the_construction():
    # d = 3 is no power of two, so the paper leaves this optimum open; the
    # fewest-free-first packing certifies it in about 200 s
    ctx = GroupContext(7)
    cert = max_cube_free_exact(ctx, 3, symmetry=True, budget=400_000)
    assert (cert.optimum, cert.explored) == (construction_size(3, ctx), 227_663)
    assert cert.optimum == 80
    assert len(cert.witness) == 80 and is_cube_free(cert.witness, 3)


def test_exact_budget_errors():
    with pytest.raises(CapacityError):
        max_cube_free_exact(GroupContext(3), 3, budget=10)
    ctx = GroupContext(4)
    masks = cube_constraint_masks(ctx, 3)
    best, _, nodes = _bnb_max(ctx.modulus, masks, 0, 0, 0, 10**6, find_nothing)
    assert best == 10 and nodes > 5
    with pytest.raises(CapacityError, match="node budget of 5"):
        _bnb_max(ctx.modulus, masks, 0, 0, 0, 5, find_nothing)


def test_layer_union_certificates():
    cert = max_cube_free_layer_unions(GroupContext(5), 3)
    assert cert.optimum == 20
    assert cert.witness.members() == sorted(
        x for x in range(32) if x % 2 == 1 or x % 8 == 4)
    assert max_cube_free_layer_unions(GroupContext(4), 2).optimum == 8
    cert = max_cube_free_layer_unions(GroupContext(7), 7)
    assert cert.optimum == 108
    with pytest.raises(ValueError):
        max_cube_free_layer_unions(GroupContext(3), 4)


def test_layer_union_optimum_matches_construction_small():
    for n in range(1, 8):
        ctx = GroupContext(n)
        for d in range(1, n + 1):
            assert max_cube_free_layer_unions(ctx, d).optimum == \
                construction_size(d, ctx)


def sorted_union_table(n):
    """(union mask, size, layer indices) for all 2^(n+1) unions of L_1..L_{n+1},
    by decreasing size, then by mask."""
    entries = []
    for subset in range(1 << (n + 1)):
        indices = tuple(i + 1 for i in range(n + 1) if subset >> i & 1)
        umask = sum(_layer_masks(n)[i - 1] for i in indices)
        entries.append((umask, umask.bit_count(), indices))
    return sorted(entries, key=lambda e: (-e[1], e[0]))


def test_layer_union_sweep_matches_sorted_table():
    for n in range(1, 7):
        ctx = GroupContext(n)
        table = sorted_union_table(n)
        for d in range(1, n + 1):
            first = next(k for k, (umask, _, _) in enumerate(table)
                         if is_cube_free(ResidueSet(ctx, umask), d))
            umask, size, _ = table[first]
            cert = max_cube_free_layer_unions(ctx, d)
            assert (cert.optimum, cert.witness.mask) == (size, umask)
            # every union without {0} = L_{n+1} down to the optimum is tested
            assert cert.explored == sum(1 for _, _, indices in table[:first + 1]
                                        if n + 1 not in indices)


def layer_word_unions(n):
    """(word, mask) of every union of L_1..L_n in Z_{2^n}; bit i - 1 of the word is L_i."""
    layers = _layer_masks(n)
    for word in range(1 << n):
        yield word, sum(layers[i] for i in range(n) if word >> i & 1)


def greedy_run_generators(word, n, most):
    """(the first ``most`` greedy generators, their count): 2^r - 1 copies of 2^s
    for each run of r valuations s..s+r-1 in the word, lowest run first."""
    gens, count, s = [], 0, 0
    while s < n:
        r = 0
        while s + r < n and word >> (s + r) & 1:
            r += 1
        count += (1 << r) - 1
        gens += [1 << s] * min((1 << r) - 1, most - len(gens))
        s += r + 1
    return gens, count


def test_layer_words_decide_cube_freeness():
    # every union of L_1..L_n, n <= 10, and every d <= n + 1: a run bound of
    # at least d certifies a d-cube; min(|U|, word cap) below d certifies none
    for n in range(1, 11):
        ctx = GroupContext(n)
        for word, umask in layer_word_unions(n):
            union = ResidueSet(ctx, umask)
            lower, upper = _run_dimension(word), min(umask.bit_count(), _word_cap(word))
            for d in range(1, n + 2):
                if lower >= d:
                    assert not is_cube_free(union, d), (n, word, d)
                if upper < d:
                    assert is_cube_free(union, d), (n, word, d)


def test_greedy_run_cube_lies_in_the_union():
    # the first d greedy generators, d <= min(n, 8), span a cube inside the
    # union; checked at the largest such d, whose cube holds those of fewer
    for n in range(1, 15):
        ctx = GroupContext(n)
        for word, umask in layer_word_unions(n):
            gens, count = greedy_run_generators(word, n, min(n, 8))
            assert count == _run_dimension(word)
            if gens:
                assert cube_mask(gens, ctx) & ~umask == 0, (n, word, len(gens))


def test_layer_sweeps_need_no_detection(monkeypatch):
    def detect(A, d):
        raise AssertionError(f"detection called on a union of Z_{{2^{A.ctx.n}}} at d = {d}")

    monkeypatch.setattr(search, "is_cube_free", detect)
    for n in range(1, 17):
        ctx = GroupContext(n)
        for d in range(1, n + 1):
            assert max_cube_free_layer_unions(ctx, d).optimum == construction_size(d, ctx)


def test_undecided_layer_word_raises(monkeypatch, capsys):
    # with a word cap that decides nothing cube-free, the first union the run
    # bound leaves open has no decider left: L_1 alone at d = 2
    monkeypatch.setattr(search, "_word_cap", lambda word: 1 << 30)
    with pytest.raises(AssertionError, match=r"^layer word 0b1 of Z_\{2\^3\} leaves d = 2 undecided$"):
        max_cube_free_layer_unions(GroupContext(3), 2)
    assert cli.main(["max-search", "--n", "3", "--d", "2", "--mode", "layers"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: AssertionError: layer word 0b1 of Z_{2^3} leaves d = 2 undecided\n"


def test_min_schur_values():
    cert = min_schur_exhaustive(GroupContext(3), 5)
    assert cert.optimum == 12
    assert count_schur_triples(cert.witness) == 12
    assert cert.optimum == count_schur_triples(centred_set(5, GroupContext(3)))
    assert min_schur_exhaustive(GroupContext(3), 4).optimum == 0
    with pytest.raises(CapacityError):
        min_schur_exhaustive(GroupContext(5), 17)


def odd_scaling(mask, lam, size):
    return sum(1 << (lam * x % size) for x in range(size) if mask >> x & 1)


def test_min_schur_symmetry_agrees():
    ctx = GroupContext(4)
    plain = min_schur_exhaustive(ctx, 6)
    reduced = min_schur_exhaustive(ctx, 6, symmetry=True)
    assert plain.optimum == reduced.optimum
    assert reduced.explored < plain.explored
    # no early stop above zero triples: explored is every orbit's least mask
    reduced = min_schur_exhaustive(ctx, 9, symmetry=True)
    least = {min(odd_scaling(sum(1 << x for x in combo), lam, 16) for lam in range(1, 16, 2))
             for combo in combinations(range(16), 9)}
    assert (reduced.optimum, reduced.explored) == (24, len(least)) == (24, 1533)
    assert min_schur_exhaustive(GroupContext(3), 5, symmetry=True).explored == 20


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("symmetry", [False, True])
def test_min_schur_at_the_empty_set_and_the_whole_group(n, symmetry):
    # one subset of each size: the empty one has no triple, the whole group
    # one for each of the 4^n ordered pairs
    ctx = GroupContext(n)
    for m, optimum in ((0, 0), (ctx.modulus, 4 ** n)):
        cert = min_schur_exhaustive(ctx, m, symmetry=symmetry)
        assert (cert.optimum, cert.explored, len(cert.witness)) == (optimum, 1, m)


def parse_lp_constraints(text):
    constraints = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("cube"):
            lhs, rhs = line.split("<=")
            vars_ = [int(tok.strip()[1:]) for tok in lhs.split(":")[1].split("+")]
            constraints.append((vars_, int(rhs)))
    return constraints


def lp_brute_force_optimum(text, size):
    constraints = parse_lp_constraints(text)
    return max(
        mask.bit_count() for mask in range(1 << size)
        if all(sum(mask >> v & 1 for v in vs) <= r for vs, r in constraints))


def test_lp_model_structure_and_optimum():
    ctx = GroupContext(3)
    text = export_lp(ctx, 3)
    assert text.startswith("\\ cube-free set model")
    assert "Maximize" in text and "Subject To" in text and "Binary" in text
    assert text.endswith("End\n")
    # brute-force the model over binary assignments: rows are <= constraints
    assert lp_brute_force_optimum(text, 8) == 5
    # d=2 model must cap at the odd layer size
    assert lp_brute_force_optimum(export_lp(ctx, 2), 8) == 4


def test_degenerate_pattern_masks():
    ctx = GroupContext(3)
    masks = degenerate_3cube_masks(ctx)
    assert masks and len(masks) == len(set(masks))
    from cubefree.detection import find_degenerate_3cube
    for m in masks:
        # each emitted mask is itself a cube of one of the two special shapes
        assert find_degenerate_3cube(ResidueSet(ctx, m)) is not None
    with pytest.raises(ValueError):
        export_lp(ctx, 2, patterns="degenerate")


@pytest.mark.parametrize("n", range(1, 6))
def test_degenerate_orbit_representatives_match_full_fold(n):
    # the patterns folded for x in {0} and the powers 2^v only, against all
    # 2^n (2^n + 1) of them
    ctx = GroupContext(n)
    size = ctx.modulus
    everything = [cube_mask((x, x, x), ctx) for x in range(size)]
    everything += [cube_mask((x, 3 * x % size, y), ctx) for x in range(size) for y in range(size)]
    assert len(everything) == size * (size + 1)
    assert degenerate_3cube_masks(ctx) == all_pairs_minimal(everything)


def test_degenerate_pattern_optimum_matches_conjectured_value():
    # the largest set avoiding just the two special 3-cube shapes already
    # tops out at 5/8 of the group, so any larger set contains one of them
    from cubefree.construction import layered_construction
    for n in range(3, 7):
        ctx = GroupContext(n)
        masks = degenerate_3cube_masks(ctx)
        seed = layered_construction(3, ctx)
        assert all(c & ~seed.mask for c in masks)
        val, mask, nodes = _bnb_max(ctx.modulus, masks, len(seed), seed.mask,
                                    1 << 1, 10 ** 8, find_nothing)
        assert val == 5 * (1 << n) // 8
    # the LP form of the same model agrees by brute force at n = 3
    assert lp_brute_force_optimum(
        export_lp(GroupContext(3), 3, patterns="degenerate"), 8) == 5


def test_degenerate_patterns_honour_the_budget():
    # the 2^n (2^n + 1) patterns are counted before any mask is built
    with pytest.raises(CapacityError) as info:
        degenerate_3cube_masks(GroupContext(MAX_N), budget=10 ** 12)
    assert info.value.space_size == (1 << 21) * ((1 << 21) + 1)
    with pytest.raises(CapacityError):
        export_lp(GroupContext(12), 3, patterns="degenerate")  # 16,781,312 > 5,000,000 by default
    assert len(degenerate_3cube_masks(GroupContext(3), budget=72)) == len(degenerate_3cube_masks(GroupContext(3)))
    with pytest.raises(CapacityError):
        degenerate_3cube_masks(GroupContext(3), budget=71)


def test_degenerate_export_at_desk_scale():
    # the restricted-pattern model stays emittable up to n=7
    ctx = GroupContext(7)
    text = export_lp(ctx, 3, patterns="degenerate")
    rows = sum(1 for line in text.splitlines() if line.strip().startswith("cube"))
    assert rows > 100
    assert text.endswith("End\n")


@pytest.mark.parametrize("d, patterns, message", [
    (2, "degenerate", "the degenerate pattern family is defined for d = 3"),
    (4, "degenerate", "the degenerate pattern family is defined for d = 3"),
    (3, "cubes", "unknown pattern family 'cubes'"),
])
def test_validation_rejects_pattern_families_as_the_exports_do(d, patterns, message):
    ctx = GroupContext(3)
    for call in (partial(export_lp, ctx, d, patterns=patterns),
                 partial(export_cnf, ctx, d, 5, patterns=patterns),
                 partial(validate_assignment, ctx, d, {1: 1.0}, patterns=patterns)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_cnf_satisfiability_matches_search():
    ctx = GroupContext(3)
    sat_cases = {5: True, 6: False}
    for target, expect in sat_cases.items():
        num_vars, clauses = parse_dimacs(export_cnf(ctx, 3, target))
        model = dpll(clauses, {})
        assert (model is not None) == expect
        if model is not None:
            chosen = [v - 1 for v in range(1, 9) if model.get(v)]
            report = validate_assignment(ctx, 3, {v: 1.0 for v in chosen})
            assert report["feasible"] and report["objective"] >= target
    num_vars, clauses = parse_dimacs(export_cnf(ctx, 2, 5))
    assert dpll(clauses, {}) is None
    num_vars, clauses = parse_dimacs(export_cnf(ctx, 2, 4))
    assert dpll(clauses, {}) is not None


def test_cnf_edge_targets():
    ctx = GroupContext(3)
    _, clauses = parse_dimacs(export_cnf(ctx, 3, 9))
    assert [] in clauses  # impossible target yields the empty clause
    _, clauses = parse_dimacs(export_cnf(ctx, 3, 0))
    assert dpll(clauses, {}) is not None


def test_parse_and_validate_assignment():
    ctx = GroupContext(3)
    text = "# solver output\nx1 1\nx3 1.0\nx5 0\n7 1\n"
    values = parse_assignment(text, 8)
    assert values == {1: 1.0, 3: 1.0, 5: 0.0, 7: 1.0}
    report = validate_assignment(ctx, 2, text)
    assert report["selected"] == [1, 3, 7]
    assert report["objective"] == 3
    assert report["feasible"]  # odd residues are sum-free
    bad = validate_assignment(ctx, 2, {1: 1, 2: 1, 3: 1})
    assert not bad["feasible"]


def test_dimacs_v_lines_are_one_based():
    ctx = GroupContext(3)
    text = "c solver\ns SATISFIABLE\nv 1 -2 3 -4 5\nv -6 7 -8 9 -10 0\n"
    assert parse_assignment(text, 8) == {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 1.0,
                                         5: 0.0, 6: 1.0, 7: 0.0, 8: 1.0, 9: 0.0}
    # variables 9 and 10 are counter variables past residue 7
    report = validate_assignment(ctx, 3, "v 1 -2 3 -4 5 0\n")
    assert report["selected"] == [0, 2, 4] and report["objective"] == 3
    assert not report["feasible"]  # residue 0 is a 3-cube on its own
    # the export's own model: residue v is variable v + 1
    model = export_cnf(ctx, 3, 5)
    assert "c residue v <-> variable v+1" in model
    witness = [1, 3, 4, 5, 7]  # L_1 | L_3, the layered construction for d = 3
    line = "v " + " ".join(str(v + 1 if v in witness else -(v + 1)) for v in range(8)) + " 0"
    report = validate_assignment(ctx, 3, line)
    assert report["selected"] == witness and report["feasible"]


@pytest.mark.parametrize("line", ["v 1 two 0", "x3", "x3 1 extra", "cube0 1", "y4 1",
                                  "x 1", "3 yes"])
def test_parse_assignment_rejects_unknown_lines(line):
    with pytest.raises(ValueError, match="line 2"):
        parse_assignment("x1 1\n" + line + "\n", 8)


def test_constraint_masks_are_minimal_and_complete():
    ctx = GroupContext(3)
    masks = cube_constraint_masks(ctx, 2)
    for m in masks:
        for other in masks:
            if other != m:
                assert other & ~m != 0  # no kept mask contains another
    # completeness: a set is 2-cube-free iff it contains no constraint mask
    for mask in range(256):
        feasible = all(c & ~mask for c in masks)
        assert feasible == is_cube_free(ResidueSet(ctx, mask), 2)


def all_pairs_minimal(masks):
    """The dominance filter's slow reference: distinct masks containing no other."""
    distinct = set(masks)
    return sorted((m for m in distinct if not any(c != m and c & ~m == 0 for c in distinct)),
                  key=lambda c: (c.bit_count(), c))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 31), min_size=1, max_size=30)
                .map(lambda bits: sum(1 << b for b in bits)), min_size=1, max_size=30))
@example([0b111, 0b111, 0b1111, (1 << 32) - 1, (1 << 13) - 1, 1 << 31])
def test_minimal_unique_matches_all_pairs_scan(masks):
    # neighbour unions contain both neighbours, and every other mask repeats;
    # the filter is given these, the reference their whole orbits in Z_{2^5}
    family = masks + [a | b for a, b in zip(masks, masks[1:])] + masks[::2]
    closure = [odd_scaling(m, lam, 32) for m in family for lam in range(1, 32, 2)]
    assert _minimal_unique(family, 5) == all_pairs_minimal(closure)


def plain_constraint_masks(ctx, d):
    """The cube mask of every generator multiset, unfiltered: the reference for the orbit walk."""
    return [cube_mask(combo, ctx)
            for combo in combinations_with_replacement(range(ctx.modulus), d)]


@pytest.mark.parametrize("n, d", [(n, d) for n in range(1, 5) for d in range(1, 6)]
                         + [(5, d) for d in range(1, 5)])
def test_orbit_enumeration_matches_full_enumeration(n, d):
    ctx = GroupContext(n)
    size = ctx.modulus
    masks = cube_constraint_masks(ctx, d)
    everything = plain_constraint_masks(ctx, d)
    assert masks == _minimal_unique(everything, n)
    if n <= 3:
        assert masks == all_pairs_minimal(everything)
    kept = set(masks)
    assert all(odd_scaling(m, lam, size) in kept for m in masks for lam in range(3, size, 2))


def test_frontier_constraint_counts_are_pinned():
    for n, d, kept in ((6, 3, 26804), (5, 4, 3299), (5, 5, 2303)):
        masks = cube_constraint_masks(GroupContext(n), d)
        assert len(masks) == kept
        assert masks == sorted(set(masks), key=lambda c: (c.bit_count(), c))


def test_layer_union_budget_counts_unions_tested():
    ctx = GroupContext(6)
    cert = max_cube_free_layer_unions(ctx, 3)
    assert max_cube_free_layer_unions(ctx, 3, budget=cert.explored) == cert
    with pytest.raises(CapacityError, match=f"budget of {cert.explored - 1} unions") as err:
        max_cube_free_layer_unions(ctx, 3, budget=cert.explored - 1)
    assert err.value.space_size == 64
