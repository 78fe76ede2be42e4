"""Exact extremal searches and solver-model export.

The maximum cube-free search gathers its constraints lazily.  It starts
with no cube masks and the layered construction as the incumbent, and
branches on the free members of a smallest open constraint (every feasible
improvement must exclude one of them), with a greedy disjoint-constraint
packing as the lower bound on further exclusions.  Where the packing does
not prune, ``find_cube`` is asked for a cube among the residues neither
excluded nor used by the packing: each one found needs its own exclusion,
and a node with no open constraint and no such cube is a feasible leaf.  An
odd unit lam maps cubes onto cubes, lam B(a_1, ..., a_d) = B(lam a_1, ...,
lam a_d), so each cube found brings its whole odd-scaling orbit in.

The LP and DIMACS exports need the complete family instead: the cube masks
of one multiset per orbit, the all-zero one and those holding 2^v with
every generator a multiple of 2^v, deduplicated and without dominated
masks (supersets of another cube, whose constraint the smaller cube's
implies).  The degenerate patterns {x, x, x} and {x, 3x, y} are folded the
same way, for x in {0} and the powers 2^v only, since lam {x, 3x, y} =
{lam x, 3 lam x, lam y}.  These masks are taken by increasing size and
looked up in a set-trie of the kept ones; a survivor brings its whole orbit
in, and the kept family is returned in (bit count, value) order, as
filtering every pattern's mask would leave it.

The branch and bound keeps its constraints as bits of big ints.  Constraint
i is the i-th mask gathered; inc[x] has bit i set iff residue x lies in
constraint i.  The open constraints sit in free-count buckets: bucket k holds
those with k members not yet forced in.  Excluding x clears inc[x] from every
bucket; forcing x in moves the bucket-k bits of inc[x] down to bucket k - 1;
a node is dead once bucket 0 is nonempty.  A constraint gathered below a
node joins its buckets when the node next looks, unless it holds an
excluded residue.  The branch constraint is the lowest index in the lowest
nonempty bucket.  The packing walks the buckets up from bucket 1 and, in
each, takes the lowest unblocked index, so it prefers constraints with the
fewest free members: each one taken blocks every constraint that shares a
free member with it, by clearing inc[y] for each of its free members y, and
a small one blocks few.

The layer-union search reads a union of L_1..L_n off its word P: bit i - 1
is set iff L_i, the residues of valuation i - 1, is in it; {0} = L_{n+1}
lies in every cube and is never taken.  A run of r valuations s..s+r-1
present gives 2^r - 1 copies of 2^s whose subset sums stay in the run, and
a sum over several runs takes the valuation of its lowest run; so the union
holds a cube of dimension the sum of 2^r - 1 over its runs.  That run
dimension only grows as layers are added, so the unions it leaves below d
are down-closed, and as L_i outweighs all deeper layers together, their
largest is the one a greedy pass finds, keeping each L_i in turn whose
union with those kept stays below d: a larger union first differs from it
at some L_i the pass dropped, so it holds that step's cube.  The union found
is d-cube-free if min(|U|, detection._word_cap(P)), the size and layer-gap
caps, is below d; for every d <= n <= 21, the groups the package admits, it
is, and a word that decided neither way would raise AssertionError.

No external solver is embedded: LP and DIMACS models are emitted as text,
and a separate validator re-checks solver output against the actual
cube-freeness predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Sequence

from .construction import construction_layers, layered_construction
from .counting import count_schur_triples
from .detection import _word_cap, find_cube, find_degenerate_3cube, is_cube_free
from .errors import CapacityError, comb_within_budget
from .groups import GroupContext, ResidueSet, _layer_masks, mask_members, shift_mask
from .sumsets import cube_mask

DEFAULT_ENUM_BUDGET = 5_000_000
DEFAULT_NODE_BUDGET = 50_000_000
DEFAULT_COMBO_BUDGET = 1_000_000


@dataclass(frozen=True)
class SearchCertificate:
    """Search outcome: the optimum, one witness attaining it, and statistics."""

    mode: str  # "exhaustive" | "branch_and_bound" | "layer_unions"
    optimum: int
    witness: ResidueSet
    explored: int
    constraints: int = 0  # cube masks the exact search gathered


def _holds_subset(node: dict, m: int) -> bool:
    """True iff the set-trie below ``node`` stores a path made only of bits of m."""
    for bit, child in node.items():
        if bit & m and (child is True or _holds_subset(child, m)):
            return True
    return False


def _minimal_unique(masks: list[int], n: int) -> list[int]:
    """The minimal members of a family of nonzero masks closed under odd scaling in Z_{2^n}.

    ``masks`` must meet every orbit of the family; each one kept brings its
    whole orbit in.  Kept masks, in (bit count, value) order, are set-trie
    paths of their bits, lowest first, to a True leaf; as an antichain, no
    path prefixes another.
    """
    kept: set[int] = set()
    root: dict = {}
    for m in sorted(set(masks), key=lambda c: (c.bit_count(), c)):
        if m in kept or _holds_subset(root, m):
            continue
        for image in {m, *_odd_scalings(list(mask_members(m)), n)}:
            kept.add(image)
            node, rest = root, image
            while rest & (rest - 1):
                low = rest & -rest
                node = node.setdefault(low, {})
                rest ^= low
            node[rest] = True
    return sorted(kept, key=lambda c: (c.bit_count(), c))


def cube_constraint_masks(ctx: GroupContext, d: int, budget: int | None = None) -> list[int]:
    """All distinct minimal d-cube masks in Z_{2^n}, in (bit count, value) order.

    Raises CapacityError when all generator multisets, not only the orbit
    representatives folded, are more than the budget.
    """
    if d < 1:
        raise ValueError(f"cube dimension must be positive, got {d}")
    budget = DEFAULT_ENUM_BUDGET if budget is None else budget
    size = ctx.modulus
    comb_within_budget(size + d - 1, d, budget, "generator multisets")
    seen = {1}  # {0}, the cube of the all-zero multiset
    # depth first from each {2^v} over sorted multiples of 2^v, one fold per generator
    stack = [(0, 1 << (1 << v), 1 << v, d - 1) for v in range(ctx.n)]
    while stack:
        low, mask, step, left = stack.pop()
        if not left:
            seen.add(mask)
            continue
        for a in range(low, size, step):
            stack.append((a, mask | shift_mask(mask, a, ctx) | 1 << a, step, left - 1))
    return _minimal_unique(list(seen), ctx.n)


def _check_degenerate_space(size: int, budget: int | None) -> None:
    """Raise CapacityError when the size (size + 1) degenerate 3-cube patterns exceed the budget."""
    space = size * (size + 1)
    if budget is not None and space > budget:
        raise CapacityError(f"{space} degenerate 3-cube patterns exceed the budget of {budget}",
                            space_size=space)


def degenerate_3cube_masks(ctx: GroupContext, budget: int | None = None) -> list[int]:
    """Minimal masks of the restricted 3-cube families {x,x,x} and {x,3x,y}.

    Raises CapacityError, before any mask is built, when the 2^n (2^n + 1)
    patterns, not only the orbit representatives folded, exceed the budget.
    """
    size = ctx.modulus
    _check_degenerate_space(size, DEFAULT_ENUM_BUDGET if budget is None else budget)
    masks = []
    for x in (0, *(1 << v for v in range(ctx.n))):
        masks.append(cube_mask((x, x, x), ctx))
        for y in range(size):
            masks.append(cube_mask((x, 3 * x % size, y), ctx))
    return _minimal_unique(masks, ctx.n)


def _is_degenerate_family(d: int, patterns: str) -> bool:
    """True for the "degenerate" pattern family, False for "all"; ValueError for anything else."""
    if patterns == "all":
        return False
    if patterns != "degenerate":
        raise ValueError(f"unknown pattern family {patterns!r}")
    if d != 3:
        raise ValueError("the degenerate pattern family is defined for d = 3")
    return True


def _pattern_masks(ctx: GroupContext, d: int, patterns: str, budget: int | None) -> list[int]:
    if _is_degenerate_family(d, patterns):
        return degenerate_3cube_masks(ctx, budget)
    return cube_constraint_masks(ctx, d, budget)


def _bnb_max(
    size: int,
    masks: list[int],
    start_val: int,
    start_mask: int,
    forced_in: int,
    node_budget: int,
    separate: Callable[[int], list[int]],
) -> tuple[int, int, int]:
    """Branch-and-bound maximization of |A| subject to containing no mask.

    Constraint i is masks[i].  The branch constraint is the lowest index
    among the open constraints with the fewest free members (those not
    forced in); the greedy packing takes them in the same (free count,
    index) order, skipping any that shares a free member with one taken.
    The family is learnt as the search goes, on top of any masks passed
    in: ``separate(cand)`` returns [] when cand holds no member of the
    family, and otherwise members of it, the first one inside cand; those
    not yet in masks are appended to it.  It is asked wherever the greedy
    packing does not prune, on the residues neither excluded nor used by
    the packing, and each first mask it returns adds one to the packing.
    A whole family passed in, with a ``separate`` that finds nothing, is
    searched as it stands.  (start_val, start_mask) must be feasible;
    forced_in elements may never be excluded (callers establish that this
    loses no optimum).  Returns (best value, a best mask, nodes visited).
    Bits are cleared as ``b ^ (b & hit)``: ``b & ~hit`` first builds a
    negative int, five times slower on 27k-bit ints.
    """
    full = (1 << size) - 1
    inc = [0] * size
    held = set(masks)
    best_val, best_mask, nodes = start_val, start_mask, 0

    def index_from(base: int) -> None:
        """Set the bits of constraints base, base + 1, ... in inc."""
        new_inc: dict[int, int] = {}
        for i in range(base, len(masks)):
            for x in mask_members(masks[i]):
                new_inc[x] = new_inc.get(x, 0) | 1 << (i - base)
        for x, bits in new_inc.items():
            inc[x] |= bits << base

    def catch_up(excluded: int, forbidden: int, buckets: list[int], seen: int) -> int:
        """Bucket the constraints from index seen on that hold no excluded residue."""
        fresh: dict[int, int] = {}
        for i in range(seen, len(masks)):
            c = masks[i]
            if not c & excluded:
                k = (c & ~forbidden).bit_count()
                fresh[k] = fresh.get(k, 0) | 1 << (i - seen)
        for k, bits in fresh.items():
            buckets.extend([0] * (k + 1 - len(buckets)))
            buckets[k] |= bits << seen
        return len(masks)

    def rec(excluded: int, exc_count: int, forbidden: int, buckets: list[int],
            seen: int) -> None:
        nonlocal best_val, best_mask, nodes
        nodes += 1
        if nodes > node_budget:
            raise CapacityError(
                f"branch-and-bound exceeded the node budget of {node_budget}"
            )
        seen = catch_up(excluded, forbidden, buckets, seen)
        if buckets[0]:
            return  # some cube can no longer be broken
        limit = size - best_val - 1
        if exc_count > limit:
            return  # no leaf below beats the incumbent
        alive = 0
        for b in buckets:
            alive |= b
        # greedy packing of free-disjoint constraints, fewest free members
        # first, then lowest index: each needs its own exclusion
        packing = exc_count
        unblocked = alive
        used = 0
        for k in range(1, len(buckets)):
            walk = buckets[k] & unblocked
            while walk:
                packing += 1
                if packing > limit:
                    return
                rest = masks[(walk & -walk).bit_length() - 1] & ~forbidden
                used |= rest
                while rest:
                    low = rest & -rest
                    rest ^= low
                    hit = inc[low.bit_length() - 1]
                    unblocked ^= unblocked & hit
                    walk ^= walk & hit
        # a constraint found apart from the packing's free members needs one
        # more exclusion
        while found := separate(full & ~excluded & ~used):
            base = len(masks)
            for c in found:
                if c not in held:
                    held.add(c)
                    masks.append(c)
            index_from(base)
            rest = found[0] & ~forbidden
            packing += 1
            if not rest or packing > limit:
                return
            used |= rest
        seen = catch_up(excluded, forbidden, buckets, seen)
        if buckets[0]:
            return
        for b in buckets:
            alive |= b
        if not alive:
            val = size - exc_count
            if val > best_val:
                best_val, best_mask = val, full & ~excluded
            return
        # branch on the free members of the lowest index with fewest of them
        low_bucket = next(b for b in buckets if b)
        rest = masks[(low_bucket & -low_bucket).bit_length() - 1] & ~forbidden
        while rest:
            low = rest & -rest
            rest ^= low
            hit = inc[low.bit_length() - 1]
            rec(excluded | low, exc_count + 1, forbidden, [b ^ (b & hit) for b in buckets],
                seen)
            # low stays in from here on: its constraints lose a free member
            forbidden |= low
            for k in range(1, len(buckets)):
                moved = buckets[k] & hit
                if moved:
                    buckets[k] ^= moved
                    buckets[k - 1] |= moved
            seen = catch_up(excluded, forbidden, buckets, seen)

    index_from(0)
    rec(0, 0, forced_in, [0], 0)
    return best_val, best_mask, nodes


def max_cube_free_exact(
    ctx: GroupContext,
    d: int,
    symmetry: bool = False,
    budget: int | None = None,
) -> SearchCertificate:
    """Maximum cardinality of a d-cube-free subset of Z_{2^n}, with a maximizer.

    The branch and bound starts with no constraints and asks ``find_cube``
    for a cube where it needs one; each cube found brings in its
    odd-scaling orbit, and ``constraints`` counts the cube masks so
    gathered.  ``budget`` caps both the generator multisets, every one
    counted (there is at most one gathered mask per multiset), and the
    branch-and-bound nodes; None keeps DEFAULT_ENUM_BUDGET and
    DEFAULT_NODE_BUDGET.  ``symmetry=True`` fixes 1 as a member (the odd-unit
    action maps any set with an odd element onto one containing 1, and sets
    without odd elements never beat the layered incumbent); it only engages
    when the incumbent already covers the odd layer.
    """
    if d < 1:
        raise ValueError(f"cube dimension must be positive, got {d}")
    if d == 1:
        # any single element is a 1-cube, so only the empty set qualifies
        return SearchCertificate("exhaustive", 0, ResidueSet.empty(ctx), 0)
    comb_within_budget(ctx.modulus + d - 1, d,
                       DEFAULT_ENUM_BUDGET if budget is None else budget, "generator multisets")
    seed_val, seed_mask = 0, 0
    if construction_layers(d)[-1] <= ctx.n:
        seed = layered_construction(d, ctx)
        if is_cube_free(seed, d):
            seed_val, seed_mask = len(seed), seed.mask
    forced = 0
    if symmetry and seed_val >= (1 << (ctx.n - 1)):
        forced = 1 << 1  # residue 1 stays in

    def separate(cand: int) -> list[int]:
        found = find_cube(ResidueSet(ctx, cand), d)
        if found is None:
            return []
        cube = found.cube.mask
        return [cube, *_odd_scalings(list(mask_members(cube)), ctx.n)]

    masks: list[int] = []
    val, mask, explored = _bnb_max(ctx.modulus, masks, seed_val, seed_mask, forced,
                                   DEFAULT_NODE_BUDGET if budget is None else budget,
                                   separate)
    witness = ResidueSet(ctx, mask)
    if len(witness) != val or not is_cube_free(witness, d):
        raise AssertionError("search produced an invalid witness")
    return SearchCertificate("branch_and_bound", val, witness, explored, len(masks))


def _run_dimension(word: int) -> int:
    """Dimension of the greedy cube in a union whose valuations present are the bits of ``word``.

    Each run of r valuations s..s+r-1 present gives 2^r - 1 copies of 2^s.
    """
    dim, rest = 0, word
    while rest:
        rest >>= (rest & -rest).bit_length() - 1  # shift the run's start s down to bit 0
        r = (rest ^ (rest + 1)).bit_length() - 1
        dim += (1 << r) - 1
        rest >>= r
    return dim


def max_cube_free_layer_unions(ctx: GroupContext, d: int,
                               budget: int | None = None) -> SearchCertificate:
    """Largest d-cube-free union of layers, by one greedy pass over L_1..L_n.

    ``explored`` is 2^n - optimum, the unions of L_1..L_n at least as large.
    Raises CapacityError when that exceeds ``budget`` (None: no limit), and
    AssertionError when the optimum's word decides neither way.
    """
    if not 1 <= d <= ctx.n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={ctx.n}")
    n, layers = ctx.n, _layer_masks(ctx.n)
    word = umask = 0
    for i in range(n):  # L_{i+1} is bit i of the word
        if _run_dimension(word | 1 << i) < d:
            word, umask = word | 1 << i, umask | layers[i]
    v = umask.bit_count()
    if budget is not None and (1 << n) - v > budget:
        raise CapacityError(f"layer-union sweep exceeded the budget of {budget} unions", 1 << n)
    if min(v, _word_cap(word)) >= d:
        raise AssertionError(f"layer word {word:#b} of Z_{{2^{n}}} leaves d = {d} undecided")
    return SearchCertificate("layer_unions", v, ResidueSet(ctx, umask), (1 << n) - v)


def _odd_scalings(members: Sequence[int], n: int) -> Iterator[int]:
    """Yield the masks of lam * members mod 2^n for lam = 3, 5, ..., 2^n - 1."""
    size = 1 << n
    for lam in range(3, size, 2):
        scaled = 0
        for x in members:
            scaled |= 1 << (lam * x % size)
        yield scaled


def _is_scaling_canonical(mask: int, members: Sequence[int], n: int) -> bool:
    """True iff no odd scaling of ``members``, whose mask is ``mask``, is a smaller mask."""
    for scaled in _odd_scalings(members, n):
        if scaled < mask:
            return False
    return True


def min_schur_exhaustive(
    ctx: GroupContext,
    m: int,
    symmetry: bool = False,
    combo_budget: int | None = None,
) -> SearchCertificate:
    """Minimum Schur-triple count over all subsets of size m, with a minimizer.

    ``symmetry=True`` restricts the sweep to odd-scaling orbit
    representatives (the triple count is scaling-invariant).
    """
    size = ctx.modulus
    if not 0 <= m <= size:
        raise ValueError(f"cardinality {m} outside [0, {size}]")
    budget = DEFAULT_COMBO_BUDGET if combo_budget is None else combo_budget
    comb_within_budget(size, m, budget, f"subsets of size {m}")
    # the first combination, {0, ..., m - 1}, has the least mask of its size,
    # so it is canonical and sets best
    best = None
    best_mask = 0
    explored = 0
    for combo in combinations(range(size), m):
        mask = 0
        for x in combo:
            mask |= 1 << x
        if symmetry and not _is_scaling_canonical(mask, combo, ctx.n):
            continue
        explored += 1
        st = count_schur_triples(ResidueSet(ctx, mask))
        if best is None or st < best:
            best = st
            best_mask = mask
            if best == 0:
                break
    witness = ResidueSet(ctx, best_mask)
    if count_schur_triples(witness) != best:
        raise AssertionError("minimizer failed re-verification")
    return SearchCertificate("exhaustive", best, witness, explored)


def _wrap_terms(terms: list[str], per_line: int = 12) -> list[str]:
    return [" + ".join(terms[i:i + per_line]) for i in range(0, len(terms), per_line)]


def export_lp(ctx: GroupContext, d: int, patterns: str = "all",
              budget: int | None = None) -> str:
    """Textual LP model: maximize the selected residues subject to one
    covering constraint per cube (at least one member excluded)."""
    masks = _pattern_masks(ctx, d, patterns, budget)
    size = ctx.modulus
    lines = [
        f"\\ cube-free set model: n={ctx.n} d={d} patterns={patterns} "
        f"constraints={len(masks)}",
        "Maximize",
    ]
    obj_lines = _wrap_terms([f"x{v}" for v in range(size)])
    lines.append(" obj: " + obj_lines[0])
    for extra in obj_lines[1:]:
        lines.append("      + " + extra)
    lines.append("Subject To")
    for idx, c in enumerate(masks):
        members = list(mask_members(c))
        row = " + ".join(f"x{v}" for v in members)
        lines.append(f" cube{idx}: {row} <= {len(members) - 1}")
    lines += ["Binary", *(f" x{v}" for v in range(size)), "End"]
    return "\n".join(lines) + "\n"


def export_cnf(ctx: GroupContext, d: int, target: int, patterns: str = "all",
               budget: int | None = None) -> str:
    """DIMACS model: cube clauses plus |A| >= target via a sequential counter.

    Variable v+1 selects residue v; auxiliary counter variables follow the
    residue variables.
    """
    masks = _pattern_masks(ctx, d, patterns, budget)
    size = ctx.modulus
    clauses = [[-(v + 1) for v in mask_members(c)] for c in masks]
    kk = size - target  # allowed exclusions
    num_vars = size
    if target > size:
        clauses.append([])  # no assignment can reach the target
    elif kk == 0:
        for v in range(size):
            clauses.append([v + 1])
    elif target > 0:
        # sequential counter over y_i = (not x_i): sum y_i <= kk
        def s(i: int, j: int) -> int:
            return size + (i - 1) * kk + j

        num_vars = size + size * kk
        clauses.append([1, s(1, 1)])
        for j in range(2, kk + 1):
            clauses.append([-s(1, j)])
        for i in range(2, size + 1):
            clauses.append([i, s(i, 1)])
            clauses.append([-s(i - 1, 1), s(i, 1)])
            for j in range(2, kk + 1):
                clauses.append([i, -s(i - 1, j - 1), s(i, j)])
                clauses.append([-s(i - 1, j), s(i, j)])
            clauses.append([i, -s(i - 1, kk)])
    header = [
        f"c cube-free decision model n={ctx.n} d={d} target={target} patterns={patterns}",
        f"c residue v <-> variable v+1 (1..{size}); counter variables follow",
        f"p cnf {num_vars} {len(clauses)}",
    ]
    body = [" ".join(str(lit) for lit in clause) + " 0" for clause in clauses]
    return "\n".join(header + body) + "\n"


def parse_assignment(text: str, size: int) -> dict[int, float]:
    """Parse solver output into a residue -> value map.

    'x12 1' and '12 1' give residue 12 the value 1; a residue outside
    [0, size) raises ValueError.  DIMACS 'v' lines list
    literals of 1-based variables: variable v is residue v - 1, as in
    ``export_cnf``, so counter variables land past 2^n - 1 and are ignored by
    the validator.  'c' and 's' lines, '#' and '\\' comments and blank lines
    are skipped, except that an 's UNSATISFIABLE' or 's UNKNOWN' status
    (no assignment at all) raises ValueError, as does any other line.
    """
    out: dict[int, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if parts[:1] == ["s"] and ("UNSATISFIABLE" in parts or "UNKNOWN" in parts):
            raise ValueError(f"solver output line {lineno} reports {raw.strip()!r}: "
                             "there is no assignment to validate")
        if not parts or parts[0] in ("c", "s") or parts[0][0] in "#\\":
            continue
        try:
            if parts[0] == "v":
                for lit in map(int, parts[1:]):
                    if lit:
                        out[abs(lit) - 1] = 1.0 if lit > 0 else 0.0
                continue
            name, raw_value = parts
            residue, value = int(name.removeprefix("x")), float(raw_value)
        except ValueError:
            raise ValueError(
                f"assignment line {lineno} is not 'x<residue> <value>', "
                f"'<residue> <value>' or a DIMACS 'v' line: {raw.strip()!r}"
            ) from None
        if not 0 <= residue < size:
            raise ValueError(f"assignment line {lineno} names residue {residue} "
                             f"outside [0, {size - 1}]: {raw.strip()!r}")
        out[residue] = value
    return out


def validate_assignment(ctx: GroupContext, d: int, assignment: dict[int, float] | str,
                        patterns: str = "all", budget: int | None = None) -> dict:
    """Re-check a solver assignment against the real predicate.

    Returns feasibility (cube-freeness of the selected set under the chosen
    pattern family) and the objective value |A|.  For the degenerate family,
    ``budget`` caps the 2^n (2^n + 1) patterns checked (None: no cap) and
    raises CapacityError before any is.
    """
    if isinstance(assignment, str):
        assignment = parse_assignment(assignment, ctx.modulus)
    selected = [v for v, val in assignment.items()
                if 0 <= v < ctx.modulus and val > 0.5]
    A = ResidueSet.from_members(ctx, selected)
    if _is_degenerate_family(d, patterns):
        _check_degenerate_space(ctx.modulus, budget)
        feasible = find_degenerate_3cube(A) is None
    else:
        feasible = is_cube_free(A, d)
    return {"feasible": feasible, "objective": len(A), "selected": A.members()}
