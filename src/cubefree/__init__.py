"""Exact search and verification toolkit for projective-cube-free subsets of Z_{2^n}."""

from .construction import (
    block_vector,
    construction_layers,
    construction_size,
    floor_log2,
    layered_construction,
)
from .counting import (
    LayerProfile,
    LayerTripleCounts,
    count_schur_triples,
    count_triples_by_layer,
    layer_profile,
    schur_lower_bound,
)
from .detection import (
    CubeWitness,
    find_cube,
    find_degenerate_3cube,
    find_homogeneous_cube,
    find_multiple_run,
    is_cube_free,
    max_cube_dimension,
)
from .errors import CapacityError, InapplicableCompressionError, RangeError
from .groups import (
    GeneratorMultiset,
    GroupContext,
    ResidueSet,
    centred_set,
    layer_range_set,
    layer_set,
    residue_abs,
)
from .oracle import (
    DisjointZeroCertificate,
    ExhaustionReport,
    ResidueCollection,
    compress,
    compress_type1,
    compress_type2,
    compress_type3,
    disjoint_zero_sets,
    max_disjoint_zero_sets,
    verify_zero_sum_dichotomy,
)
from .search import (
    SearchCertificate,
    cube_constraint_masks,
    export_cnf,
    export_lp,
    max_cube_free_exact,
    max_cube_free_layer_unions,
    min_schur_exhaustive,
    parse_assignment,
    validate_assignment,
)
from .sumsets import projective_cube
from .verify import CheckResult, run_checks

__version__ = "0.1.0"
