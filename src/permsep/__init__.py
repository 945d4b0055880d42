"""permsep: permutation separability criteria for multipartite states.

Canonicalize index permutations to disjoint arrow configurations, test
criteria for equivalence, enumerate the combinatorially independent
classes, and evaluate trace-norm criteria on density matrices.
"""

from .perms import (
    Permutation,
    PermutationParseError,
    compose,
    cycle_decomposition,
    global_transpose,
    identity,
    inverse,
    parse_permutation,
    permutation_from_cycles,
)
from .arrows import (
    Arrow,
    ArrowConfiguration,
    CanonicalKey,
    as_permutation,
    canonical_key,
    canonicalize,
    chop,
    equivalent,
    exchange_heads,
    flip,
    normal_form,
    prune,
)
from .normgroup import (
    census_by_type,
    census_records,
    class_count,
    classify,
    enumerate_classes,
    generators,
    group_elements,
    is_norm_preserving,
    representative_permutation,
    type_label,
)
from .states import (
    CriterionReport,
    ClassNorm,
    DensityMatrix,
    StateFileError,
    StateValidationError,
    apply_permutation,
    basis_product_state,
    bell_pair_state,
    detector_state,
    evaluate_criteria,
    ghz_state,
    maximally_mixed_state,
    random_separable_state,
    random_state,
    read_state_file,
    swap_operator,
    trace_norm,
    write_state_file,
)

__version__ = "0.1.0"
