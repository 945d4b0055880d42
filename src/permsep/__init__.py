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

# The numeric layer, and numpy with it, loads on first use: the names below
# resolve through __getattr__, so ``import permsep`` and the combinatorial
# commands start without numpy.  Nothing is cached here; each lookup reads
# the name from ``states``, so a wrapper or patch placed there is seen.
_STATES_NAMES = (
    "CriterionReport",
    "ClassNorm",
    "DensityMatrix",
    "StateFileError",
    "StateValidationError",
    "apply_permutation",
    "basis_product_state",
    "bell_pair_state",
    "detector_state",
    "evaluate_criteria",
    "ghz_state",
    "maximally_mixed_state",
    "random_separable_state",
    "random_state",
    "read_state_file",
    "swap_operator",
    "trace_norm",
    "write_state_file",
)


def __getattr__(name: str):
    if name not in _STATES_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import states

    return getattr(states, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_STATES_NAMES})


# every public name imported above, the lazy ones, and the submodules that
# star-import exported before the package had an __all__
__all__ = [
    *(name for name in list(globals()) if not name.startswith("_")),
    *_STATES_NAMES,
    "states",
]

__version__ = "0.1.0"
