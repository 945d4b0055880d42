"""Defaults that the command line shows before any numeric layer loads.

The verdict tolerance of ``evaluate_criteria``, and the default seed and the
check names of the verification suite.  ``states`` and ``selftest`` import
them from here, so that ``permsep.cli`` can define its options without
importing numpy.  This module imports nothing.
"""

VERDICT_TOLERANCE = 1e-9

DEFAULT_SEED = 20240801

# in the order ``selftest.run_checks`` runs them
CHECK_NAMES = [
    "coset-counts-exhaustive",
    "norm-group-order",
    "coset-soundness-pairwise",
    "worked-example",
    "class-census",
    "norm-preservation",
    "separability-bound",
    "detector-states",
    "structured-routes",
    "bipartite-anchors",
    "structural-properties",
]
