"""Exact-arithmetic workbench for star-freeness in finite tensor products
of noncommutative probability spaces.

The package computes joint moments of free families over Q(i), tests
bounded star-freeness, checks the two tensor freeness conditions and
the dominating-factor searches built on them, runs the matching
group-level procedures for presented groups, and verifies the
polynomial identities behind the equality-case arguments.
"""

from .counterexample import (
    BiasedPowerReport,
    FilterCounts,
    PowerScanLine,
    analyze_biased_power,
    biased_power_scenario,
    filter_counts,
    minimal_block_pairs,
    scan_alternating_powers,
)
from .errors import (
    DepthLimitError,
    DimensionLimitError,
    EnumerationLimitError,
    FactorNotEvaluable,
    FactorNotFreeError,
    InsufficientMomentDataError,
    LimitError,
    NotDirectlyEvaluable,
    PreconditionError,
    ScenarioError,
    TensorFreeError,
)
from .freeness import (
    FreeFamilySpec,
    Verdict,
    centered_product_value,
    mixed_moment_by_cumulants,
    test_freeness,
)
from .groups import (
    FreeProductPresentation,
    GroupDominatingReport,
    GroupElement,
    GroupFreenessVerdict,
    GroupPresentation,
    element_order,
    group_dominating_report,
    is_free_collection,
    parse_group_word,
)
from .identities import (
    IDENTITY_CHECKS,
    interpolated_product_conclusions,
    interpolated_product_identity,
    or_product_equality_conclusions,
    or_product_inequality,
    product_sum_equality_conclusions,
    product_sum_inequality,
    shifted_product_identity,
)
from .ncpartitions import (
    MomentSequence,
    catalan,
    cumulant_from_moments,
    enumerate_nc,
    iter_pure_parity_blocks,
    moment_from_cumulants,
)
from .scalars import ExactComplex, ONE, ZERO, as_scalar
from .scenario import ScenarioFile, load_scenario, scenario_from_json
from .spaces import (
    AxiomReport,
    GroupAlgebraModel,
    MomentFunctional,
    SpectralModel,
    TableFunctional,
    check_axioms,
    variance,
)
from .starwords import Letter, StarWord, parse_word, power_word_to_star_word
from .tensor import (
    TensorScenario,
    factor_moment,
    factor_word,
    joint_oracle,
    normalized_scenario,
    tensor_moment,
)
from .tfc import (
    DominatingSearch,
    NecessaryConditionsReport,
    TfcReport,
    TfcViolation,
    check_necessary_conditions,
    check_tfc,
    factor_freeness_verdict,
    find_dominating,
)

__version__ = "0.1.0"
