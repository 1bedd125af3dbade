"""Group data valuation via faithful group Shapley values.

Exposes the game abstractions, the exact oracles, the two-regime Monte Carlo
estimator, the baseline individual-value estimators, metrics, and the
shell-company attack machinery.
"""

__version__ = "0.1.0"

from .attacks import (
    AttackReport,
    SplitSchedule,
    expected_gsv,
    prudence_check,
    run_attack,
    size_only_fgsv,
)
from .baselines import (
    BASELINE_ESTIMATORS,
    NumericError,
    SvEstimate,
    complement_contribution_estimator,
    group_sum,
    group_testing_estimator,
    kernelshap_estimator,
    leverageshap_estimator,
    one_for_all_estimator,
    permutation_estimator,
    solve_constrained_ls,
    unbiased_kernelshap_estimator,
)
from .combinatorics import (
    HypergeomParams,
    log_binom,
    sample_paired_tuples,
    sample_subsets_with_intersection,
    sample_uniform_subsets,
)
from .estimator import (
    EstimatorConfig,
    GroupValueEstimate,
    choose_parameters,
    estimate_group_value,
    estimate_group_value_augmented,
    estimate_mean_utility,
    estimate_mean_utility_gap,
    predicted_evaluations,
)
from .exact import (
    AxiomReport,
    AxiomResult,
    Partition,
    check_axioms,
    exact_faithful_group_shapley,
    exact_group_shapley,
    exact_mean_utility,
    exact_shapley_values,
    exact_size_term,
    faithful_group_shapley_by_sizes,
    fgsv_valuation,
    mod_partition,
    size_profile_term,
    utility_table,
)
from .games import (
    Game,
    IntersectionSizeGame,
    NullAugmentedGame,
    RegressionGame,
    SIZE_UTILITIES,
    SOUGame,
    SizeOnlyGame,
    UnsupportedGameError,
    game_from_config,
    load_regression_csv,
    sou_generate,
)
from .metrics import ConvergenceCurve, Recorder, aucc, royalty_shares
