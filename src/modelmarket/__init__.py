"""Deterministic simulator and analysis toolkit for model-platform-user market games.

Platforms pick models from a shared pool, heterogeneous user types pick
platforms by score (hardmax or softmax), and the induced normal-form game is
analyzed exactly: utilities and their average-score/deviation-advantage
decomposition (``game``), pure Nash equilibria and best-response dynamics
(``equilibrium``), coverage/welfare/concentration metrics (``metrics``),
reference and synthetic instances (``fixtures``, ``synthetic``,
``preferences``), and best-response entry training for a new model provider
(``entry``).  The ``modelmarket`` CLI front end lives in ``cli``.
"""

from .errors import (
    BudgetExceededError,
    ConfigError,
    InvalidInstanceError,
    InvalidParameterError,
    InvalidProfileError,
    MarketGameError,
    TrainingDivergedError,
)
from .game import (
    ChoiceRule,
    GameSpec,
    ScoreMatrix,
    UserPopulation,
    allocate,
    average_scores,
    deviation_advantage,
    deviation_values,
    platform_utilities,
)
from .equilibrium import (
    CentralizationParams,
    CentralizationResult,
    DynamicsOutcome,
    PneCheck,
    best_response,
    centralization_check,
    check_differentiated_condition,
    check_homogeneous_condition,
    enumerate_pne,
    run_dynamics,
    verify_pne,
)
from .metrics import (
    GameAnalysis,
    MetricsRecord,
    analyze,
    coverage_value,
    market_shares,
    outcome_metrics,
    platform_entry_check,
    social_optimum,
    welfare_figures,
)
from .preferences import PreferenceTable, scores_from_preferences
from .synthetic import (
    GmmComponent,
    GmmPopulationSpec,
    RbfKernel,
    RbfModelSpec,
    gmm_population,
    rbf_scores,
)
from .fixtures import builtin_instance, fixture_names, verify_fixture

__version__ = "0.1.0"
