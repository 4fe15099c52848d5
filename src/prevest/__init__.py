"""Prevalence estimation and simulation for longitudinal testing programs.

Simulates a tested-and-isolated population day by day, demonstrates the
schedule bias of the raw test-positive rate, and provides inverse-
probability-of-testing estimators of prevalence with exact, Wald, and BCa
bootstrap confidence intervals.
"""

from .core import (
    BASELINE,
    NEVER,
    ONGOING,
    CompartmentState,
    DailyTransition,
    EventHistory,
    HistoryError,
    TestCharacteristics,
    last_event_indices,
    reconstruct_state,
)
from .estimators import (
    DayEstimate,
    DegenerateStratumError,
    EstimateSeries,
    Panel,
    ScheduleMatrix,
    WeightTable,
    bias_ratio,
    estimate_schedule_matrix,
    exact_schedule_matrix,
    ht_estimate_w,
    ht_estimated,
    ht_known,
    prevalence_from_w,
    testing_probability_from_matrix,
    tpr,
    tpr_prevalence,
)
from .regimens import (
    ConfigError,
    Overlays,
    RegimenConfig,
    SchedulingContext,
    next_test_pmf,
    test_probability,
)
from .simulate import (
    ExternalHazard,
    HazardModel,
    ScenarioConfig,
    SensitivityCurve,
    SimulationResult,
    apply_contact_tracing,
    initialize_population,
    simulate,
)
from .uncertainty import (
    BcaInterval,
    IntervalSpec,
    bca_bootstrap,
    clopper_pearson,
    wald_ht_variance,
    wald_prevalence_interval,
)

__version__ = "0.1.0"
