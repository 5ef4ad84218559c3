"""Counterfactual state alignment: deletion benchmarks for online L-BFGS.

The package measures how close cheap deletion interventions land to the
counterfactual optimizer state obtained by replaying an edited event
history, over synthetic drifting streams.
"""
from .bench import (
    ExperimentConfig,
    MethodResult,
    RunResult,
    aggregate,
    experiment1_defaults,
    experiment2_defaults,
    run_experiment,
    run_grid,
)
from .certify import calibrate_sigma, deviation_bound, empirical_contraction
from .interventions import (
    DEFAULT_METHOD_IDS,
    METHODS,
    InterventionContext,
    apply,
    parse_intervention,
)
from .metrics import (
    DecayFit,
    MetricTrace,
    auc,
    direct_clearance_time,
    fit_decay_rate,
    make_probes,
    param_error,
    state_error,
    state_gaps,
)
from .olbfgs import (
    OptimizerState,
    StepConfig,
    direct_mass,
    initial_state,
    replay,
    step,
    two_loop,
)
from .stream import (
    DeletionMode,
    DeletionSet,
    Event,
    EventStream,
    LogisticSample,
    QuadraticSample,
    Regime,
    StreamConfig,
    edit_history,
    generate_stream,
    loss_and_grad,
    loss_hessian,
    select_deletion_set,
)

__version__ = "0.1.0"
