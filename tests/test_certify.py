"""Deviation bounds, noise calibration, and empirical contraction estimates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statealign.certify import calibrate_sigma, deviation_bound, empirical_contraction
from statealign.errors import InvalidConfig, InvalidPrivacyParams
from statealign.metrics import make_probes
from statealign.olbfgs import StepConfig, initial_state, replay
from statealign.stream import StreamConfig, generate_stream

from helpers import mp_sigma


def test_sigma_matches_high_precision_reference():
    for alpha in (1e-6, 0.013, 1.0, 472.0):
        for eps in (0.1, 1.0, 7.5):
            for delta in (1e-8, 1e-4, 0.05):
                got = calibrate_sigma(alpha, eps, delta)
                want = mp_sigma(alpha, eps, delta)
                assert got == pytest.approx(want, rel=1e-13)


def test_sigma_zero_alpha_is_exactly_zero():
    assert calibrate_sigma(0.0, 1.0, 0.05) == 0.0


def test_sigma_rejects_bad_privacy_parameters():
    with pytest.raises(InvalidPrivacyParams):
        calibrate_sigma(1.0, 0.0, 0.05)
    with pytest.raises(InvalidPrivacyParams):
        calibrate_sigma(1.0, 1.0, 0.0)
    with pytest.raises(InvalidPrivacyParams):
        calibrate_sigma(1.0, 1.0, 1.3)
    with pytest.raises(InvalidPrivacyParams):
        calibrate_sigma(-0.1, 1.0, 0.05)
    nan, inf = math.nan, math.inf
    for alpha, eps, delta in (
        (nan, 1, 0.05), (inf, 1, 0.05), (1, nan, 0.05), (1, inf, 0.05), (1, 1, nan)
    ):
        with pytest.raises(InvalidPrivacyParams):
            calibrate_sigma(alpha, eps, delta)


@given(
    alpha=st.floats(1e-9, 1e6),
    eps=st.floats(1e-3, 50.0),
    delta=st.floats(1e-12, 0.9),
)
@settings(max_examples=60, deadline=None)
def test_sigma_monotonicity(alpha, eps, delta):
    base = calibrate_sigma(alpha, eps, delta)
    assert calibrate_sigma(alpha * 2, eps, delta) >= base
    assert calibrate_sigma(alpha, eps * 2, delta) <= base
    assert calibrate_sigma(alpha, eps, min(delta * 2, 0.999)) <= base + 1e-15


# -- deviation bound ----------------------------------------------------------

@given(
    rho=st.floats(0.0, 0.99),
    delta0=st.floats(0, 100),
    bump=st.floats(0, 10),
    k=st.integers(0, 5000),
)
@settings(max_examples=200, deadline=None)
def test_bound_is_the_closed_form_and_monotone(rho, delta0, bump, k):
    base = deviation_bound(rho, delta0, k)
    assert base == delta0 * rho**k
    assert deviation_bound(rho, delta0 + bump, k) >= base
    assert deviation_bound(min(rho + 0.01, 0.999), delta0, k) >= base


# -- empirical contraction ----------------------------------------------------

# The trials below weigh memory by 0, so only the probes' dimension matters.
PROBES_1D = make_probes(1, 32, seed=0)


def _static_history(h, length, d=1):
    cfg = StreamConfig(
        dimension=d, length=length, deletion_time=length // 2, horizon=length // 4,
        condition_number=1.0 + 1e-9, mu=h, drift_amplitude=0.0, drift_noise=0.0,
    )
    return list(generate_stream(cfg, 0).events)


def _fresh_trials(history, cfg, w=0.0):
    """Trials from states with empty memory: the jitter has no pair to move."""
    state = initial_state(1, cfg)
    state.w[:] = w
    return [(state, e) for e in history]


def test_contraction_ratio_is_exact_on_static_scalar_quadratic():
    # with empty memory the two-loop step is the gradient step, so a pure
    # parameter gap contracts by exactly |1 - eta h| in one step
    history = _static_history(h=3.0, length=24)
    for eta, want in ((0.1, 0.7), (0.5, 0.5), (2.5, 6.5)):
        cfg = StepConfig(eta=eta, tau=4)
        for trial in _fresh_trials(history[:6], cfg, w=0.3):
            rho = empirical_contraction(
                [trial], cfg, np.random.default_rng(0), PROBES_1D, memory_weight=0.0
            )
            assert rho == pytest.approx(want, rel=1e-9)


def test_empirical_contraction_is_max_of_ratios():
    history = _static_history(h=2.0, length=24)
    cfg = StepConfig(eta=0.3, tau=4)
    # Trained states hold pairs, so their jitter draws from the generator too.
    theta0 = initial_state(1, cfg)
    trials = [(replay(theta0, history[:p], cfg), history[p]) for p in (0, 3, 3, 9)]
    top = empirical_contraction(trials, cfg, np.random.default_rng(3), PROBES_1D, 0.0)
    rng = np.random.default_rng(3)
    each = [empirical_contraction([t], cfg, rng, PROBES_1D, 0.0) for t in trials]
    assert len(set(each)) > 1
    assert top == max(each)


@pytest.mark.parametrize(
    "ratios", [[0.5, math.nan, 2.0], [math.nan, 0.5, 2.0], [0.5, 2.0, math.nan]]
)
def test_empirical_contraction_is_nan_wherever_a_nan_trial_falls(ratios):
    # A base state with w = nan stands for a diverged trial.
    history = _static_history(h=2.0, length=24)
    cfg = StepConfig(eta=0.3, tau=4)
    trials = [
        _fresh_trials([e], cfg, w=math.nan if math.isnan(r) else r)[0]
        for r, e in zip(ratios, history)
    ]
    top = empirical_contraction(trials, cfg, np.random.default_rng(0), PROBES_1D)
    assert math.isnan(top)


def test_contraction_rejects_insert_free_history_and_bad_trials():
    with pytest.raises(InvalidConfig, match="at least one trial"):
        empirical_contraction([], StepConfig(eta=0.1, tau=4), np.random.default_rng(0), PROBES_1D)


def test_contraction_works_on_single_event_history():
    history = _static_history(h=2.0, length=24)[:1]
    cfg = StepConfig(eta=0.1, tau=4)
    rho = empirical_contraction(
        _fresh_trials(history * 3, cfg), cfg, np.random.default_rng(0), PROBES_1D, 0.0
    )
    assert rho == pytest.approx(0.8, rel=1e-9)
