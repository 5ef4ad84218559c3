"""State-distance metrics, AUC, clearance, and the decay-rate fit."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from statealign.errors import EmptyTrace, IntervalTooShort
from statealign.metrics import (
    DIRECTION_EPS,
    DecayFit,
    auc,
    direct_clearance_time,
    direction_gap,
    fit_decay_rate,
    make_probes,
    operator_action_error,
    param_error,
    state_error,
    state_gaps,
)
from statealign.olbfgs import LaneBank, StepConfig, initial_state, two_loop


def test_param_error_is_euclidean_distance():
    a = np.array([1.0, 2.0, 2.0])
    b = np.zeros(3)
    assert param_error(a, b) == 3.0
    assert param_error(a, a) == 0.0


def test_operator_action_error_is_rms_over_columns():
    act_a = np.array([[1.0, 0.0], [0.0, 0.0]])
    act_b = np.array([[0.0, 0.0], [0.0, 2.0]])
    # column gaps have norms 1 and 2, so the RMS is sqrt(5/2)
    assert operator_action_error(act_a, act_b) == pytest.approx(math.sqrt(2.5), rel=1e-15)


def test_state_error_combines_with_weight():
    assert state_error(1.5, 2.0, memory_weight=0.5) == 2.5
    assert state_error(1.5, 2.0, memory_weight=0.0) == 1.5


def test_state_gaps_agree_with_manual_two_loop():
    rng = np.random.default_rng(0)
    mem_a = initial_state(3, StepConfig(tau=4))
    mem_b = initial_state(3, StepConfig(tau=4))
    s = rng.normal(size=3)
    mem_a.push(s, 2.0 * s, 1)
    w_a, w_b = rng.normal(size=3), rng.normal(size=3)
    mem_a.w, mem_b.w = w_a, w_b
    lanes = [mem_b, mem_a, mem_b]
    probes = make_probes(3, 8, seed=5)
    e_w, e_z, e_theta = state_gaps(LaneBank(lanes), probes, memory_weight=0.5)
    diffs = two_loop(mem_a, probes) - two_loop(mem_b, probes)
    want = float(np.sqrt(np.mean(np.sum(diffs * diffs, axis=0))))
    assert e_z[1] == pytest.approx(want, rel=1e-15)
    assert e_w[1] == pytest.approx(float(np.linalg.norm(w_a - w_b)), rel=1e-15)
    assert e_theta[1] == e_w[1] + 0.5 * e_z[1]
    assert e_w.shape == e_z.shape == e_theta.shape == (3,)
    assert e_theta[0] == e_theta[2] == 0.0


def test_make_probes_unit_columns_and_determinism():
    p1 = make_probes(7, 32, seed=3)
    p2 = make_probes(7, 32, seed=3)
    p3 = make_probes(7, 32, seed=4)
    assert p1.shape == (7, 32)
    assert not p1.flags.writeable
    np.testing.assert_allclose(np.linalg.norm(p1, axis=0), 1.0, rtol=1e-12)
    np.testing.assert_array_equal(p1, p2)
    assert not np.array_equal(p1, p3)


def test_probe_half_split_estimates_agree():
    # RMS over 16 random probes should be close to RMS over the other 16
    rng = np.random.default_rng(9)
    mem_a = initial_state(12, StepConfig(tau=6))
    mem_b = initial_state(12, StepConfig(tau=6))
    for t in range(1, 5):
        s = rng.normal(size=12)
        y = rng.normal(size=12)
        if s @ y > 1e-3:
            mem_a.push(s, y, t)
    probes = make_probes(12, 32, seed=0)
    diffs = two_loop(mem_a, probes) - two_loop(mem_b, probes)
    norms = np.sum(diffs * diffs, axis=0)
    rms_lo = math.sqrt(float(np.mean(norms[:16])))
    rms_hi = math.sqrt(float(np.mean(norms[16:])))
    assert abs(rms_lo - rms_hi) < 0.35 * max(rms_lo, rms_hi)


# -- traces -------------------------------------------------------------------

def test_auc_is_plain_sum_and_skips_nan():
    assert auc([1.0, 2.0, 3.5]) == 6.5
    assert auc([1.0, float("nan"), 2.0]) == 3.0
    with pytest.raises(EmptyTrace):
        auc([])


@given(st.lists(st.floats(0, 1e6), min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_auc_monotone_under_pointwise_domination(values):
    arr = np.asarray(values)
    assert auc(arr + 1.0) >= auc(arr) + len(values) - 1e-9


def test_clearance_time_finds_first_zero():
    assert direct_clearance_time([5, 3, 0, 0, 1]) == 2
    assert direct_clearance_time([0, 1]) == 0
    assert direct_clearance_time([2, 2, 2]) is None


def test_direction_gap_values():
    a = np.array([1.0, 0.0])
    assert direction_gap(a, a) == 0.0
    assert direction_gap(a, np.array([0.0, 1.0])) == pytest.approx(1.0)
    assert direction_gap(a, -a) == pytest.approx(2.0)
    assert np.isnan(direction_gap(a, np.zeros(2)))


def same_bits(x, y) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


# Entries mix plain values with exact zeros, repeated values and inf/nan.
_ENTRY = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf, math.nan, 1e-300, 1e300]),
)


@given(
    st.integers(1, 6),
    st.integers(1, 7),
    st.integers(1, 5),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_stacked_metrics_equal_the_per_lane_forms_bit_for_bit(lanes, d, m, data):
    """Each lane's stacked result is its 1-D np.linalg.norm / `@` result, bit for bit."""
    rows = np.array(data.draw(st.lists(_ENTRY, min_size=lanes * d, max_size=lanes * d)))
    w = rows.reshape(lanes, d)
    # Some rows repeat lane 0 exactly; some are all zero.
    for i in data.draw(st.lists(st.integers(0, lanes - 1), max_size=lanes)):
        w[i] = w[0]
    for i in data.draw(st.lists(st.integers(0, lanes - 1), max_size=2)):
        w[i] = 0.0
    actions = np.array(data.draw(st.lists(_ENTRY, min_size=lanes * d * m, max_size=lanes * d * m)))
    actions = actions.reshape(lanes, d, m)
    actions[lanes - 1] = actions[0]
    with np.errstate(all="ignore"):
        e_w = param_error(w, w[0])
        e_z = operator_action_error(actions, actions[0])
        gap = direction_gap(w, w[0])
        for i in range(lanes):
            assert same_bits(e_w[i], float(np.linalg.norm(w[i] - w[0])))
            diff = actions[i] - actions[0]
            assert same_bits(e_z[i], math.sqrt(float(np.mean(np.sum(diff * diff, axis=0)))))
            n_a, n_b = float(np.linalg.norm(w[i])), float(np.linalg.norm(w[0]))
            if n_a < DIRECTION_EPS or n_b < DIRECTION_EPS:
                assert np.isnan(gap[i])
            elif np.array_equal(w[i], w[0]):
                assert same_bits(gap[i], 0.0)
            else:
                want = 1.0 - float(w[i] @ w[0]) / (n_a * n_b)
                assert same_bits(gap[i], want) or (np.isnan(gap[i]) and math.isnan(want))
    assert e_z[lanes - 1] == 0.0 or np.isnan(e_z[lanes - 1])


# -- decay fit ----------------------------------------------------------------

def test_fit_recovers_planted_exponential():
    k = np.arange(60)
    c, rho = 0.7, 0.93
    fit = fit_decay_rate(c * rho**k, k_lo=0, k_hi=59)
    assert fit.rho_hat == pytest.approx(rho, abs=1e-9)
    assert fit.c_hat == pytest.approx(c, abs=1e-9)


def test_fit_reports_amplification_without_clamping():
    k = np.arange(30)
    fit = fit_decay_rate(0.1 * 1.08**k, k_lo=0, k_hi=29)
    assert fit.rho_hat > 1.0
    assert fit.rho_hat == pytest.approx(1.08, abs=1e-9)


def test_fit_window_bounds_are_respected():
    k = np.arange(100)
    trace = np.where(k < 50, 1.0 * 0.9**k, 1e-3 * 0.99 ** (k - 50))
    fit = fit_decay_rate(trace, k_lo=50, k_hi=99)
    assert fit.rho_hat == pytest.approx(0.99, abs=1e-9)


def test_fit_floors_dead_points_and_stays_finite():
    trace = np.concatenate([0.5 * 0.5 ** np.arange(20), np.zeros(10)])
    fit = fit_decay_rate(trace, k_lo=0, k_hi=29)
    assert np.isfinite(fit.rho_hat)


def test_fit_rejects_bad_windows():
    with pytest.raises(IntervalTooShort):
        fit_decay_rate([1.0, 0.5, 0.25], k_lo=0, k_hi=1)
    with pytest.raises(IntervalTooShort):
        fit_decay_rate([1.0, 0.5, 0.25], k_lo=1, k_hi=9)


def test_fit_on_dead_trace_flattens_to_rho_one():
    # every point sits at the floor: the fit sees a constant
    fit = fit_decay_rate(np.zeros(10), k_lo=0, k_hi=9)
    assert isinstance(fit, DecayFit)
    assert fit.rho_hat == pytest.approx(1.0, abs=1e-9)


@given(
    c=st.floats(1e-3, 1e3),
    rho=st.floats(0.2, 1.4),
    n=st.integers(5, 40),
)
@settings(max_examples=40, deadline=None)
def test_fit_recovery_property(c, rho, n):
    assume(c * rho ** (n - 1) > 1e-12)  # stay clear of the log floor
    k = np.arange(n)
    fit = fit_decay_rate(c * rho**k, k_lo=0, k_hi=n - 1)
    assert fit.rho_hat == pytest.approx(rho, rel=1e-7)
