"""State-distance metrics, AUC, clearance, and the decay-rate fit."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from statealign.errors import DegenerateDirection, EmptyTrace, IntervalTooShort
from statealign.metrics import (
    DecayFit,
    auc,
    direct_clearance_time,
    direction_gap,
    fit_decay_rate,
    make_probes,
    memory_operator_error,
    operator_action_error,
    param_error,
    state_error,
)
from statealign.olbfgs import CurvaturePair, MemoryState, two_loop


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


def test_memory_operator_error_agrees_with_manual_two_loop():
    rng = np.random.default_rng(0)
    mem_a = MemoryState(tau=4)
    mem_b = MemoryState(tau=4)
    s = rng.normal(size=3)
    mem_a.push(CurvaturePair(s=s, y=2.0 * s, source=1))
    probes = make_probes(3, 8, seed=5)
    got = memory_operator_error(mem_a, mem_b, probes)
    diffs = two_loop(mem_a, probes) - two_loop(mem_b, probes)
    want = float(np.sqrt(np.mean(np.sum(diffs * diffs, axis=0))))
    assert got == pytest.approx(want, rel=1e-15)
    assert memory_operator_error(mem_a, mem_a, probes) == 0.0


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
    mem_a = MemoryState(tau=6)
    mem_b = MemoryState(tau=6)
    for t in range(1, 5):
        s = rng.normal(size=12)
        y = rng.normal(size=12)
        if s @ y > 1e-3:
            mem_a.push(CurvaturePair(s=s, y=y, source=t))
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
    with pytest.raises(DegenerateDirection):
        direction_gap(a, np.zeros(2))


# -- decay fit ----------------------------------------------------------------

def test_fit_recovers_planted_exponential():
    k = np.arange(60)
    c, rho = 0.7, 0.93
    fit = fit_decay_rate(c * rho**k, k_lo=0, k_hi=59)
    assert fit.rho_hat == pytest.approx(rho, abs=1e-9)
    assert fit.c_hat == pytest.approx(c, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


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
    assert fit.k_lo == 50 and fit.k_hi == 99


def test_fit_floors_dead_points_and_excludes_them_from_r2():
    trace = np.concatenate([0.5 * 0.5 ** np.arange(20), np.zeros(10)])
    fit = fit_decay_rate(trace, k_lo=0, k_hi=29)
    assert np.isfinite(fit.rho_hat)
    # the zero tail is floored, so the live prefix alone must explain the fit
    assert fit.r_squared < 1.0


def test_fit_rejects_bad_windows():
    with pytest.raises(IntervalTooShort):
        fit_decay_rate([1.0, 0.5, 0.25], k_lo=0, k_hi=1)
    with pytest.raises(IntervalTooShort):
        fit_decay_rate([1.0, 0.5, 0.25], k_lo=1, k_hi=9)


def test_fit_on_dead_trace_flattens_with_undefined_r2():
    # every point sits at the floor: the fit sees a constant, r2 is undefined
    fit = fit_decay_rate(np.zeros(10), k_lo=0, k_hi=9)
    assert isinstance(fit, DecayFit)
    assert fit.rho_hat == pytest.approx(1.0, abs=1e-9)
    assert math.isnan(fit.r_squared)


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
