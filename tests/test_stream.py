"""Stream generation: drift laws, spectra, deletion selection, losses."""

import math
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statealign.errors import InvalidConfig
from statealign.stream import (
    DeletionMode,
    DeletionSet,
    Event,
    QuadraticSample,
    Regime,
    StreamConfig,
    _expit,
    edit_history,
    generate_stream,
    loss_and_grad,
    loss_hessian,
    select_deletion_set,
)

SMALL = StreamConfig(dimension=6, length=60, deletion_time=30, horizon=20)


def _fd_grad(payload, w, h=1e-6):
    """Central-difference gradient, the independent check for loss_and_grad."""
    g = np.zeros_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        lp, _ = loss_and_grad(payload, w + e)
        lm, _ = loss_and_grad(payload, w - e)
        g[i] = (lp - lm) / (2 * h)
    return g


def test_quadratic_loss_and_grad_hand_value():
    h = np.array([[2.0, 0.0], [0.0, 1.0]])
    payload = QuadraticSample(hessian=h, minimizer=np.array([1.0, -1.0]))
    loss, grad = loss_and_grad(payload, np.zeros(2))
    assert loss == 1.5
    np.testing.assert_array_equal(grad, np.array([-2.0, 1.0]))


@pytest.mark.parametrize("regime", [Regime.QUADRATIC, Regime.LOGISTIC])
def test_gradients_match_finite_differences(regime):
    cfg = StreamConfig(regime=regime, dimension=5, length=40, deletion_time=20, horizon=10)
    strm = generate_stream(cfg, seed=3)
    rng = np.random.default_rng(0)
    for ev in strm.events[:8]:
        w = rng.normal(size=5)
        _, g = loss_and_grad(ev.payload, w)
        np.testing.assert_allclose(g, _fd_grad(ev.payload, w), rtol=0, atol=5e-5)


def test_hessian_matches_grad_finite_differences():
    cfg = StreamConfig(regime=Regime.LOGISTIC, dimension=4, length=20, deletion_time=10, horizon=5)
    strm = generate_stream(cfg, seed=7)
    w = np.random.default_rng(1).normal(size=4)
    ev = strm.events[0]
    hess = loss_hessian(ev.payload, w)
    step = 1e-6
    for i in range(4):
        e = np.zeros(4)
        e[i] = step
        _, gp = loss_and_grad(ev.payload, w + e)
        _, gm = loss_and_grad(ev.payload, w - e)
        np.testing.assert_allclose(hess[:, i], (gp - gm) / (2 * step), atol=1e-5)


def test_quadratic_spectrum_stays_inside_band():
    # A drifting Hessian is a convex combination of two matrices with their
    # spectra in [mu, kappa*mu], so it stays there up to rounding.
    for kappa, drift, mu in ((10.0, 0.8, 1.0), (1e6, 1.0, 1.0), (1e6, 1.0, 1e-3)):
        cfg = StreamConfig(
            dimension=8, length=120, deletion_time=60, horizon=40, mu=mu,
            condition_number=kappa, curvature_drift=drift, curvature_period=50.0,
        )
        strm = generate_stream(cfg, seed=11)
        tol = 1e-12 * kappa * mu
        for ev in strm.events[::7]:
            eigs = np.linalg.eigvalsh(ev.payload.hessian)
            assert eigs.min() >= mu - tol
            assert eigs.max() <= kappa * mu + tol


def test_static_curvature_has_forced_extremes():
    cfg = StreamConfig(dimension=8, length=20, deletion_time=10, horizon=5, condition_number=25.0)
    strm = generate_stream(cfg, seed=2)
    eigs = np.linalg.eigvalsh(strm.events[0].payload.hessian)
    assert eigs.min() == pytest.approx(cfg.mu, rel=1e-9)
    assert eigs.max() == pytest.approx(cfg.condition_number * cfg.mu, rel=1e-9)


def test_center_drift_is_periodic_without_noise():
    cfg = StreamConfig(
        dimension=5, length=130, deletion_time=60, horizon=40,
        drift_amplitude=0.7, drift_period=50.0, drift_noise=0.0,
    )
    strm = generate_stream(cfg, seed=5)
    c0 = strm.events[10].payload.minimizer
    c1 = strm.events[60].payload.minimizer
    np.testing.assert_allclose(c0, c1, atol=1e-12)


def test_stream_is_insert_only_with_index_equal_time():
    strm = generate_stream(SMALL, seed=0)
    assert len(strm.events) == SMALL.length
    for t, ev in enumerate(strm.events, start=1):
        assert ev.index == t
        assert ev.time == t


def test_payload_arrays_are_frozen():
    strm = generate_stream(SMALL, seed=0)
    with pytest.raises(ValueError):
        strm.events[0].payload.hessian[0, 0] = 99.0


def test_same_seed_same_stream_different_seed_differs():
    a = generate_stream(SMALL, seed=4)
    b = generate_stream(SMALL, seed=4)
    c = generate_stream(SMALL, seed=5)
    np.testing.assert_array_equal(a.events[3].payload.minimizer, b.events[3].payload.minimizer)
    assert not np.array_equal(a.events[3].payload.minimizer, c.events[3].payload.minimizer)


def test_logistic_stream_labels_and_features():
    cfg = StreamConfig(regime=Regime.LOGISTIC, dimension=6, length=50, deletion_time=25, horizon=10)
    strm = generate_stream(cfg, seed=9)
    labels = {ev.payload.label for ev in strm.events}
    assert labels <= {-1, 1}
    assert len(labels) == 2
    for ev in strm.events[:5]:
        assert np.all(np.isfinite(ev.payload.features))


def test_prefix_and_future_split():
    strm = generate_stream(SMALL, seed=1)
    pre = strm.prefix(30)
    fut = strm.future(30, 20)
    assert [e.time for e in pre] == list(range(1, 31))
    assert [e.time for e in fut] == list(range(31, 51))


@pytest.mark.parametrize("key", ["condition_number", "mu", "drift_period", "ridge"])
def test_config_validation_rejects_non_finite_values(key):
    for value in (float("nan"), float("inf")):
        with pytest.raises(InvalidConfig, match=key):
            StreamConfig(**{key: value}).validate()


def test_config_validation_rejects_bad_shapes():
    with pytest.raises(InvalidConfig):
        StreamConfig(dimension=0).validate()
    with pytest.raises(InvalidConfig):
        StreamConfig(condition_number=0.5).validate()
    with pytest.raises(InvalidConfig):
        StreamConfig(length=100, deletion_time=90, horizon=20).validate()
    with pytest.raises(InvalidConfig):
        StreamConfig(length=100, deletion_time=4, deletion_size=5).validate()
    with pytest.raises(InvalidConfig, match=r"condition_number \* mu must be finite"):
        StreamConfig(condition_number=1e308, mu=10.0).validate()
    StreamConfig(condition_number=1e307, mu=10.0).validate()
    # Checked when built: a negative horizon cannot be constructed; zero can.
    with pytest.raises(InvalidConfig, match="horizon must be >= 0, got -20"):
        StreamConfig(length=200, deletion_time=100, horizon=-20)
    StreamConfig(length=200, deletion_time=100, horizon=0)


# -- deletion selection ------------------------------------------------------

def test_recent_mode_takes_latest_indices():
    strm = generate_stream(SMALL, seed=0)
    ds = select_deletion_set(strm, t_del=30, mode=DeletionMode.RECENT, size=5)
    assert ds.indices == frozenset(range(26, 31))


def test_old_mode_takes_earliest_indices():
    strm = generate_stream(SMALL, seed=0)
    ds = select_deletion_set(strm, t_del=30, mode=DeletionMode.OLD, size=4)
    assert ds.indices == frozenset(range(1, 5))


def test_random_mode_is_seeded_and_in_range():
    strm = generate_stream(SMALL, seed=0)
    a = select_deletion_set(strm, t_del=30, mode=DeletionMode.RANDOM, size=5)
    b = select_deletion_set(strm, t_del=30, mode=DeletionMode.RANDOM, size=5)
    assert a.indices == b.indices
    assert len(a.indices) == 5
    assert all(1 <= i <= 30 for i in a.indices)


def test_high_gradient_mode_matches_recomputed_ranking():
    strm = generate_stream(SMALL, seed=6)
    w = np.random.default_rng(8).normal(size=SMALL.dimension)
    ds = select_deletion_set(strm, t_del=30, mode=DeletionMode.HIGH_GRADIENT, size=5, grad_state=w)
    norms = []
    for ev in strm.prefix(30):
        _, g = loss_and_grad(ev.payload, w)
        norms.append((-float(np.linalg.norm(g)), ev.index))
    expected = frozenset(idx for _, idx in sorted(norms)[:5])
    assert ds.indices == expected


def test_edit_history_removes_exactly_the_deleted_events():
    strm = generate_stream(SMALL, seed=0)
    pre = strm.prefix(30)
    ds = DeletionSet(indices=frozenset({3, 17, 29}))
    edited = edit_history(pre, ds)
    assert len(edited) == 27
    assert [e.index for e in edited] == [t for t in range(1, 31) if t not in {3, 17, 29}]


@given(banned=st.sets(st.integers(min_value=1, max_value=30), max_size=10))
@settings(max_examples=40, deadline=None)
def test_edit_history_is_idempotent(banned):
    strm = generate_stream(SMALL, seed=0)
    pre = strm.prefix(30)
    ds = DeletionSet(indices=frozenset(banned))
    once = edit_history(pre, ds)
    twice = edit_history(once, ds)
    assert [e.index for e in once] == [e.index for e in twice]


@given(
    banned=st.sets(st.integers(min_value=1, max_value=30), max_size=8),
    cut=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=40, deadline=None)
def test_edit_history_commutes_with_truncation(banned, cut):
    strm = generate_stream(SMALL, seed=0)
    pre = strm.prefix(30)
    ds = DeletionSet(indices=frozenset(banned))
    a = [e.index for e in edit_history(pre[:cut], ds)]
    b = [e.index for e in edit_history(pre, ds) if e.time <= cut]
    assert a == b


def test_logistic_payload_carries_its_ridge_into_the_loss():
    cfg = StreamConfig(
        regime=Regime.LOGISTIC, dimension=4, length=20, deletion_time=10, horizon=5, ridge=0.3
    )
    payload = generate_stream(cfg, seed=3).events[0].payload
    assert payload.ridge == 0.3
    bare = replace(payload, ridge=0.0)
    w = np.random.default_rng(2).normal(size=4)
    loss, grad = loss_and_grad(payload, w)
    bare_loss, bare_grad = loss_and_grad(bare, w)
    assert loss == pytest.approx(bare_loss + 0.15 * float(w @ w), rel=1e-14)
    np.testing.assert_allclose(grad, bare_grad + 0.3 * w, rtol=1e-14)
    np.testing.assert_allclose(
        loss_hessian(payload, w), loss_hessian(bare, w) + 0.3 * np.eye(4), rtol=1e-14
    )


EXPIT_EDGES = [0.0, -0.0, 709.7, -709.7, 709.79, -709.79, -710.0, -745.0, -746.0, 800.0, -800.0]
EXPIT_EDGES += [1e308, -1e308, math.inf, -math.inf, math.nan]


@given(x=st.floats() | st.sampled_from(EXPIT_EDGES))
@settings(max_examples=500, deadline=None)
def test_expit_has_the_bits_of_scipy_expit(x):
    scipy_special = pytest.importorskip("scipy.special")
    want = float(scipy_special.expit(x))
    assert struct.pack("<d", _expit(x)) == struct.pack("<d", want)


def test_the_cli_loads_no_scipy_module():
    code = "import sys, statealign.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
