"""Deletion-handling strategies measured against full counterfactual replay."""

import re
from pathlib import Path

import numpy as np
import pytest

from statealign.errors import InvalidConfig
from statealign.interventions import (
    DEFAULT_METHOD_IDS,
    METHODS,
    InterventionContext,
    apply,
    parse_intervention,
)
from statealign.olbfgs import StepConfig, initial_state, replay, state_key
from statealign.stream import (
    DeletionMode,
    StreamConfig,
    edit_history,
    generate_stream,
    select_deletion_set,
)

CFG = StepConfig(eta=0.1, tau=5)
STREAM_CFG = StreamConfig(
    dimension=6, length=80, deletion_time=40, horizon=20, deletion_mode=DeletionMode.RECENT
)


def make_context(seed=0, mode=DeletionMode.RECENT):
    strm = generate_stream(STREAM_CFG, seed)
    prefix = strm.prefix(40)
    theta0 = initial_state(6, CFG)
    actual = replay(theta0, prefix, CFG)
    deletions = select_deletion_set(strm, 40, mode, 5, grad_state=actual.w)
    return strm, prefix, InterventionContext(
        actual=actual,
        deletions=deletions,
        step_cfg=CFG,
        theta0=theta0,
        full_prefix=prefix,
    )


def test_parse_covers_all_shipped_method_ids():
    for mid in DEFAULT_METHOD_IDS:
        assert parse_intervention(mid) is METHODS[mid]


def test_window_ids_replay_the_last_tau_5tau_and_n_edited_events():
    _, prefix, ctx = make_context(mode=DeletionMode.RANDOM)
    counts = {}
    for mid, n in (("window_tau", CFG.tau), ("window_5tau", 5 * CFG.tau), ("window:33", 33)):
        counts[mid] = apply(mid, ctx).cost.replayed_events
        assert counts[mid] == len(edit_history(prefix[-n:], ctx.deletions))
    assert len(set(counts.values())) == 3


def test_parse_rejects_unknown_ids():
    with pytest.raises(InvalidConfig):
        parse_intervention("teleport")
    with pytest.raises(InvalidConfig):
        parse_intervention("window:0")


def test_oracle_equals_replay_of_edited_prefix():
    strm, prefix, ctx = make_context()
    edited = edit_history(prefix, ctx.deletions)
    expected = replay(initial_state(6, CFG), edited, CFG)
    out = apply("oracle", ctx)
    np.testing.assert_array_equal(out.state.w, expected.w)
    assert out.cost.replayed_events == len(edited)


def test_noop_and_retain_ft_return_unchanged_parameters():
    _, _, ctx = make_context()
    for mid in ("noop", "retain_ft"):
        out = apply(mid, ctx)
        np.testing.assert_array_equal(out.state.w, ctx.actual.w)
        assert state_key(out.state) == state_key(ctx.actual)
        assert out.cost.replayed_events == 0
        # must be a private copy, not an alias
        out.state.w[0] += 1.0
        assert out.state.w[0] != ctx.actual.w[0]


def test_mem_reset_clears_memory_and_keeps_parameters():
    _, _, ctx = make_context()
    out = apply("mem_reset", ctx)
    np.testing.assert_array_equal(out.state.w, ctx.actual.w)
    assert len(out.state) == 0
    assert (out.state.src == -1).all()
    assert not out.state.S.any() and not out.state.Y.any()


def test_pair_drop_removes_exactly_contaminated_pairs():
    _, _, ctx = make_context()
    banned = ctx.deletions.indices
    before = ctx.actual
    out = apply("pair_drop", ctx).state
    kept = [j for j, src in enumerate(before.src) if src >= 0 and src not in banned]
    assert len(out) == len(kept)
    first = len(out.src) - len(kept)
    assert out.src[first:].tolist() == before.src[kept].tolist()
    np.testing.assert_array_equal(out.S[first:], before.S[kept])
    np.testing.assert_array_equal(out.Y[first:], before.Y[kept])
    assert (out.src[:first] == -1).all() and not out.S[:first].any()
    np.testing.assert_array_equal(out.w, ctx.actual.w)


def test_drop_refill_restarts_parameters_and_memory():
    _, _, ctx = make_context()
    out = apply("drop_refill", ctx)
    np.testing.assert_array_equal(out.state.w, ctx.theta0.w)
    assert len(out.state) == 0


def test_window_replay_with_full_coverage_matches_oracle_bitwise():
    strm, prefix, ctx = make_context()
    oracle = apply("oracle", ctx)
    window = apply("window:40", ctx)
    assert state_key(window.state) == state_key(oracle.state)


def test_window_replay_shorter_window_differs_from_oracle():
    strm, prefix, ctx = make_context()
    oracle = apply("oracle", ctx)
    short = apply("window:10", ctx)
    assert not np.array_equal(short.state.w, oracle.state.w)
    assert short.cost.replayed_events <= 10


def test_param_only_applies_damped_newton_removal():
    from statealign.stream import loss_and_grad, loss_hessian

    strm, prefix, ctx = make_context(seed=3)
    out = apply("param_only", ctx)

    w = ctx.actual.w
    deleted = [e for e in prefix if e.index in ctx.deletions.indices]
    grad_sum = np.zeros(6)
    hess_sum = np.zeros((6, 6))
    for e in deleted:
        grad_sum += loss_and_grad(e.payload, w)[1]
        hess_sum += loss_hessian(e.payload, w)
    reg = 1e-6 * float(np.trace(hess_sum)) / 6
    expected = w - np.linalg.solve(hess_sum + reg * np.eye(6), grad_sum)

    np.testing.assert_allclose(out.state.w, expected, rtol=1e-13)
    assert out.cost.extra_grad_evals == 5
    # memory untouched: the corrected parameters sit atop the old pairs
    np.testing.assert_array_equal(out.state.S, ctx.actual.S)
    np.testing.assert_array_equal(out.state.Y, ctx.actual.Y)
    np.testing.assert_array_equal(out.state.src, ctx.actual.src)


def test_all_methods_map_the_counterfactual_future():
    _, _, ctx = make_context()
    for mid in DEFAULT_METHOD_IDS:
        out = apply(mid, ctx)
        assert out.cost.wall_clock_seconds >= 0.0


def test_readme_method_ids_are_the_method_table():
    """README's "Method ids" bullets name each row of the table, plus window:<n>."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Method ids\n", 1)[1].split("\n## ", 1)[0]
    heads = re.findall(r"^- ((?:`[^`]+`(?: / )?)+):", section, re.M)
    named = [mid for head in heads for mid in re.findall(r"`([^`]+)`", head)]
    assert sorted(named) == sorted(DEFAULT_METHOD_IDS + ("window:<n>",))
