"""Deletion-response methods applied to a trained optimizer state.

Every method receives the state that consumed the full prefix, the
deletion set, and whatever history access it is allowed, and emits a
repaired state plus a cost record. A method is one row of `METHODS`: a
function from the deletion-time context to (state, replayed events,
extra gradient evaluations). The oracle is the window replay that covers
the whole prefix, the reference the metrics compare against; everything
else trades fidelity for work.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidConfig
from .olbfgs import OptimizerState, StepConfig, replay
from .stream import DeletionSet, Event, loss_and_grad, loss_hessian, edit_history

# Relative Tikhonov level for the Newton-style parameter correction.
_NEWTON_REG_SCALE = 1e-6


@dataclass(frozen=True)
class InterventionCost:
    replayed_events: int = 0
    extra_grad_evals: int = 0
    wall_clock_seconds: float = 0.0


@dataclass
class InterventionContext:
    """Everything a method may consult at deletion time.

    full_prefix is the unedited history up to t_del; window replay reads
    only its trailing events. theta0 is the global initial state of the run.
    """

    actual: OptimizerState
    deletions: DeletionSet
    step_cfg: StepConfig
    theta0: OptimizerState
    full_prefix: list[Event]


@dataclass
class IntervenedState:
    state: OptimizerState
    cost: InterventionCost


# What a method returns: (repaired state, replayed events, extra gradient evaluations).
Outcome = tuple[OptimizerState, int, int]
Row = Callable[[InterventionContext], Outcome]


def _unchanged(ctx: InterventionContext) -> Outcome:
    return ctx.actual.clone(), 0, 0


def _keep_pairs(ctx: InterventionContext, keep: np.ndarray) -> Outcome:
    """Keep the trained parameters and the stored pairs in the slots where `keep` holds."""
    state = ctx.actual.clone()
    state.keep(keep)
    return state, 0, 0


def _newton_parameter_correction(ctx: InterventionContext) -> Outcome:
    """Remove the deleted events' first-order influence from w only.

    Solves (sum of deleted-event Hessians + reg I) step = sum of deleted
    gradients at the current w and subtracts the step. reg is 1e-6 times
    the mean diagonal of the aggregate Hessian, so the solve stays
    well-posed when deleted curvature is rank-deficient.
    """
    state = ctx.actual.clone()
    deleted = [e for e in ctx.full_prefix if e.index in ctx.deletions.indices]
    if not deleted:
        return state, 0, 0
    d = state.w.shape[0]
    grad_sum = np.zeros(d)
    hess_sum = np.zeros((d, d))
    for e in deleted:
        grad_sum += loss_and_grad(e.payload, state.w)[1]
        hess_sum += loss_hessian(e.payload, state.w)
    reg = _NEWTON_REG_SCALE * float(np.trace(hess_sum)) / d
    correction = np.linalg.solve(hess_sum + reg * np.eye(d), grad_sum)
    state.w = state.w - correction
    return state, 0, len(deleted)


def _window_replay(ctx: InterventionContext, window: int) -> Outcome:
    """Retrain from theta0 on the last `window` prefix events, deletions removed.

    The method stores no pre-window checkpoint, so the result matches the
    oracle exactly only when the window covers the whole surviving history.
    """
    edited = edit_history(ctx.full_prefix[-window:], ctx.deletions)
    return replay(ctx.theta0, edited, ctx.step_cfg), len(edited), 0


# The shipped methods in report order. retain_ft is noop under its own
# label: retain-side fine-tuning changes no stored state at deletion time.
METHODS: dict[str, Row] = {
    "oracle": lambda ctx: _window_replay(ctx, len(ctx.full_prefix)),
    "noop": _unchanged,
    "param_only": _newton_parameter_correction,
    "retain_ft": _unchanged,
    "mem_reset": lambda ctx: _keep_pairs(ctx, np.zeros_like(ctx.actual.src, dtype=bool)),
    "pair_drop": lambda ctx: _keep_pairs(
        ctx, ~np.isin(ctx.actual.src, list(ctx.deletions.indices))
    ),
    "window_tau": lambda ctx: _window_replay(ctx, ctx.step_cfg.tau),
    "window_5tau": lambda ctx: _window_replay(ctx, 5 * ctx.step_cfg.tau),
    "drop_refill": lambda ctx: (ctx.theta0.clone(), 0, 0),
}

DEFAULT_METHOD_IDS: tuple[str, ...] = tuple(METHODS)


def parse_intervention(method_id: str) -> Row:
    """Resolve a stable string id into its row function.

    An id is a key of METHODS or window:<n>, a replay of the last n
    prefix events, n >= 1 written as str(n): ASCII digits 0-9 and no
    leading zero, so that each window has one id.
    """
    if method_id.startswith("window:"):
        digits = method_id[len("window:") :]
        # int() also takes signs, spaces, underscores, leading zeros and
        # non-ASCII digits, and raises ValueError past its digit limit.
        if digits.isascii() and digits.isdigit() and digits[0] != "0":
            with contextlib.suppress(ValueError):
                window = int(digits)
                return lambda ctx: _window_replay(ctx, window)
        raise InvalidConfig(f"bad window length in intervention id {method_id!r}")
    if method_id not in METHODS:
        raise InvalidConfig(f"unknown intervention id {method_id!r}")
    return METHODS[method_id]


def apply(method_id: str, ctx: InterventionContext) -> IntervenedState:
    """Run the method `method_id` names; inputs (context, histories) are never mutated."""
    started = time.perf_counter()
    state, replayed, grad_evals = parse_intervention(method_id)(ctx)
    cost = InterventionCost(
        replayed_events=replayed,
        extra_grad_evals=grad_evals,
        wall_clock_seconds=time.perf_counter() - started,
    )
    return IntervenedState(state=state, cost=cost)
