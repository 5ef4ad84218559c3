"""Deletion-response methods applied to a trained optimizer state.

Every method receives the state that consumed the full prefix, the
deletion set, and whatever history access it is allowed, and emits a
repaired state plus a cost record. The oracle replays the edited prefix
from the global initial state and is the reference the metrics compare
against; everything else trades fidelity for work.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidConfig
from .olbfgs import OptimizerState, StepConfig, initial_state, replay
from .stream import DeletionSet, Event, loss_and_grad, loss_hessian, edit_history

# Relative Tikhonov level for the Newton-style parameter correction.
_NEWTON_REG_SCALE = 1e-6


class InterventionKind(Enum):
    ORACLE_REPLAY = "oracle"
    NO_OP = "noop"
    PARAMETER_ONLY = "param_only"
    FULL_MEMORY_RESET = "mem_reset"
    CONTAMINATED_PAIR_DROP = "pair_drop"
    WINDOW_REPLAY = "window"
    DROP_AND_REFILL = "drop_refill"


@dataclass(frozen=True)
class InterventionSpec:
    """A method identity plus its window length when replay-bounded."""

    kind: InterventionKind
    window: int | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind is InterventionKind.WINDOW_REPLAY:
            if self.window is None or self.window < 1:
                raise InvalidConfig("window replay needs a positive window")
        elif self.window is not None:
            raise InvalidConfig(f"{self.kind.value} takes no window")
        if not self.label:
            object.__setattr__(self, "label", self.kind.value)


def parse_intervention(method_id: str, tau: int) -> InterventionSpec:
    """Resolve a stable string id into a spec.

    window_tau / window_5tau bind the window to the memory length;
    window:<n> names an explicit window. retain_ft is noop under its own
    label: retain-side fine-tuning changes no stored state at deletion time.
    """
    if method_id == "retain_ft":
        return InterventionSpec(InterventionKind.NO_OP, label=method_id)
    if method_id == "window_tau":
        return InterventionSpec(InterventionKind.WINDOW_REPLAY, window=tau, label=method_id)
    if method_id == "window_5tau":
        return InterventionSpec(InterventionKind.WINDOW_REPLAY, window=5 * tau, label=method_id)
    if method_id.startswith("window:"):
        try:
            window = int(method_id.split(":", 1)[1])
        except ValueError as exc:
            raise InvalidConfig(f"bad window length in intervention id {method_id!r}") from exc
        return InterventionSpec(InterventionKind.WINDOW_REPLAY, window=window, label=method_id)
    for kind in InterventionKind:
        if kind.value == method_id and kind is not InterventionKind.WINDOW_REPLAY:
            return InterventionSpec(kind, label=method_id)
    raise InvalidConfig(f"unknown intervention id {method_id!r}")


DEFAULT_METHOD_IDS: tuple[str, ...] = (
    "oracle",
    "noop",
    "param_only",
    "retain_ft",
    "mem_reset",
    "pair_drop",
    "window_tau",
    "window_5tau",
    "drop_refill",
)


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
    label: str


def _newton_parameter_correction(ctx: InterventionContext) -> tuple[OptimizerState, int]:
    """Remove the deleted events' first-order influence from w only.

    Solves (sum of deleted-event Hessians + reg I) step = sum of deleted
    gradients at the current w and subtracts the step. reg is 1e-6 times
    the mean diagonal of the aggregate Hessian, so the solve stays
    well-posed when deleted curvature is rank-deficient.
    """
    state = ctx.actual.clone()
    deleted = [e for e in ctx.full_prefix if e.index in ctx.deletions.indices]
    if not deleted:
        return state, 0
    d = state.w.shape[0]
    grad_sum = np.zeros(d)
    hess_sum = np.zeros((d, d))
    for e in deleted:
        grad_sum += loss_and_grad(e.payload, state.w)[1]
        hess_sum += loss_hessian(e.payload, state.w)
    reg = _NEWTON_REG_SCALE * float(np.trace(hess_sum)) / d
    correction = np.linalg.solve(hess_sum + reg * np.eye(d), grad_sum)
    state.w = state.w - correction
    return state, len(deleted)


def _window_replay(ctx: InterventionContext, window: int) -> tuple[OptimizerState, int]:
    """Retrain from the global initial parameters on the edited window.

    The method stores no pre-window checkpoint: the restart state is zero
    parameters with empty memory, so the result matches the oracle exactly
    only when the window covers the whole surviving history.
    """
    edited = edit_history(ctx.full_prefix[-window:], ctx.deletions)
    fresh = initial_state(ctx.actual.w.shape[0], ctx.step_cfg)
    return replay(fresh, edited, ctx.step_cfg), len(edited)


def apply(spec: InterventionSpec, ctx: InterventionContext) -> IntervenedState:
    """Run one method; inputs (context, histories) are never mutated."""
    started = time.perf_counter()
    replayed = 0
    grad_evals = 0
    kind = spec.kind

    if kind is InterventionKind.ORACLE_REPLAY:
        edited = edit_history(ctx.full_prefix, ctx.deletions)
        state = replay(ctx.theta0, edited, ctx.step_cfg)
        replayed = len(edited)
    elif kind is InterventionKind.NO_OP:
        state = ctx.actual.clone()
    elif kind is InterventionKind.PARAMETER_ONLY:
        state, n_deleted = _newton_parameter_correction(ctx)
        grad_evals = n_deleted
    elif kind is InterventionKind.FULL_MEMORY_RESET:
        state = ctx.actual.clone()
        state.memory.clear()
    elif kind is InterventionKind.CONTAMINATED_PAIR_DROP:
        state = ctx.actual.clone()
        banned = ctx.deletions.indices
        state.memory.drop(lambda p: p.source in banned)
    elif kind is InterventionKind.WINDOW_REPLAY:
        state, replayed = _window_replay(ctx, spec.window)
    elif kind is InterventionKind.DROP_AND_REFILL:
        state = ctx.actual.clone()
        state.w = ctx.theta0.w.copy()
        state.memory.clear()
    else:  # pragma: no cover - exhaustive enum
        raise InvalidConfig(f"unhandled intervention {kind}")

    cost = InterventionCost(
        replayed_events=replayed,
        extra_grad_evals=grad_evals,
        wall_clock_seconds=time.perf_counter() - started,
    )
    return IntervenedState(state=state, cost=cost, label=spec.label)
