"""Distances between optimizer states and summaries of their traces.

State discrepancy combines a parameter term ||w_a - w_b|| with a memory
term measured through the action of each memory's two-loop operator on a
fixed set of unit probes. The distances act on stacked lanes (leading
axes broadcast), each lane with the bits of its own 1-D computation, and
`state_gaps` measures every lane of a LaneBank against lane 0. Traces of
the combined error over a post-deletion horizon are summarized by their
area (plain sum) and by a log-linear decay fit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyTrace, IntervalTooShort, InvalidConfig
from .olbfgs import LaneBank, dots, two_loop

DIRECTION_EPS = 1e-14
FIT_FLOOR = 1e-15


def make_probes(dimension: int, count: int, seed: int) -> np.ndarray:
    """Read-only (dimension, count) matrix of unit probe columns, shared across methods."""
    if dimension < 1 or count < 1:
        raise InvalidConfig("probe dimension and count must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x70726F62)))
    vecs = rng.standard_normal((dimension, count))
    vecs /= np.linalg.norm(vecs, axis=0, keepdims=True)
    vecs.flags.writeable = False
    return vecs


def param_error(w_a: np.ndarray, w_b: np.ndarray) -> np.ndarray:
    """Euclidean distance over the last axis."""
    if w_a.shape[-1] != w_b.shape[-1]:
        raise DimensionMismatch("parameter vectors differ in dimension")
    diff = w_a - w_b
    return np.sqrt(dots(diff, diff))


def operator_action_error(action_a: np.ndarray, action_b: np.ndarray) -> np.ndarray:
    """RMS over the probe columns (last axis) of the Euclidean action gap."""
    diff = action_a - action_b
    return np.sqrt(np.mean(np.sum(diff * diff, axis=-2), axis=-1))


def state_error(param_err, memory_err, memory_weight: float = 1.0):
    return param_err + memory_weight * memory_err


def state_gaps(bank: LaneBank, probes: np.ndarray, memory_weight: float) -> tuple[np.ndarray, ...]:
    """(E_w, E_Z, E_theta) of every lane against lane 0, each (lanes,); E_Z acts on the probes."""
    actions = two_loop(bank, probes)
    e_w = param_error(bank.w, bank.w[0])
    e_z = operator_action_error(actions, actions[0])
    return e_w, e_z, state_error(e_w, e_z, memory_weight)


def direction_gap(d_a: np.ndarray, d_b: np.ndarray) -> np.ndarray:
    """1 - cos(d_a, d_b) over the last axis.

    Exactly 0.0 where the two are equal, nan where either norm is below
    DIRECTION_EPS (a degenerate direction has no angle).
    """
    n_a = np.sqrt(dots(d_a, d_a))
    n_b = np.sqrt(dots(d_b, d_b))
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = 1.0 - dots(d_a, d_b) / (n_a * n_b)
    gap = np.where(np.all(d_a == d_b, axis=-1), 0.0, gap)
    return np.where((n_a < DIRECTION_EPS) | (n_b < DIRECTION_EPS), np.nan, gap)


def auc(values: np.ndarray | list[float]) -> float:
    """Plain sum of a non-negative trace; missing entries are skipped."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise EmptyTrace("cannot integrate an empty trace")
    return float(np.nansum(arr))


def direct_clearance_time(mass_trace: np.ndarray | list[int]) -> int | None:
    """First post-deletion step with zero direct memory mass, else None."""
    arr = np.asarray(mass_trace)
    if arr.size == 0:
        raise EmptyTrace("cannot scan an empty mass trace")
    hits = np.flatnonzero(arr == 0)
    return int(hits[0]) if hits.size else None


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log(error) over one phase of the horizon."""

    rho_hat: float
    c_hat: float


def fit_decay_rate(
    trace: np.ndarray | list[float], k_lo: int, k_hi: int, floor: float = FIT_FLOOR
) -> DecayFit:
    """Fit trace[k] ~ C * rho^k on k in [k_lo, k_hi] (inclusive).

    Values are floored at `floor` before taking logs. rho_hat is
    deliberately unclamped: amplifying phases report rho_hat > 1.
    """
    arr = np.asarray(trace, dtype=float)
    if not 0 <= k_lo <= k_hi < arr.size:
        raise IntervalTooShort(f"interval [{k_lo}, {k_hi}] outside trace of length {arr.size}")
    if k_hi - k_lo < 2:
        raise IntervalTooShort("decay fit needs k_hi - k_lo >= 2")
    ks = np.arange(k_lo, k_hi + 1, dtype=float)
    vals = arr[k_lo : k_hi + 1]
    logs = np.log(np.maximum(vals, floor))
    slope, intercept = np.polyfit(ks, logs, 1)
    return DecayFit(rho_hat=float(np.exp(slope)), c_hat=float(np.exp(intercept)))


@dataclass
class MetricTrace:
    """Per-step discrepancies over a shared post-deletion horizon.

    Entry k describes the state after k future events. direction_err and
    loss refer to the event consumed between k and k+1, so their final
    entry is nan; direction_err is also nan where a direction was
    degenerate. Those entries are excluded from the direction AUC. The
    state and parameter AUCs are plain sums, so a non-finite entry (a
    diverged run) makes them non-finite rather than vanish; a diverged
    run's direction AUC is nan too.
    """

    param_err: np.ndarray
    memory_err: np.ndarray
    state_err: np.ndarray
    direction_err: np.ndarray
    direct_mass: np.ndarray
    loss: np.ndarray

    def __len__(self) -> int:
        return int(self.state_err.size)

    def state_auc(self) -> float:
        return float(np.sum(self.state_err))

    def param_auc(self) -> float:
        return float(np.sum(self.param_err))

    def direction_auc(self) -> float:
        if not np.all(np.isfinite(self.state_err)):
            return float("nan")
        return auc(self.direction_err)

    def clearance_time(self) -> int | None:
        return direct_clearance_time(self.direct_mass)
