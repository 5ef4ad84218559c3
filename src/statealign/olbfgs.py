"""Online L-BFGS with a finite ring of curvature pairs.

The optimizer keeps the last tau accepted (s, y) pairs. Each step computes
the gradient of the incoming event at the current parameters, moves along
the two-loop direction with a constant step size, then forms
s = w' - w and y = grad(w') - grad(w) from the same event, accepting the
pair only when s'y exceeds a curvature threshold. Every pair records the
index of the event that produced it, which is what deletion audits consume.
A LaneBank steps several states together with one batched two-loop per
step and the same bits as stepping each state alone.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidConfig
from .stream import DeletionSet, Event, loss_and_grad, require_finite


@dataclass(frozen=True, slots=True)
class CurvaturePair:
    s: np.ndarray
    y: np.ndarray
    source: int


@dataclass
class MemoryState:
    """Ring buffer of curvature pairs, oldest first, capacity tau."""

    tau: int
    pairs: deque[CurvaturePair] = field(default_factory=deque)

    def __post_init__(self) -> None:
        if self.tau < 1:
            raise InvalidConfig("memory capacity tau must be >= 1")
        if self.pairs.maxlen != self.tau:
            self.pairs = deque(self.pairs, maxlen=self.tau)

    def push(self, pair: CurvaturePair) -> None:
        """Append newest pair; the deque evicts the oldest at capacity."""
        self.pairs.append(pair)

    def drop(self, predicate) -> int:
        """Remove pairs matching predicate, preserving order; returns count."""
        kept = [p for p in self.pairs if not predicate(p)]
        removed = len(self.pairs) - len(kept)
        self.pairs = deque(kept, maxlen=self.tau)
        return removed

    def clear(self) -> None:
        self.pairs.clear()

    def clone(self) -> MemoryState:
        return MemoryState(tau=self.tau, pairs=deque(self.pairs, maxlen=self.tau))

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class StepConfig:
    """Update-rule knobs.

    eta is the constant step size; curvature_eps is the pair-acceptance
    threshold on s'y; tau is the memory capacity of freshly built
    optimizer states.
    """

    eta: float = 0.1
    curvature_eps: float = 1e-10
    tau: int = 10

    def __post_init__(self) -> None:
        require_finite(self)
        if self.eta <= 0:
            raise InvalidConfig("eta must be > 0")
        if self.curvature_eps < 0:
            raise InvalidConfig("curvature_eps must be >= 0")
        if self.tau < 1:
            raise InvalidConfig("tau must be >= 1")


@dataclass
class OptimizerState:
    w: np.ndarray
    memory: MemoryState

    def clone(self) -> OptimizerState:
        return OptimizerState(w=self.w.copy(), memory=self.memory.clone())


def state_key(state: OptimizerState) -> tuple:
    """Hashable key, equal for two states exactly when w, tau and every pair match bit for bit."""
    pairs = tuple((p.s.tobytes(), p.y.tobytes(), p.source) for p in state.memory.pairs)
    return state.w.tobytes(), state.memory.tau, pairs


@dataclass(frozen=True, slots=True)
class StepInfo:
    """Byproducts of one update, recorded before the move."""

    loss: float
    direction: np.ndarray
    pair_accepted: bool


def initial_state(dimension: int, cfg: StepConfig) -> OptimizerState:
    """Zero parameters, empty memory: the global starting point."""
    if dimension < 1:
        raise InvalidConfig("dimension must be >= 1")
    return OptimizerState(w=np.zeros(dimension), memory=MemoryState(tau=cfg.tau))


def dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, leading axes broadcast: shape (...).

    Each is a stacked (1, d) @ (d, 1) matmul, which numpy takes through the
    same BLAS dot as a 1-D `a @ b`, so every entry has that product's bits.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


class LaneBank:
    """Optimizer states stepped together, one lane each.

    `w` is (lanes, d). S and Y are (lanes, tau, d) rings, right-aligned: a
    lane holding n pairs keeps them oldest first in its last n slots, and
    every empty slot holds zero vectors with rho = 0. rho and gamma (1 on
    an empty lane) are cached at push time from `dots`, with the bits of
    the products `two_loop` evaluates, so the batched recursion gives
    every lane its scalar result bit for bit. `src` is the (lanes, tau)
    ring of each pair's source event index, -1 in empty slots. len(bank)
    is the deepest lane's pair count.
    """

    def __init__(self, states: list[OptimizerState]) -> None:
        self.tau = states[0].memory.tau
        if any(st.memory.tau != self.tau for st in states):
            raise InvalidConfig("lanes must share tau")
        self.w = np.array([st.w for st in states], dtype=np.float64)
        m, d = self.w.shape
        self.S = np.zeros((m, self.tau, d))
        self.Y = np.zeros((m, self.tau, d))
        self.rho = np.zeros((m, self.tau))
        self.src = np.full((m, self.tau), -1, dtype=np.int64)
        self.gamma = np.ones(m)
        self.depth = np.zeros(m, dtype=np.int64)
        for i, st in enumerate(states):
            for p in st.memory.pairs:
                self._push(np.array([i]), p.s[None, :], p.y[None, :], dots(p.s, p.y), p.source)

    def __len__(self) -> int:
        return int(self.depth.max())

    def _push(self, lanes: np.ndarray, s: np.ndarray, y: np.ndarray, sy: np.ndarray, source: int) -> None:
        """Append pair k = (s[k], y[k]), with s'y = sy[k], as the newest of lane lanes[k].

        Every pair pushed in one call comes from event index `source`. A
        full lane evicts its oldest pair.
        """
        for ring, new in ((self.S, s), (self.Y, y), (self.rho, 1.0 / sy), (self.src, source)):
            ring[lanes, :-1] = ring[lanes, 1:]
            ring[lanes, -1] = new
        self.gamma[lanes] = sy / dots(y, y)
        self.depth[lanes] = np.minimum(self.depth[lanes] + 1, self.tau)

    def direct_mass(self, deletions: DeletionSet) -> np.ndarray:
        """Per lane, the stored pairs whose source event is deleted."""
        return np.isin(self.src, list(deletions.indices)).sum(axis=1)

    def move(self, event: Event, cfg: StepConfig) -> tuple[list[float], np.ndarray]:
        """Every lane's `advance` on one event, in place.

        Gradients are taken lane by lane; the directions come from one
        batched two-loop. Returns the pre-move losses and the (lanes, d)
        search directions.
        """
        w = self.w
        losses, grads = zip(*(loss_and_grad(event.payload, wi) for wi in w))
        g = np.array(grads)
        direction = -_lanes_two_loop(self, g[:, :, None])[:, :, 0]
        w_next = w + cfg.eta * direction
        g_next = np.array([loss_and_grad(event.payload, wi)[1] for wi in w_next])
        s = w_next - w
        y = g_next - g
        sy = dots(s, y)
        accepted = np.flatnonzero(sy > cfg.curvature_eps)
        if accepted.size:
            self._push(accepted, s[accepted], y[accepted], sy[accepted], event.index)
        self.w = w_next
        return list(losses), direction


def _lanes_two_loop(bank: LaneBank, q: np.ndarray) -> np.ndarray:
    """Each lane's `two_loop` on its own columns: q and the result are (lanes, d, m).

    Slots are walked in the order the scalar recursion walks pairs, and every
    dot product is a stacked (1, d) @ (d, m) matmul. In a slot that is empty
    in some lanes, those lanes' updates are masked to exact identities
    (subtract +0.0, add -0.0), so no value of q, inf and -0.0 included,
    changes there.
    """
    r = np.array(q, dtype=np.float64, order="C")
    tau, depth = bank.tau, bank.depth
    oldest = tau - int(depth.max())
    shared = tau - int(depth.min())  # slots from here on are filled in every lane
    alphas = []
    for j in range(tau - 1, oldest - 1, -1):
        alpha = bank.rho[:, j, None] * (bank.S[:, j, None, :] @ r)[:, 0, :]
        if j < shared:
            alpha = np.where(depth[:, None] >= tau - j, alpha, 0.0)
        r -= bank.Y[:, j, :, None] * alpha[:, None, :]
        alphas.append(alpha)
    r *= bank.gamma[:, None, None]
    for j, alpha in zip(range(oldest, tau), reversed(alphas)):
        beta = bank.rho[:, j, None] * (bank.Y[:, j, None, :] @ r)[:, 0, :]
        coef = alpha - beta
        if j < shared:
            coef = np.where(depth[:, None] >= tau - j, coef, -0.0)
        r += bank.S[:, j, :, None] * coef[:, None, :]
    return r


def two_loop(memory: MemoryState | LaneBank, q: np.ndarray) -> np.ndarray:
    """Apply the inverse-Hessian approximation of `memory` to q.

    q may be a single vector (d,) or a column stack (d, m); the operator is
    linear, so columns are transformed independently. The initial scaling
    is s'y / y'y of the newest pair; empty memory applies the identity. A
    LaneBank applies every lane's operator to the same q and stacks the
    results, (lanes, d) or (lanes, d, m).
    """
    single = q.ndim == 1
    if isinstance(memory, LaneBank):
        block = q[:, None] if single else q
        m, d = memory.w.shape
        if block.shape[0] != d:
            raise DimensionMismatch(f"probe dimension {block.shape[0]} != memory dimension {d}")
        out = _lanes_two_loop(memory, np.broadcast_to(block, (m, *block.shape)))
        return out[:, :, 0] if single else out
    qq = (q[:, None] if single else q).astype(np.float64, copy=True)
    pairs = memory.pairs
    if not pairs:
        return qq[:, 0] if single else qq
    d = next(iter(pairs)).s.shape[0]
    if qq.shape[0] != d:
        raise DimensionMismatch(f"probe dimension {qq.shape[0]} != memory dimension {d}")

    stack: list[tuple[CurvaturePair, float, np.ndarray]] = []
    for p in reversed(pairs):
        rho = 1.0 / float(p.s @ p.y)
        alpha = rho * (p.s @ qq)
        qq -= p.y[:, None] * alpha[None, :]
        stack.append((p, rho, alpha))

    newest = pairs[-1]
    r = (float(newest.s @ newest.y) / float(newest.y @ newest.y)) * qq
    for p, rho, alpha in reversed(stack):
        beta = rho * (p.y @ r)
        r += p.s[:, None] * (alpha - beta)[None, :]
    return r[:, 0] if single else r


def advance(state: OptimizerState, event: Event, cfg: StepConfig) -> tuple[OptimizerState, StepInfo]:
    """One online update consuming one event.

    Returns the successor state together with the pre-move loss and
    search direction. The input state is not modified.
    """
    loss, g = loss_and_grad(event.payload, state.w)
    direction = -two_loop(state.memory, g)
    w_next = state.w + cfg.eta * direction

    _, g_next = loss_and_grad(event.payload, w_next)
    s = w_next - state.w
    y = g_next - g

    nxt = state.clone()
    nxt.w = w_next
    accepted = float(s @ y) > cfg.curvature_eps
    if accepted:
        nxt.memory.push(CurvaturePair(s=s, y=y, source=event.index))
    return nxt, StepInfo(loss=loss, direction=direction, pair_accepted=accepted)


def step(state: OptimizerState, event: Event, cfg: StepConfig) -> OptimizerState:
    return advance(state, event, cfg)[0]


def replay(theta0: OptimizerState, history: list[Event], cfg: StepConfig) -> OptimizerState:
    """Left fold of `step` over a history, starting from a copy of theta0.

    A counterfactual history is the prefix with deleted events removed by
    `stream.edit_history`; every event given here is stepped.
    """
    state = theta0.clone()
    for e in history:
        state = step(state, e, cfg)
    return state


def direct_memory_mass(memory: MemoryState, deletions: DeletionSet) -> int:
    """Number of stored pairs whose source event is deleted."""
    return sum(1 for p in memory.pairs if p.source in deletions.indices)
