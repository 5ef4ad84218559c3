"""Online L-BFGS with a finite ring of curvature pairs.

The optimizer keeps the last tau accepted (s, y) pairs. Each step computes
the gradient of the incoming event at the current parameters, moves along
the two-loop direction with a constant step size, then forms
s = w' - w and y = grad(w') - grad(w) from the same event, accepting the
pair only when s'y exceeds a curvature threshold. Every pair records the
index of the event that produced it, which is what deletion audits consume.
A state keeps its pairs in the ring layout of one LaneBank lane. Every
application of a memory, the search directions of a state or of a bank and
the metric's probe action alike, runs through one kernel: the compact form
of the two-loop recursion, with batched products and no loop over pairs.
A lane gets the same bits in any bank, so a LaneBank steps several states
together with the bits of stepping each state alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidConfig
from .stream import DeletionSet, Event, loss_and_grad, require_finite


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
    """Parameters w and the memory, in the ring layout of one LaneBank lane.

    S and Y are (tau, d), right-aligned: a state holding n pairs keeps them
    oldest first in the last n rows, and every empty row is zero. src is
    the (tau,) ring of each pair's source event index, -1 in empty slots.
    len(state) is the pair count.
    """

    w: np.ndarray
    S: np.ndarray
    Y: np.ndarray
    src: np.ndarray

    def __len__(self) -> int:
        return int(np.count_nonzero(self.src >= 0))

    def clone(self) -> OptimizerState:
        return OptimizerState(self.w.copy(), self.S.copy(), self.Y.copy(), self.src.copy())

    def push(self, s: np.ndarray, y: np.ndarray, source: int) -> None:
        """Append (s, y) from event `source` as the newest pair; a full ring evicts its oldest."""
        for ring, new in ((self.S, s), (self.Y, y), (self.src, source)):
            ring[:-1] = ring[1:]
            ring[-1] = new

    def keep(self, mask: np.ndarray) -> None:
        """Keep the pairs in the slots where mask holds, compacted right-aligned in order."""
        rows = np.flatnonzero(mask & (self.src >= 0))
        empty = len(self.src) - rows.size
        for ring, fill in ((self.S, 0.0), (self.Y, 0.0), (self.src, -1)):
            ring[empty:] = ring[rows]
            ring[:empty] = fill


def state_key(state: OptimizerState) -> tuple:
    """Hashable key, equal for two states exactly when w and every slot match bit for bit."""
    return tuple(a.tobytes() for a in (state.w, state.S, state.Y, state.src))


def direct_mass(memory: OptimizerState | LaneBank, deletions: DeletionSet) -> np.ndarray:
    """Stored pairs whose source event is deleted, counted over the last axis of `src`.

    One count for a state, one per lane for a bank.
    """
    return np.isin(memory.src, list(deletions.indices)).sum(axis=-1)


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
    shape = (cfg.tau, dimension)
    src = np.full(cfg.tau, -1, dtype=np.int64)
    return OptimizerState(np.zeros(dimension), np.zeros(shape), np.zeros(shape), src)


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
    every empty slot holds zero vectors; lane i holds the arrays of
    states[i]. gamma is the newest pair's s'y / y'y (1 on an empty lane),
    from `dots`, with the same bits whether the bank was built or pushed.
    `src` is the (lanes, tau) ring of each pair's source event index, -1 in
    empty slots. len(bank) is the deepest lane's pair count.
    """

    def __init__(self, states: list[OptimizerState]) -> None:
        self.tau = len(states[0].src)
        if any(len(st.src) != self.tau for st in states):
            raise InvalidConfig("lanes must share tau")
        self.w = np.array([st.w for st in states], dtype=np.float64)
        self.S = np.array([st.S for st in states], dtype=np.float64)
        self.Y = np.array([st.Y for st in states], dtype=np.float64)
        self.src = np.array([st.src for st in states], dtype=np.int64)
        filled = self.src >= 0
        self.depth = filled.sum(axis=1)
        newest = self.Y[:, -1]
        self.gamma = np.divide(
            dots(self.S[:, -1], newest), dots(newest, newest), out=np.ones(len(filled)), where=filled[:, -1]
        )

    def __len__(self) -> int:
        return int(self.depth.max())

    def lane(self, i: int) -> OptimizerState:
        """A copy of lane i as a state."""
        return OptimizerState(self.w[i].copy(), self.S[i].copy(), self.Y[i].copy(), self.src[i].copy())

    def _push(self, lanes: np.ndarray, s: np.ndarray, y: np.ndarray, sy: np.ndarray, source: int) -> None:
        """Append pair k = (s[k], y[k]), with s'y = sy[k], as the newest of lane lanes[k].

        Every pair pushed in one call comes from event index `source`. A
        full lane evicts its oldest pair.
        """
        for ring, new in ((self.S, s), (self.Y, y), (self.src, source)):
            ring[lanes, :-1] = ring[lanes, 1:]
            ring[lanes, -1] = new
        self.gamma[lanes] = sy / dots(y, y)
        self.depth[lanes] = np.minimum(self.depth[lanes] + 1, self.tau)

    def move(self, event: Event, cfg: StepConfig) -> tuple[list[float], np.ndarray]:
        """Every lane's `advance` on one event, in place.

        Gradients are taken lane by lane; the directions come from one
        call of the compact two-loop on the (lanes, d, 1) gradient block.
        Returns the pre-move losses and the (lanes, d) search directions.
        """
        w = self.w
        losses, grads = zip(*(loss_and_grad(event.payload, wi) for wi in w))
        g = np.array(grads)
        direction = -_compact_two_loop(self, g[:, :, None])[:, :, 0]
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


def _compact_two_loop(bank: LaneBank, p: np.ndarray) -> np.ndarray:
    """Every lane's operator applied to p: (lanes, d, m).

    p is a (d, m) block shared by every lane, such as the metric's probes,
    or a (lanes, d, m) block of each lane's own columns, such as the
    gradients `move` turns into directions. This is the compact form of
    Byrd, Nocedal and Schnabel (1994, "Representations of quasi-Newton
    matrices"). With a lane's pairs as the rows of S and Y, oldest first,
    R the upper triangle of S Yᵀ and D its diagonal, the recursion's two
    loops are two triangular solves:

        Z = R⁻¹ S p,  u = p − Yᵀ Z,  T = R⁻ᵀ (D Z − γ Y u),  H p = γ u + Sᵀ T.

    An empty slot's rows are zero and get a unit pivot, so it adds nothing.
    Both solves multiply by one explicit R⁻¹, and the second, whose result
    carries the operator's scale, takes one step of iterative refinement.
    Every product is stacked over lanes, so a lane's result depends only
    on its own arrays and the values of its columns, bit for bit (p is made
    C-contiguous first, since numpy's matmul takes a strided column down
    another path). An empty lane returns its columns of p unchanged, inf,
    nan and -0.0 included. A lane whose R is not finite or has a zero pivot
    gets nan; overflow and invalid values raise no warning.
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    tau = bank.tau
    S, Y = bank.S, bank.Y
    St, Yt = S.transpose(0, 2, 1), Y.transpose(0, 2, 1)
    gamma = bank.gamma[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        R = np.triu(S @ Yt)
        pivots = R.reshape(len(R), -1)[:, :: tau + 1]  # a view of each lane's diagonal
        D = pivots[:, :, None].copy()
        pivots += bank.src < 0
        bad = ~(np.isfinite(R).all(axis=(1, 2)) & pivots.all(axis=1))
        if bad.any():
            R[bad] = np.eye(tau)
        R_inv = np.linalg.inv(R)
        R_inv[bad] = np.nan
        Z = R_inv @ (S @ p)
        u = p - Yt @ Z
        rhs = D * Z - gamma * (Y @ u)
        T = R_inv.transpose(0, 2, 1) @ rhs
        T += R_inv.transpose(0, 2, 1) @ (rhs - R.transpose(0, 2, 1) @ T)
        out = gamma * u + St @ T
    empty = bank.depth == 0
    if empty.any():
        out[empty] = np.broadcast_to(p, out.shape)[empty]
    return out


def two_loop(memory: OptimizerState | LaneBank, q: np.ndarray) -> np.ndarray:
    """Apply the inverse-Hessian approximation of `memory` to q.

    q may be a single vector (d,) or a column stack (d, m); the operator is
    linear, so columns are transformed independently. The initial scaling
    is s'y / y'y of the newest pair; empty memory applies the identity. A
    state is applied as a one-lane LaneBank, and a LaneBank applies every
    lane's operator to the same q and stacks the results, (lanes, d) or
    (lanes, d, m). Both run `_compact_two_loop`, so a state's result has
    the bits of its lane in any bank; it agrees with the textbook recursion
    to rounding, not bit for bit.
    """
    single = q.ndim == 1
    block = q[:, None] if single else q
    d = memory.w.shape[-1]
    if block.shape[0] != d:
        raise DimensionMismatch(f"probe dimension {block.shape[0]} != memory dimension {d}")
    bank = memory if isinstance(memory, LaneBank) else LaneBank([memory])
    out = _compact_two_loop(bank, block)
    if bank is not memory:
        out = out[0]
    return out[..., 0] if single else out


def advance(state: OptimizerState, event: Event, cfg: StepConfig) -> tuple[OptimizerState, StepInfo]:
    """One online update consuming one event.

    Returns the successor state together with the pre-move loss and
    search direction. The input state is not modified.
    """
    loss, g = loss_and_grad(event.payload, state.w)
    direction = -two_loop(state, g)
    w_next = state.w + cfg.eta * direction

    _, g_next = loss_and_grad(event.payload, w_next)
    s = w_next - state.w
    y = g_next - g

    nxt = state.clone()
    nxt.w = w_next
    accepted = float(s @ y) > cfg.curvature_eps
    if accepted:
        nxt.push(s, y, event.index)
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

