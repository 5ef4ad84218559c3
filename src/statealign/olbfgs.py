"""Online L-BFGS with a finite ring of curvature pairs.

The optimizer keeps the last tau accepted (s, y) pairs. Each step computes
the gradient of the incoming event at the current parameters, moves along
the two-loop direction with a constant step size, then forms
s = w' - w and y = grad(w') - grad(w) from the same event, accepting the
pair only when s'y exceeds a curvature threshold. Every pair records the
event indices that produced it, which is what deletion audits consume.
"""
from __future__ import annotations

import base64
import hashlib
import json
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidConfig
from .stream import DeletionSet, Event, loss_and_grad, require_finite

SNAPSHOT_VERSION = 2

GAMMA_NEWEST_PAIR = "newest_pair"
GAMMA_CONSTANT = "constant"
_GAMMA_MODES = (GAMMA_NEWEST_PAIR, GAMMA_CONSTANT)


@dataclass(frozen=True, slots=True)
class CurvaturePair:
    s: np.ndarray
    y: np.ndarray
    sources: frozenset[int]
    created_at: int


@dataclass
class MemoryState:
    """Ring buffer of curvature pairs, oldest first, capacity tau.

    gamma0 and gamma_mode travel with the memory so that the two-loop
    recursion is a function of the memory alone: gamma_mode selects the
    initial scaling (s'y / y'y of the newest pair, or the constant gamma0),
    and gamma0 is also the scaling used while the buffer is empty.
    """

    tau: int
    pairs: deque[CurvaturePair] = field(default_factory=deque)
    gamma0: float = 1.0
    gamma_mode: str = GAMMA_NEWEST_PAIR

    def __post_init__(self) -> None:
        if self.tau < 1:
            raise InvalidConfig("memory capacity tau must be >= 1")
        if self.gamma_mode not in _GAMMA_MODES:
            raise InvalidConfig(f"unknown gamma_mode {self.gamma_mode!r}")
        if self.gamma0 <= 0:
            raise InvalidConfig("gamma0 must be > 0")
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
        return MemoryState(
            tau=self.tau,
            pairs=deque(self.pairs, maxlen=self.tau),
            gamma0=self.gamma0,
            gamma_mode=self.gamma_mode,
        )

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class StepConfig:
    """Update-rule knobs.

    eta is the constant step size; curvature_eps is the pair-acceptance
    threshold on s'y. ridge is forwarded to the per-event loss (only
    logistic losses use it). tau, gamma0 and gamma_mode seed the memory of
    freshly built optimizer states.
    """

    eta: float = 0.1
    curvature_eps: float = 1e-10
    gamma_mode: str = GAMMA_NEWEST_PAIR
    gamma0: float = 1.0
    tau: int = 10
    ridge: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.eta <= 0:
            raise InvalidConfig("eta must be > 0")
        if self.curvature_eps < 0:
            raise InvalidConfig("curvature_eps must be >= 0")
        if self.gamma_mode not in _GAMMA_MODES:
            raise InvalidConfig(f"unknown gamma_mode {self.gamma_mode!r}")
        if self.gamma0 <= 0:
            raise InvalidConfig("gamma0 must be > 0")
        if self.tau < 1:
            raise InvalidConfig("tau must be >= 1")
        if self.ridge < 0:
            raise InvalidConfig("ridge must be >= 0")


@dataclass
class OptimizerState:
    w: np.ndarray
    memory: MemoryState
    step: int = 0

    def clone(self) -> OptimizerState:
        return OptimizerState(w=self.w.copy(), memory=self.memory.clone(), step=self.step)


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
    memory = MemoryState(tau=cfg.tau, gamma0=cfg.gamma0, gamma_mode=cfg.gamma_mode)
    return OptimizerState(w=np.zeros(dimension), memory=memory)


def two_loop(memory: MemoryState, q: np.ndarray) -> np.ndarray:
    """Apply the inverse-Hessian approximation of `memory` to q.

    q may be a single vector (d,) or a column stack (d, m); the operator is
    linear, so columns are transformed independently. Empty memory applies
    gamma0 * I.
    """
    single = q.ndim == 1
    qq = (q[:, None] if single else q).astype(np.float64, copy=True)
    pairs = memory.pairs
    if not pairs:
        out = memory.gamma0 * qq
        return out[:, 0] if single else out
    d = next(iter(pairs)).s.shape[0]
    if qq.shape[0] != d:
        raise DimensionMismatch(f"probe dimension {qq.shape[0]} != memory dimension {d}")

    stack: list[tuple[CurvaturePair, float, np.ndarray]] = []
    for p in reversed(pairs):
        rho = 1.0 / float(p.s @ p.y)
        alpha = rho * (p.s @ qq)
        qq -= p.y[:, None] * alpha[None, :]
        stack.append((p, rho, alpha))

    if memory.gamma_mode == GAMMA_NEWEST_PAIR:
        newest = pairs[-1]
        gamma = float(newest.s @ newest.y) / float(newest.y @ newest.y)
    else:
        gamma = memory.gamma0
    r = gamma * qq
    for p, rho, alpha in reversed(stack):
        beta = rho * (p.y @ r)
        r += p.s[:, None] * (alpha - beta)[None, :]
    return r[:, 0] if single else r


def advance(state: OptimizerState, event: Event, cfg: StepConfig) -> tuple[OptimizerState, StepInfo]:
    """One online update consuming one event.

    Returns the successor state together with the pre-move loss and
    search direction. The input state is not modified.
    """
    loss, g = loss_and_grad(event.payload, state.w, cfg.ridge)
    direction = -two_loop(state.memory, g)
    w_next = state.w + cfg.eta * direction

    _, g_next = loss_and_grad(event.payload, w_next, cfg.ridge)
    s = w_next - state.w
    y = g_next - g

    nxt = state.clone()
    nxt.w = w_next
    nxt.step = state.step + 1
    accepted = float(s @ y) > cfg.curvature_eps
    if accepted:
        nxt.memory.push(
            CurvaturePair(s=s, y=y, sources=frozenset((event.index,)), created_at=nxt.step)
        )
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
    """Number of stored pairs whose sources intersect the deleted indices."""
    if not deletions.indices:
        return 0
    banned = deletions.indices
    return sum(1 for p in memory.pairs if p.sources & banned)


def config_digest(cfg: StepConfig) -> str:
    text = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def _b64(a: np.ndarray) -> str:
    return base64.b64encode(np.asarray(a, dtype="<f8").tobytes()).decode("ascii")


def _unb64(blob: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(blob, validate=True), dtype="<f8").copy()


def snapshot(state: OptimizerState, cfg: StepConfig) -> str:
    """Versioned text snapshot preserving every float bit-exactly."""
    doc = {
        "version": SNAPSHOT_VERSION,
        "config_digest": config_digest(cfg),
        "step": state.step,
        "w": _b64(state.w),
        "memory": {
            "tau": state.memory.tau,
            "gamma0": state.memory.gamma0,
            "gamma_mode": state.memory.gamma_mode,
            "pairs": [
                {
                    "s": _b64(p.s),
                    "y": _b64(p.y),
                    "sources": sorted(p.sources),
                    "created_at": p.created_at,
                }
                for p in state.memory.pairs
            ],
        },
    }
    return json.dumps(doc, sort_keys=True)


def restore(text: str) -> OptimizerState:
    """Rebuild the state a `snapshot` text holds; malformed text raises InvalidConfig."""
    try:
        doc = json.loads(text)
        version = doc.get("version") if isinstance(doc, dict) else None
        if version != SNAPSHOT_VERSION:
            raise InvalidConfig(f"unsupported snapshot version {version!r}")
        w = _unb64(doc["w"])
        mem_doc = doc["memory"]
        memory = MemoryState(
            tau=int(mem_doc["tau"]),
            gamma0=float(mem_doc["gamma0"]),
            gamma_mode=mem_doc["gamma_mode"],
        )
        for p in mem_doc["pairs"]:
            s, y = _unb64(p["s"]), _unb64(p["y"])
            if s.shape != w.shape or y.shape != w.shape:
                raise InvalidConfig(f"malformed snapshot: a pair vector is not {w.size} long")
            memory.push(
                CurvaturePair(
                    s=s,
                    y=y,
                    sources=frozenset(int(i) for i in p["sources"]),
                    created_at=int(p["created_at"]),
                )
            )
        return OptimizerState(w=w, memory=memory, step=int(doc["step"]))
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise InvalidConfig(f"malformed snapshot: {exc!r}") from exc
