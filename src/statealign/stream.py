"""Synthetic event streams for online learning with deletions.

Two regimes are supported. The quadratic regime emits per-event losses
l(w) = 0.5 (w - a_t)' H_t (w - a_t) with a slowly rotating minimizer a_t
and optional curvature drift. The logistic regime emits ridge-regularized
logistic losses on Gaussian features with a drifting teacher vector.

Streams are insert-only; deletions are requested afterwards through a
DeletionSet and applied by editing history. Generation is deterministic:
the same (config, seed) produces bit-identical events.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatch,
    InsufficientHistory,
    InvalidConfig,
    MissingGradState,
)

# Salt mixed into the sub-seed for the random deletion mode so the draw is
# independent of the generator's own stream of draws.
_DELETION_SEED_TAG = 0x64656C


class Regime(Enum):
    QUADRATIC = "quadratic"
    LOGISTIC = "logistic"


class DeletionMode(Enum):
    RECENT = "recent"
    OLD = "old"
    RANDOM = "random"
    HIGH_GRADIENT = "high_gradient"


@dataclass(frozen=True, slots=True)
class QuadraticSample:
    """One quadratic loss event: hessian H_t and minimizer a_t."""

    hessian: np.ndarray
    minimizer: np.ndarray


@dataclass(frozen=True, slots=True)
class LogisticSample:
    """One logistic loss event: feature vector, a +1/-1 label and the ridge level."""

    features: np.ndarray
    label: int
    ridge: float


SamplePayload = QuadraticSample | LogisticSample


@dataclass(frozen=True, slots=True)
class Event:
    """One inserted sample: its stream index, its arrival time and its loss.

    Events are never removed in-band; a deletion is a DeletionSet of
    indices, applied to a history by `edit_history`.
    """

    index: int
    time: int
    payload: SamplePayload

    def __post_init__(self) -> None:
        if self.index < 0:
            raise InvalidConfig("event index must be non-negative")


@dataclass(frozen=True)
class DeletionSet:
    """Indices requested for removal."""

    indices: frozenset[int]

    def __len__(self) -> int:
        return len(self.indices)


def require_finite(cfg) -> None:
    """Reject a NaN or infinite float field of a config dataclass."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidConfig(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class StreamConfig:
    """Generator knobs for both regimes.

    Drift follows a_t = a_0 + delta_a sin(2 pi t / P_a) u1
    + delta_a cos(2 pi t / P_a) u2 + sigma_a xi_t, with u1, u2 random
    orthonormal directions fixed per stream. Curvature interpolates
    H_t = (1 - alpha_t) H_0 + alpha_t H_1 with
    alpha_t = (curvature_drift / 2) (1 + sin(2 pi t / P_H)); the logistic
    feature covariance interpolates the same way. The logistic teacher is
    beta_t = beta_0 + label_drift * sin(2 pi t / P_beta) v.

    center_scale scales the random draw of a_0 (quadratic) and beta_0
    (logistic); zero pins both at the origin. A config checks itself when
    it is built: an invalid one raises InvalidConfig.
    """

    regime: Regime = Regime.QUADRATIC
    dimension: int = 25
    length: int = 5000
    condition_number: float = 10.0
    mu: float = 1.0
    drift_amplitude: float = 0.5
    drift_period: float = 200.0
    drift_noise: float = 0.01
    curvature_drift: float = 0.0
    curvature_period: float = 500.0
    ridge: float = 0.05
    label_drift: float = 0.5
    label_period: float = 500.0
    center_scale: float = 1.0
    deletion_mode: DeletionMode = DeletionMode.RECENT
    deletion_size: int = 5
    deletion_time: int = 500
    horizon: int = 4500

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        require_finite(self)
        if self.dimension < 1:
            raise InvalidConfig("dimension must be >= 1")
        if self.length < 1:
            raise InvalidConfig("length must be >= 1")
        if self.mu <= 0:
            raise InvalidConfig("mu must be > 0")
        if self.condition_number < 1:
            raise InvalidConfig("condition_number must be >= 1")
        if not math.isfinite(self.condition_number * self.mu):
            raise InvalidConfig(
                f"condition_number * mu must be finite, got {self.condition_number!r} * {self.mu!r}"
            )
        if self.drift_period <= 0 or self.curvature_period <= 0 or self.label_period <= 0:
            raise InvalidConfig("drift periods must be > 0")
        if self.drift_amplitude < 0 or self.drift_noise < 0 or self.label_drift < 0:
            raise InvalidConfig("drift amplitudes must be >= 0")
        if not 0.0 <= self.curvature_drift <= 1.0:
            raise InvalidConfig("curvature_drift must lie in [0, 1]")
        if self.regime is Regime.LOGISTIC and self.ridge <= 0:
            raise InvalidConfig("logistic ridge must be > 0")
        if self.deletion_size < 0:
            raise InvalidConfig("deletion_size must be >= 0")
        if not 1 <= self.deletion_time <= self.length:
            raise InvalidConfig("deletion_time must lie in [1, length]")
        if self.horizon < 0:
            raise InvalidConfig(f"horizon must be >= 0, got {self.horizon}")
        if self.deletion_time + self.horizon > self.length:
            raise InvalidConfig("deletion_time + horizon must not exceed length")
        if self.deletion_size > self.deletion_time:
            raise InvalidConfig("deletion_size exceeds events before deletion_time")


@dataclass
class EventStream:
    events: list[Event]
    seed: int

    def prefix(self, t: int) -> list[Event]:
        """Events with time <= t (generated streams are one event per time)."""
        return self.events[:t]

    def future(self, t: int, horizon: int) -> list[Event]:
        return self.events[t : t + horizon]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _random_basis(rng: np.random.Generator, d: int, cols: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d, max(cols, 1))))
    if q.shape[1] < cols:  # more directions than dimensions: pad with zeros
        q = np.hstack([q, np.zeros((d, cols - q.shape[1]))])
    return q[:, :cols]


def _spd_from_spectrum(rng: np.random.Generator, d: int, mu: float, kappa: float) -> np.ndarray:
    """Random SPD matrix with eigenvalues log-uniform on [mu, kappa*mu].

    Both interval endpoints are forced into the spectrum so the condition
    number is exact rather than approximate.
    """
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = np.exp(rng.uniform(math.log(mu), math.log(kappa * mu), size=d))
    eigs[0] = mu
    if d > 1:
        eigs[1] = kappa * mu
    m = (basis * eigs) @ basis.T
    return 0.5 * (m + m.T)


def _curvature_alpha(cfg: StreamConfig, t: int) -> float:
    return 0.5 * cfg.curvature_drift * (1.0 + math.sin(2.0 * math.pi * t / cfg.curvature_period))


def gen_quadratic_stream(config: StreamConfig, seed: int) -> EventStream:
    """Insert-only quadratic stream of `length` events at times 1..T."""
    d = config.dimension
    rng = np.random.default_rng(seed)

    h0 = _spd_from_spectrum(rng, d, config.mu, config.condition_number)
    h1 = _spd_from_spectrum(rng, d, config.mu, config.condition_number)
    dirs = _random_basis(rng, d, 2)
    u1, u2 = dirs[:, 0], dirs[:, 1]
    a0 = config.center_scale * rng.standard_normal(d)

    drifting = config.curvature_drift > 0.0
    h_static = _freeze(h0.copy())

    events: list[Event] = []
    for t in range(1, config.length + 1):
        phase = 2.0 * math.pi * t / config.drift_period
        xi = rng.standard_normal(d)
        a_t = (
            a0
            + config.drift_amplitude * math.sin(phase) * u1
            + config.drift_amplitude * math.cos(phase) * u2
            + config.drift_noise * xi
        )
        if drifting:
            alpha = _curvature_alpha(config, t)
            # Both ends have their spectrum in [mu, kappa*mu], so by Weyl's
            # inequality every convex combination keeps it there.
            h_t = _freeze((1.0 - alpha) * h0 + alpha * h1)
        else:
            h_t = h_static
        payload = QuadraticSample(hessian=h_t, minimizer=_freeze(a_t))
        events.append(Event(index=t, time=t, payload=payload))

    return EventStream(events=events, seed=seed)


def _expit(x: float) -> float:
    """The logistic sigmoid of a float, bit for bit scipy.special.expit's."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def gen_logistic_stream(config: StreamConfig, seed: int) -> EventStream:
    """Insert-only logistic stream; labels are +1/-1 drawn from the teacher."""
    d = config.dimension
    rng = np.random.default_rng(seed)

    sigma0 = _spd_from_spectrum(rng, d, config.mu, config.condition_number)
    sigma1 = _spd_from_spectrum(rng, d, config.mu, config.condition_number)
    v = _random_basis(rng, d, 1)[:, 0]
    beta0 = config.center_scale * rng.standard_normal(d)

    drifting = config.curvature_drift > 0.0
    chol_static = np.linalg.cholesky(sigma0)

    events: list[Event] = []
    for t in range(1, config.length + 1):
        if drifting:
            alpha = _curvature_alpha(config, t)
            chol = np.linalg.cholesky((1.0 - alpha) * sigma0 + alpha * sigma1)
        else:
            chol = chol_static
        x_t = chol @ rng.standard_normal(d)
        beta_t = beta0 + config.label_drift * math.sin(2.0 * math.pi * t / config.label_period) * v
        p_plus = _expit(float(x_t @ beta_t))
        label = 1 if rng.uniform() < p_plus else -1
        payload = LogisticSample(features=_freeze(x_t), label=label, ridge=config.ridge)
        events.append(Event(index=t, time=t, payload=payload))

    return EventStream(events=events, seed=seed)


def generate_stream(config: StreamConfig, seed: int) -> EventStream:
    if config.regime is Regime.QUADRATIC:
        return gen_quadratic_stream(config, seed)
    return gen_logistic_stream(config, seed)


def dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, leading axes broadcast: shape (...).

    Each is a stacked (1, d) @ (d, 1) matmul, which numpy takes through the
    same BLAS dot as a 1-D `a @ b`, so every entry has that product's bits.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def loss_and_grad(payload: SamplePayload, w: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Per-event loss and gradient at w; a logistic loss adds its payload's ridge term.

    w is one (d,) parameter vector, whose loss is a Python float, or a
    stack of them over leading axes, such as a bank's (lanes, d) rows,
    whose losses are an array of the leading shape. Each row gets the bits
    of its own 1-D call: products are stacked matmuls (a quadratic event's
    H r is one gemv per row), and a logistic event's sigmoid and softplus
    stay scalar math per row, since numpy's vectorised exp may round
    differently.
    """
    if isinstance(payload, QuadraticSample):
        if w.shape[-1:] != payload.minimizer.shape:
            raise DimensionMismatch("parameter/minimizer shapes differ")
        r = w - payload.minimizer
        grad = (payload.hessian @ r[..., None])[..., 0]
        loss = 0.5 * dots(r, grad)
    else:
        x, y, ridge = payload.features, payload.label, payload.ridge
        if w.shape[-1:] != x.shape:
            raise DimensionMismatch("parameter/feature shapes differ")
        z = dots(w, x)
        rows = [(float(np.logaddexp(0.0, -y * zi)), -y * _expit(-y * zi)) for zi in np.ravel(z).tolist()]
        softplus, scale = np.array(rows).T.reshape(2, *z.shape)
        loss = softplus + 0.5 * ridge * dots(w, w)
        grad = scale[..., None] * x + ridge * w
    return (float(loss) if w.ndim == 1 else loss), grad


def loss_hessian(payload: SamplePayload, w: np.ndarray) -> np.ndarray:
    """Per-event loss Hessian at w (used by the Newton-style intervention)."""
    if isinstance(payload, QuadraticSample):
        return payload.hessian
    x = payload.features
    z = float(x @ w)
    p = _expit(z)
    return p * (1.0 - p) * np.outer(x, x) + payload.ridge * np.eye(x.shape[0])


def select_deletion_set(
    stream: EventStream,
    t_del: int,
    mode: DeletionMode,
    size: int,
    grad_state: np.ndarray | None = None,
) -> DeletionSet:
    """Pick `size` event indices from the prefix at time t_del.

    Recent/Old take the largest/smallest event times. Random draws
    uniformly without replacement from a sub-seed derived from
    (stream seed, t_del), so it does not disturb the generator draws.
    HighGradient ranks events by gradient norm at the supplied parameter
    vector, breaking ties toward smaller time.
    """
    candidates = stream.prefix(t_del)
    if size > len(candidates):
        raise InsufficientHistory(
            f"requested {size} deletions but only {len(candidates)} events exist"
        )
    if mode is DeletionMode.RECENT:
        chosen = candidates[-size:] if size else []
    elif mode is DeletionMode.OLD:
        chosen = candidates[:size]
    elif mode is DeletionMode.RANDOM:
        sub = np.random.default_rng(
            np.random.SeedSequence((stream.seed, t_del, _DELETION_SEED_TAG))
        )
        picks = sub.choice(len(candidates), size=size, replace=False) if size else []
        chosen = [candidates[int(i)] for i in picks]
    elif mode is DeletionMode.HIGH_GRADIENT:
        if grad_state is None:
            raise MissingGradState("high_gradient mode needs the parameter vector at t_del")
        ranked = sorted(
            candidates,
            key=lambda e: (-float(np.linalg.norm(loss_and_grad(e.payload, grad_state)[1])), e.time),
        )
        chosen = ranked[:size]
    else:  # pragma: no cover - exhaustive enum
        raise InvalidConfig(f"unknown deletion mode {mode}")
    return DeletionSet(indices=frozenset(e.index for e in chosen))


def edit_history(prefix: list[Event], deletions: DeletionSet) -> list[Event]:
    """Order-preserving copy of prefix without events whose index is deleted."""
    if not deletions.indices:
        return list(prefix)
    banned = deletions.indices
    return [e for e in prefix if e.index not in banned]
