"""Deviation bounds and noise calibration for deletion certificates.

Under a rho-contractive update map, the gap between two optimizer states
driven by the same events obeys a one-step recursion
Delta_{t+1} <= rho Delta_t + eta_t eps_t, whose closed form this module
evaluates. Calibrating Gaussian noise to a deviation level alpha gives an
(eps, delta)-style indistinguishability certificate; the contraction
factor itself is estimated empirically from perturbed steps of states a
run reaches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, InvalidPrivacyParams, InvalidRho, LengthMismatch
from .metrics import state_gaps
from .olbfgs import LaneBank, OptimizerState, StepConfig
from .stream import Event

# Size of the contraction trials' perturbation, relative to max(1, ||w||).
PERTURB_SCALE = 1e-4


@dataclass(frozen=True)
class BoundInputs:
    """Ingredients of the deviation recursion.

    perturbations[s] is the product eta_s * eps_s injected at step s; pass
    zeros for a pure deletion gap with no later edits.
    """

    rho: float
    delta0: float
    perturbations: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < 1.0:
            raise InvalidRho(f"rho must lie in (0, 1), got {self.rho}")
        if self.delta0 < 0:
            raise InvalidConfig("delta0 must be >= 0")
        if any(p < 0 for p in self.perturbations):
            raise InvalidConfig("perturbations must be >= 0")


@dataclass(frozen=True)
class Certificate:
    """Noise level sigma achieving (epsilon, delta + beta) at deviation alpha.

    beta is the probability mass on which the deviation bound itself may
    fail; exact (alpha = 0) certificates need no noise.
    """

    alpha: float
    sigma: float
    epsilon: float
    delta: float
    beta: float = 0.0

    @property
    def exact(self) -> bool:
        return self.alpha == 0.0


def deviation_bound(inputs: BoundInputs, steps: int) -> float:
    """Closed-form gap bound after `steps` shared events.

    Delta_k <= rho^k Delta_0 + sum_{s<k} rho^{k-1-s} perturbations[s].
    """
    if steps < 0:
        raise InvalidConfig("steps must be >= 0")
    if len(inputs.perturbations) != steps:
        raise LengthMismatch(
            f"need {steps} perturbation entries, got {len(inputs.perturbations)}"
        )
    total = inputs.delta0 * inputs.rho**steps
    for s, p in enumerate(inputs.perturbations):
        total += inputs.rho ** (steps - 1 - s) * p
    return total


def deviation_bound_trace(inputs: BoundInputs) -> list[float]:
    """One-step recursion iterate: [Delta_0, Delta_1, ..., Delta_n]."""
    out = [inputs.delta0]
    for p in inputs.perturbations:
        out.append(inputs.rho * out[-1] + p)
    return out


def calibrate_sigma(alpha: float, epsilon: float, delta: float) -> float:
    """Smallest Gaussian noise scale masking a deviation of size alpha.

    sigma = alpha * sqrt(2 ln(1.25 / delta)) / epsilon; zero deviation
    needs zero noise.
    """
    if not 0.0 <= alpha < math.inf:
        raise InvalidPrivacyParams("alpha must be finite and >= 0")
    if not 0.0 < epsilon < math.inf:
        raise InvalidPrivacyParams("epsilon must be finite and > 0")
    if not 0.0 < delta < 1.0:
        raise InvalidPrivacyParams("delta must lie in (0, 1)")
    if alpha == 0.0:
        return 0.0
    return alpha * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def certificate(alpha: float, epsilon: float, delta: float, beta: float = 0.0) -> Certificate:
    if not 0.0 <= beta < math.inf:
        raise InvalidPrivacyParams("beta must be finite and >= 0")
    return Certificate(
        alpha=alpha,
        sigma=calibrate_sigma(alpha, epsilon, delta),
        epsilon=epsilon,
        delta=delta,
        beta=beta,
    )


def _perturbed_copy(state: OptimizerState, rng: np.random.Generator) -> OptimizerState:
    out = state.clone()
    d = out.w.shape[0]
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    delta = PERTURB_SCALE * max(1.0, float(np.linalg.norm(out.w)))
    out.w = out.w + delta * u
    # Oldest pair first, s before y; a pair whose jittered s'y is not > 0 stays as it was.
    for j in np.flatnonzero(out.src >= 0):
        js = out.S[j] + delta * 1e-2 * rng.standard_normal(d)
        jy = out.Y[j] + delta * 1e-2 * rng.standard_normal(d)
        if float(js @ jy) > 0.0:
            out.S[j], out.Y[j] = js, jy
    return out


def empirical_contraction(
    trials: list[tuple[OptimizerState, Event]],
    cfg: StepConfig,
    rng: np.random.Generator,
    probes: np.ndarray,
    memory_weight: float = 1.0,
) -> float:
    """Worst observed one-step expansion ratio of the update map; >= 1 flags non-contraction.

    Each trial perturbs its base state with draws from `rng`, in order, and
    steps both copies, the two lanes of one LaneBank, with its event; the
    ratio is the combined state error (`metrics.state_gaps` on that bank)
    after over before, its memory term measured on the (d, count) probe
    matrix. A trial whose perturbation reads as no error is skipped. nan
    when any trial's ratio is nan (a diverged trial), wherever it falls.
    """
    if not trials:
        raise InvalidConfig("contraction estimation needs at least one trial")
    ratios: list[float] = []
    for state, event in trials:
        bank = LaneBank([state, _perturbed_copy(state, rng)])
        # E_theta of the perturbed lane against the base lane.
        before = state_gaps(bank, probes, memory_weight)[2][1]
        if before == 0.0:
            continue
        bank.move(event, cfg)
        after = state_gaps(bank, probes, memory_weight)[2][1]
        ratios.append(float(after / before))
    if not ratios:
        raise InvalidConfig("all contraction trials were degenerate")
    return float(np.max(ratios))
