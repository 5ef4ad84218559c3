"""Deviation bounds and noise calibration for deletion certificates.

Under a rho-contractive update map, the gap between two optimizer states
driven by the same events obeys a one-step recursion
Delta_{t+1} <= rho Delta_t + eta_t eps_t. With no later edits (eps_t = 0)
it closes to Delta_k <= rho^k Delta_0, which this module evaluates.
Calibrating Gaussian noise to a deviation level alpha gives an
(eps, delta)-style indistinguishability certificate; the contraction
factor itself is estimated empirically from perturbed steps of states a
run reaches.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InvalidConfig, InvalidPrivacyParams
from .metrics import state_gaps
from .olbfgs import LaneBank, OptimizerState, StepConfig
from .stream import Event

# Size of the contraction trials' perturbation, relative to max(1, ||w||).
PERTURB_SCALE = 1e-4


def deviation_bound(rho: float, delta0: float, steps: int) -> float:
    """Gap bound after `steps` shared events with no later edits: delta0 * rho**steps."""
    # Python float power, not a numpy array power, whose SIMD path can round differently.
    return delta0 * rho**steps


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
