"""Reference implementations shared by the test modules.

Kept out of the `test_*` modules, so that a module that fails to import
takes none of the others' tests with it.
"""

import mpmath
import numpy as np

from statealign.olbfgs import StepConfig, initial_state
from statealign.stream import QuadraticSample, _expit


def mp_sigma(alpha, epsilon, delta):
    """Gaussian-mechanism noise scale evaluated at 50 decimal digits."""
    with mpmath.workdps(50):
        a = mpmath.mpf(repr(alpha))
        e = mpmath.mpf(repr(epsilon))
        d = mpmath.mpf(repr(delta))
        return float(a * mpmath.sqrt(2 * mpmath.log(mpmath.mpf("1.25") / d)) / e)


def same_bits(a, b) -> bool:
    """Equal shapes and bytes, except that a NaN's sign bit is let go.

    numpy's add returns either operand when both are NaN, by where the
    element falls in its SIMD loop, and a NaN prints as nan either way.
    """
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and (
        a[~nan].tobytes() == b[~nan].tobytes()
    )


def scalar_loss_and_grad(payload, w):
    """The loss and gradient of one (d,) vector in scalar form: the reference
    that every row of a stacked `loss_and_grad` call matches bit for bit."""
    if isinstance(payload, QuadraticSample):
        r = w - payload.minimizer
        hr = payload.hessian @ r
        return 0.5 * float(r @ hr), hr
    x, y, ridge = payload.features, payload.label, payload.ridge
    z = float(x @ w)
    loss = float(np.logaddexp(0.0, -y * z)) + 0.5 * ridge * float(w @ w)
    grad = (-y * _expit(-y * z)) * x + ridge * w
    return loss, grad


def dense_inverse_hessian(state) -> np.ndarray:
    """Brute-force inverse-Hessian estimate built by the textbook recursion.

    Starts from gamma * I, gamma = s'y / y'y of the newest pair, and applies
    every stored pair oldest to newest:
    M <- (I - rho s y^T) M (I - rho y s^T) + rho s s^T.
    """
    first = len(state.src) - len(state)
    S, Y = state.S[first:], state.Y[first:]
    d = state.w.size
    gamma = float(S[-1] @ Y[-1]) / float(Y[-1] @ Y[-1])
    m = gamma * np.eye(d)
    for s, y in zip(S, Y):
        rho = 1.0 / float(s @ y)
        left = np.eye(d) - rho * np.outer(s, y)
        m = left @ m @ left.T + rho * np.outer(s, s)
    return m


def recursion_two_loop(state, q):
    """The textbook two-loop recursion (Nocedal 1980) on a state: the differential reference.

    q is (d,) or (d, m). Pairs are walked newest to oldest and back, from
    gamma * I with gamma = s'y / y'y of the newest pair; empty memory
    returns a copy of q.
    """
    single = q.ndim == 1
    qq = np.array(q[:, None] if single else q, dtype=np.float64)
    n = len(state)
    if not n:
        return qq[:, 0] if single else qq
    pairs = list(zip(state.S[-n:], state.Y[-n:]))  # oldest first

    stack = []
    for s, y in reversed(pairs):
        rho = 1.0 / float(s @ y)
        alpha = rho * (s @ qq)
        qq -= y[:, None] * alpha[None, :]
        stack.append((s, y, rho, alpha))

    s, y = pairs[-1]
    r = (float(s @ y) / float(y @ y)) * qq
    for s, y, rho, alpha in reversed(stack):
        beta = rho * (y @ r)
        r += s[:, None] * (alpha - beta)[None, :]
    return r[:, 0] if single else r


def random_memory(rng, d, n_pairs, tau=8):
    """A state with zero w and n_pairs random pairs of positive curvature pushed."""
    mem = initial_state(d, StepConfig(tau=tau))
    made = 0
    t = 0
    while made < n_pairs:
        t += 1
        s = rng.normal(size=d)
        y = rng.normal(size=d)
        if float(s @ y) <= 1e-3:
            continue
        mem.push(s, y, t)
        made += 1
    return mem
