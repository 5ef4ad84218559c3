"""The two-loop kernel against a dense-matrix oracle and the recursion, plus state mechanics."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statealign.errors import InvalidConfig
from statealign.olbfgs import (
    LaneBank,
    StepConfig,
    advance,
    direct_mass,
    initial_state,
    replay,
    state_key,
    step,
    two_loop,
    _compact_two_loop,
)
from statealign.stream import (
    DeletionSet,
    Event,
    QuadraticSample,
    Regime,
    StreamConfig,
    generate_stream,
)

from helpers import dense_inverse_hessian, random_memory, recursion_two_loop


def test_two_loop_matches_dense_oracle_random_cases():
    rng = np.random.default_rng(42)
    for _ in range(30):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(0, 6))
        mem = random_memory(rng, d, n)
        q = rng.normal(size=d)
        got = two_loop(mem, q)
        if n == 0:
            np.testing.assert_array_equal(got, q)
        else:
            want = dense_inverse_hessian(mem) @ q
            np.testing.assert_allclose(got, want, atol=1e-11)


def test_two_loop_single_pair_is_exact_newton_in_1d():
    # pair (s, h*s) encodes curvature h; the two-loop must return q / h
    h = 3.7
    s = np.array([0.9])
    mem = initial_state(1, StepConfig(tau=4))
    mem.push(s, h * s, 1)
    q = np.array([2.0])
    np.testing.assert_allclose(two_loop(mem, q), q / h, rtol=1e-14)


def test_two_loop_empty_memory_is_the_identity():
    mem = initial_state(4, StepConfig(tau=4))
    q = np.array([1.0, -2.0, -0.0, np.inf])
    out = two_loop(mem, q)
    assert out.tobytes() == q.tobytes()
    assert out is not q
    # An empty lane next to filled ones, on a shared block and on its own column.
    rng = np.random.default_rng(8)
    bank = LaneBank([random_memory(rng, 4, 3, tau=4), mem, random_memory(rng, 4, 4, tau=4)])
    block = np.stack([q, np.array([np.nan, -0.0, np.inf, -np.inf])], axis=1)
    assert two_loop(bank, block)[1].tobytes() == block.tobytes()
    own = np.stack([np.ones(4), q, np.ones(4)])[:, :, None]
    assert _compact_two_loop(bank, own)[1].tobytes() == own[1].tobytes()


def test_two_loop_batched_equals_columnwise():
    rng = np.random.default_rng(7)
    mem = random_memory(rng, 5, 4)
    qmat = rng.normal(size=(5, 6))
    batched = two_loop(mem, qmat)
    for j in range(6):
        np.testing.assert_allclose(batched[:, j], two_loop(mem, qmat[:, j]), atol=1e-13)


@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
@settings(max_examples=30, deadline=None)
def test_two_loop_is_linear_in_its_argument(a, b):
    rng = np.random.default_rng(11)
    mem = random_memory(rng, 4, 3)
    q1 = rng.normal(size=4)
    q2 = rng.normal(size=4)
    lhs = two_loop(mem, a * q1 + b * q2)
    rhs = a * two_loop(mem, q1) + b * two_loop(mem, q2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_two_loop_preserves_positive_definiteness():
    rng = np.random.default_rng(3)
    for _ in range(20):
        mem = random_memory(rng, 4, 4)
        q = rng.normal(size=4)
        assert float(q @ two_loop(mem, q)) > 0.0


# -- a lane against its state alone -------------------------------------------
# Results are compared as raw bytes, so -0.0 against +0.0 counts as a
# mismatch: the inputs include signed zeros and infinities. Only a NaN's sign
# bit is let go, since a NaN prints as nan either way.

SPECIAL = (0.0, -0.0, np.inf, -np.inf)


def random_vector(rng, d, special_rate):
    v = rng.normal(size=d) * 10.0 ** rng.integers(-3, 4)
    hit = rng.random(d) < special_rate
    v[hit] = rng.choice(SPECIAL, size=int(hit.sum()))
    return v


def lane_memory(rng, d, tau, n_candidates, eps):
    """Pushes n_candidates random pairs, rejecting those with s'y <= eps as advance does."""
    mem = initial_state(d, StepConfig(tau=tau))
    for t in range(n_candidates):
        s = rng.normal(size=d)
        y = rng.normal(size=d) + rng.uniform(-1.0, 2.0) * s
        if float(s @ y) > eps:
            mem.push(s, y, t)
    return mem


def same_bits(a, b):
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and (
        a[~nan].tobytes() == b[~nan].tobytes()
    )


def random_bank(rng, lanes, d, tau):
    """Lanes whose depths vary from empty to past capacity (ring eviction);
    some candidate pairs fail the curvature test, and lane 1 is emptied."""
    memories = [
        lane_memory(rng, d, tau, int(rng.integers(0, 2 * tau + 2)), 0.1)
        for _ in range(lanes)
    ]
    if lanes > 1:
        memories[1].keep(np.zeros(tau, dtype=bool))
    return memories, LaneBank(memories)


LANE_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    lanes=st.integers(1, 5),
    d=st.integers(1, 6),
    tau=st.integers(1, 40),
    columns=st.integers(1, 4),
    special_rate=st.sampled_from([0.0, 0.3]),
)


@given(**LANE_CASES)
@settings(max_examples=150, deadline=None)
def test_lane_bank_two_loop_matches_scalar_bit_for_bit(seed, lanes, d, tau, columns, special_rate):
    """A lane's action on a shared block or column, and its direction from its
    own vector as `move` takes it, have the bits of `two_loop` on that state
    alone."""
    rng = np.random.default_rng(seed)
    memories, bank = random_bank(rng, lanes, d, tau)
    assert len(bank) == max(len(m) for m in memories)

    shared = np.stack([random_vector(rng, d, special_rate) for _ in range(columns)], axis=1)
    own = np.stack([random_vector(rng, d, special_rate) for _ in range(lanes)])
    with np.errstate(invalid="ignore", over="ignore"):
        block = two_loop(bank, shared)
        assert block.shape == (lanes, d, columns)
        vectors = two_loop(bank, shared[:, 0])
        assert vectors.shape == (lanes, d)
        directions = _compact_two_loop(bank, own[:, :, None])[:, :, 0]
        for i, mem in enumerate(memories):
            assert same_bits(block[i], two_loop(mem, shared))
            assert same_bits(vectors[i], two_loop(mem, shared[:, 0]))
            assert same_bits(directions[i], two_loop(mem, own[i]))


@given(**LANE_CASES)
@settings(max_examples=150, deadline=None)
def test_compact_action_of_a_lane_has_the_same_bits_in_any_bank(seed, lanes, d, tau, columns, special_rate):
    """A lane's action has the same bits whatever the bank's order."""
    rng = np.random.default_rng(seed)
    memories, bank = random_bank(rng, lanes, d, tau)
    shared = np.stack([random_vector(rng, d, special_rate) for _ in range(columns)], axis=1)
    order = rng.permutation(lanes)
    with np.errstate(invalid="ignore", over="ignore"):
        block = two_loop(bank, shared)
        shuffled = two_loop(LaneBank([memories[i] for i in order]), shared)
        for i in range(lanes):
            assert same_bits(block[i], shuffled[int(np.flatnonzero(order == i)[0])])


def test_a_strided_column_has_the_bits_of_its_contiguous_copy():
    # numpy's matmul takes a strided (d, 1) operand down another path than a
    # contiguous one, which at tau = 1 changes the bits in about half the cases.
    rng = np.random.default_rng(4)
    for _ in range(10):
        mem = random_memory(rng, 6, 1, tau=1)
        block = rng.normal(size=(6, 4))
        assert two_loop(mem, block[:, 0]).tobytes() == two_loop(mem, block[:, 0].copy()).tobytes()


# -- the compact form against the recursion ---------------------------------------
# two_loop evaluates the operator in compact form, so it agrees with the
# scalar recursion of `helpers.recursion_two_loop` to rounding, relative to
# the operator's norm.
COMPACT_RTOL = 1e-11


@given(
    seed=st.integers(0, 2**32 - 1),
    lanes=st.integers(1, 5),
    d=st.integers(1, 6),
    tau=st.integers(1, 40),
    columns=st.integers(1, 4),
)
@settings(max_examples=150, deadline=None)
def test_lane_bank_two_loop_matches_scalar_to_rounding(seed, lanes, d, tau, columns):
    rng = np.random.default_rng(seed)
    memories, bank = random_bank(rng, lanes, d, tau)
    shared = np.stack([random_vector(rng, d, 0.0) for _ in range(columns)], axis=1)
    block = two_loop(bank, shared)
    assert block.shape == (lanes, d, columns)
    vectors = two_loop(bank, shared[:, 0])
    assert vectors.shape == (lanes, d)
    for i, mem in enumerate(memories):
        scale = np.linalg.norm(dense_inverse_hessian(mem), 2) if len(mem) else 1.0
        bound = COMPACT_RTOL * scale * np.max(np.abs(shared))
        want = recursion_two_loop(mem, shared)
        for got in (block[i], two_loop(mem, shared)):
            assert np.max(np.abs(got - want)) <= bound
        for got in (vectors[i], two_loop(mem, shared[:, 0])):
            assert np.max(np.abs(got - want[:, 0])) <= bound
        if not len(mem):
            np.testing.assert_array_equal(block[i], shared)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("ring", ["S", "Y"])
def test_a_non_finite_lane_is_quiet_and_leaves_the_other_lanes_alone(bad, ring):
    rng = np.random.default_rng(5)
    memories = [lane_memory(rng, 4, 6, 9, 0.1) for _ in range(3)]
    probes = rng.normal(size=(4, 8))
    clean = two_loop(LaneBank(memories), probes)
    assert len(memories[1]) >= 2
    getattr(memories[1], ring)[-2, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = two_loop(LaneBank(memories), probes)
    assert not np.isfinite(got[1]).all()
    assert same_bits(got[0], clean[0]) and same_bits(got[2], clean[2])


@given(
    seed=st.integers(0, 2**16),
    tau=st.integers(1, 40),
    logistic=st.booleans(),
    curvature_eps=st.sampled_from([1e-10, 1e-3, 1e-2]),
)
@settings(max_examples=30, deadline=None)
def test_lane_bank_move_matches_advance_bit_for_bit(seed, tau, logistic, curvature_eps):
    regime = Regime.LOGISTIC if logistic else Regime.QUADRATIC
    scfg = StreamConfig(
        dimension=4, length=120, deletion_time=60, horizon=50, regime=regime, ridge=0.01
    )
    cfg = StepConfig(eta=0.2, tau=tau, curvature_eps=curvature_eps)
    events = generate_stream(scfg, seed).events
    trained = replay(initial_state(4, cfg), events[:60], cfg)
    reset = trained.clone()
    reset.keep(np.zeros(tau, dtype=bool))
    short = replay(initial_state(4, cfg), events[50:60], cfg)
    lanes = [trained, reset, short, initial_state(4, cfg)]
    bank = LaneBank(lanes)
    accepted = rejected = 0
    for e in events[60:]:
        losses, directions = bank.move(e, cfg)
        for i, lane in enumerate(lanes):
            lanes[i], info = advance(lane, e, cfg)
            accepted += info.pair_accepted
            rejected += not info.pair_accepted
            assert losses[i] == info.loss
            assert same_bits(directions[i], info.direction)
            assert same_bits(bank.w[i], lanes[i].w)
            assert bank.depth[i] == len(lanes[i])
            assert (bank.src[i] == lanes[i].src).all()
            assert (bank.src[i, : tau - len(lanes[i])] == -1).all()
            assert same_bits(bank.S[i], lanes[i].S) and same_bits(bank.Y[i], lanes[i].Y)
        # A bank built from the stepped states holds the moved bank's bits.
        rebuilt = LaneBank(lanes)
        for name in ("w", "S", "Y", "src", "gamma", "depth"):
            assert same_bits(getattr(rebuilt, name), getattr(bank, name)), name
    assert accepted > 0
    assert len(bank) == max(len(lane) for lane in lanes)


def test_lane_bank_rejects_lanes_with_different_memory_settings():
    a = initial_state(3, StepConfig(tau=4))
    b = initial_state(3, StepConfig(tau=5))
    with pytest.raises(InvalidConfig, match="lanes must share"):
        LaneBank([a, b])


# -- memory mechanics --------------------------------------------------------

def test_memory_evicts_oldest_beyond_tau():
    rng = np.random.default_rng(0)
    mem = random_memory(rng, 3, 5, tau=3)
    assert len(mem) == 3
    # random_memory tags pair k with source t, t increasing
    assert mem.src.tolist() == sorted(mem.src.tolist())
    assert (mem.src >= 0).all()


def test_keep_compacts_the_kept_pairs_right_aligned_in_order():
    mem = initial_state(2, StepConfig(tau=5))
    for t in range(1, 4):
        s = np.array([1.0, float(t)])
        mem.push(s, 2.0 * s, t)
    mem.keep(mem.src != 2)
    assert mem.src.tolist() == [-1, -1, -1, 1, 3]
    np.testing.assert_array_equal(mem.S[3:], [[1.0, 1.0], [1.0, 3.0]])
    np.testing.assert_array_equal(mem.Y[3:], 2.0 * mem.S[3:])
    assert not mem.S[:3].any() and not mem.Y[:3].any()
    assert len(mem) == 2


def test_direct_mass_counts_source_overlap_for_a_state_and_a_bank():
    mem = initial_state(2, StepConfig(tau=4))
    for t in range(1, 5):
        s = np.array([1.0, float(t)])
        mem.push(s, s, t)
    ds = DeletionSet(indices=frozenset({2, 4, 9}))
    assert direct_mass(mem, ds) == 2
    empty = DeletionSet(indices=frozenset())
    assert direct_mass(mem, empty) == 0
    bank = LaneBank([mem, initial_state(2, StepConfig(tau=4))])
    assert direct_mass(bank, ds).tolist() == [2, 0]


def test_step_config_validation():
    with pytest.raises(InvalidConfig):
        StepConfig(eta=0.0)
    with pytest.raises(InvalidConfig):
        StepConfig(tau=0)
    with pytest.raises(InvalidConfig):
        StepConfig(curvature_eps=-1.0)


# -- advancing ----------------------------------------------------------------

CFG = StepConfig(eta=0.1, tau=5)
STREAM_CFG = StreamConfig(dimension=6, length=40, deletion_time=20, horizon=10)


def test_advance_accepts_pair_and_tracks_provenance():
    strm = generate_stream(STREAM_CFG, seed=1)
    state = initial_state(6, CFG)
    state, info = advance(state, strm.events[0], CFG)
    assert info.pair_accepted
    assert len(state) == 1
    assert state.src[-1] == strm.events[0].index


def test_advance_rejects_flat_curvature():
    # zero Hessian gives zero gradient, so s = 0 and the pair must be refused
    flat = Event(
        index=1, time=1,
        payload=QuadraticSample(hessian=np.zeros((2, 2)), minimizer=np.zeros(2)),
    )
    state = initial_state(2, StepConfig(eta=0.1, tau=3))
    state2, info = advance(state, flat, StepConfig(eta=0.1, tau=3))
    assert not info.pair_accepted
    assert len(state2) == 0
    np.testing.assert_array_equal(state2.w, state.w)


def test_step_returns_advanced_state_only():
    strm = generate_stream(STREAM_CFG, seed=2)
    state = initial_state(6, CFG)
    via_advance, _ = advance(state, strm.events[0], CFG)
    via_step = step(state, strm.events[0], CFG)
    assert state_key(via_advance) == state_key(via_step)


def test_replay_is_deterministic_and_order_sensitive():
    strm = generate_stream(STREAM_CFG, seed=5)
    events = strm.prefix(20)
    a = replay(initial_state(6, CFG), events, CFG)
    b = replay(initial_state(6, CFG), events, CFG)
    assert state_key(a) == state_key(b)

    reordered = [events[1], events[0], *events[2:]]
    c = replay(initial_state(6, CFG), reordered, CFG)
    assert not np.array_equal(a.w, c.w)


def test_replay_descent_on_static_quadratic():
    cfg = StreamConfig(
        dimension=6, length=40, deletion_time=20, horizon=10,
        drift_amplitude=0.0, drift_noise=0.0, center_scale=1.0,
    )
    strm = generate_stream(cfg, seed=3)
    state = initial_state(6, CFG)
    target = strm.events[0].payload.minimizer
    start_gap = float(np.linalg.norm(state.w - target))
    end = replay(state, list(strm.events), CFG)
    assert float(np.linalg.norm(end.w - target)) < 0.02 * start_gap


@pytest.mark.parametrize("key", ["eta", "curvature_eps"])
def test_step_config_rejects_non_finite_values(key):
    for value in (float("nan"), float("inf")):
        with pytest.raises(InvalidConfig, match=key):
            StepConfig(**{key: value})


def test_clone_isolates_mutation():
    strm = generate_stream(STREAM_CFG, seed=9)
    state = replay(initial_state(6, CFG), strm.prefix(5), CFG)
    twin = state.clone()
    twin.w[0] += 1.0
    assert state.w[0] != twin.w[0]
    twin.keep(np.zeros(CFG.tau, dtype=bool))
    assert len(state) > 0
