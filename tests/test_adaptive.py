"""Restart controller: leader fits, curvature ceiling, epoch bookkeeping."""

import math

import numpy as np
import pytest

from barrons.adaptive import (
    AdaConfig,
    EpochBudgetError,
    EpochHistory,
    ada_init,
    ada_step,
    alpha,
    default_eta,
    epoch_budget,
    epoch_ceiling,
    leader_objective,
    regularized_leader,
)
from barrons.domain import MarketRound, ProblemDims, uniform_portfolio
from barrons.markets import MarketSpec, generate
from grid_oracle import leader_values

DIMS = ProblemDims(2, 64)


def test_default_eta_formula():
    dims = ProblemDims(2, 256)
    assert default_eta(dims) == pytest.approx(
        1.0 / (2048.0 * 2.0 * math.log(256.0) ** 2), rel=1e-15
    )
    assert default_eta(dims) <= 1.0 / 300.0


def test_epoch_budget_values():
    assert epoch_budget(ProblemDims(2, 256)) == 15
    assert epoch_budget(ProblemDims(5, 1024)) == 19


def test_config_resolve_defaults_and_validation():
    cfg = AdaConfig().resolve(DIMS)
    assert cfg.beta == 0.5
    assert cfg.gamma == 1.0 / 25.0
    assert cfg.eta == default_eta(DIMS)
    with pytest.raises(ValueError, match=r"^beta must lie in \(0, 1/2\]"):
        AdaConfig(beta=0.75).resolve(DIMS)
    with pytest.raises(ValueError, match=r"^gamma must lie in \(0, 1/25\]"):
        AdaConfig(gamma=0.2).resolve(DIMS)
    with pytest.raises(ValueError, match=r"^eta must lie in \(0, 1/300\]"):
        AdaConfig(eta=0.01).resolve(DIMS)


def test_alpha_known_values():
    x = np.array([0.5, 0.5])
    u = np.array([0.75, 0.25])
    # Largest |<u - x, g>| of 1/6 leaves the cap at its 1/2 ceiling.
    a = alpha(u, np.stack([x]), np.stack([np.array([-2.0 / 3.0, 0.0])]))
    assert a == 0.5
    # 12.8 pushes it to 1/(8 * 12.8).
    a = alpha(u, np.stack([x]), np.stack([np.array([-51.2, 0.0])]))
    assert a == pytest.approx(1.0 / 102.4, rel=1e-15)


def test_alpha_ignores_exactly_zero_inner_products():
    x = np.array([0.5, 0.5])
    a = alpha(x, np.stack([x]), np.stack([np.array([-1.0, -1.0])]))
    assert a == 0.5


def test_alpha_never_below_its_floor():
    rng = np.random.default_rng(6)
    dims = ProblemDims(3, 50)
    lo = 1.0 / (16.0 * dims.n * dims.t)
    for _ in range(300):
        u = rng.dirichlet(np.ones(3)) * (1.0 - 3.0 * dims.floor) + dims.floor
        xs = rng.dirichlet(np.ones(3), size=7) * (1.0 - 3.0 * dims.floor) + dims.floor
        rs = rng.uniform(0.0, 1.0, (7, 3))
        rs[np.arange(7), rng.integers(0, 3, 7)] = 1.0
        grads = -rs / (xs * rs).sum(axis=1, keepdims=True)
        a = alpha(u, xs, grads)
        assert lo - 1e-15 <= a <= 0.5


def test_leader_objective_derivatives_consistent():
    rng = np.random.default_rng(14)
    r_mat = rng.uniform(0.1, 1.0, (6, 3))
    r_mat[np.arange(6), rng.integers(0, 3, 6)] = 1.0
    obj = leader_objective(r_mat, 1.0 / 25.0)
    for _ in range(10):
        u = rng.dirichlet(np.full(3, 2.0)) * 0.9 + 0.1 / 3.0

        def value(p):
            return obj.evaluate(p)

        g_num = np.zeros(3)
        h = 1e-7
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            g_num[i] = (value(u + e) - value(u - e)) / (2.0 * h)
        np.testing.assert_allclose(obj.gradient(u), g_num, rtol=3e-4, atol=3e-4)
    pts = rng.dirichlet(np.ones(3), size=30) * 0.9 + 0.1 / 3.0
    np.testing.assert_allclose(
        leader_values(r_mat, 1.0 / 25.0)(pts), [obj.evaluate(p) for p in pts], rtol=1e-12
    )


def test_leader_on_flat_rounds_is_uniform():
    dims = ProblemDims(3, 20)
    rounds = np.ones((5, 3))
    u = regularized_leader(rounds, 1.0 / 25.0, uniform_portfolio(dims), dims)
    np.testing.assert_allclose(u, np.full(3, 1.0 / 3.0), atol=1e-10)
    assert not u.flags.writeable


def test_leader_input_validation():
    dims = ProblemDims(2, 16)
    warm = uniform_portfolio(dims)
    with pytest.raises(ValueError, match="at least one round"):
        regularized_leader(np.ones((0, 2)), 1.0 / 25.0, warm, dims)
    with pytest.raises(ValueError, match="price relatives"):
        regularized_leader(np.ones((3, 4)), 1.0 / 25.0, warm, dims)


def test_leader_stays_off_the_faces():
    # The barrier keeps the leader away from the boundary even when one
    # asset dominates every round.
    dims = ProblemDims(2, 32)
    rounds = np.tile(np.array([1.0, 0.05]), (12, 1))
    u = regularized_leader(rounds, 1.0 / 25.0, uniform_portfolio(dims), dims)
    assert u.min() > 5.0 * dims.floor


def test_ada_init_opens_first_epoch_uniform():
    state = ada_init(DIMS)
    assert state.epoch == 1
    assert state.beta == 0.5
    np.testing.assert_array_equal(state.inner.x, [0.5, 0.5])
    assert state.u is None and state.history.size == 0


def test_ada_restart_mechanics_on_regime_flip():
    # The gradient scale jumps at the flip; the ceiling drops below beta
    # and the controller must restart at least once, halving beta and
    # reopening from uniform with the solved step discarded.
    state = ada_init(DIMS)
    restarts = 0
    in_epoch = 0  # rounds the current epoch has played
    for rnd in generate(MarketSpec("blowup", DIMS)):
        loss, _, restarted = ada_step(state, rnd)
        assert np.isfinite(loss)
        in_epoch = 0 if restarted else in_epoch + 1
        assert state.history.size == in_epoch
        if restarted:
            restarts += 1
            assert state.u is None
            np.testing.assert_array_equal(state.inner.cov, DIMS.n * np.eye(DIMS.n))
            np.testing.assert_array_equal(state.inner.x, [0.5, 0.5])
        assert state.beta == 0.5 ** state.epoch
        assert state.last_alpha is not None
        assert 1.0 / (16.0 * DIMS.n * DIMS.t) - 1e-15 <= state.last_alpha <= 0.5
    assert restarts >= 1
    assert state.epoch == 1 + restarts
    assert state.epoch <= epoch_budget(DIMS)


def test_ada_no_restart_on_flat_market():
    state = ada_init(DIMS)
    flat = MarketRound(np.ones(2))
    for _ in range(8):
        _, _, restarted = ada_step(state, flat)
        assert not restarted
    assert state.epoch == 1
    np.testing.assert_allclose(state.inner.x, [0.5, 0.5], atol=1e-9)


def test_epoch_budget_violation_raises():
    state = ada_init(DIMS)
    ada_step(state, MarketRound(np.array([1.0, 0.5])))
    # Surgery: pretend the budget is already spent and the epoch just
    # opened, then force a ceiling violation on the next round.
    state.epoch = epoch_budget(DIMS)
    state.beta = 1.0
    with pytest.raises(EpochBudgetError, match="budget"):
        ada_step(state, MarketRound(np.array([1.0, 0.5])))


@pytest.mark.parametrize("n", (2, 3, 5, 20))
def test_epoch_history_is_bitwise_its_method_formulas(n):
    # append and ceiling call the ufuncs' reduce directly; ndarray.sum and ndarray.max call the same.
    # The ceiling's reference is the gemv over the stacked gradients, NaN and inf rows included.
    rng = np.random.default_rng(700 + n)
    history = EpochHistory(8, n)
    xs, grads = [], []
    for trial in range(30):
        x = rng.dirichlet(np.ones(n))
        r = rng.uniform(0.01, 1.0, n)
        r[rng.integers(n)] = 1.0
        g = -r / float(x @ r)
        if trial in (20, 25):  # a NaN or infinite gradient entry
            g[rng.integers(n)] = np.nan if trial == 20 else np.inf
        with np.errstate(invalid="ignore"):
            history.append(r, x, g)
        xs.append(x)
        grads.append(g)
        u = rng.dirichlet(np.ones(n))
        xg = np.array([(x_s * g_s).sum() for x_s, g_s in zip(xs, grads)])
        assert history._xg[: len(xs)].tobytes() == xg.tobytes()
        with np.errstate(invalid="ignore"):
            largest = float(np.abs(np.stack(grads) @ u - xg).max(initial=0.0))
            want = 0.5 if largest <= 0.25 else 1.0 / (8.0 * largest)
            assert np.float64(history.ceiling(u)).tobytes() == np.float64(want).tobytes()


def test_epoch_history_ceiling_matches_alpha():
    rng = np.random.default_rng(17)
    n = 3
    history = EpochHistory(4, n)  # outgrows its capacity twice
    xs, grads = [], []
    for _ in range(13):
        x = rng.dirichlet(np.ones(n))
        r = rng.uniform(0.01, 1.0, n)
        r[rng.integers(n)] = 1.0
        g = -r / float(x @ r)
        history.append(r, x, g)
        xs.append(x)
        grads.append(g)
        u = rng.dirichlet(np.ones(n))
        want = alpha(u, np.stack(xs), np.stack(grads))
        assert history.ceiling(u) == pytest.approx(want, rel=1e-12)
        # Also at a played point, whose own row contributes exactly zero.
        assert history.ceiling(x) == pytest.approx(alpha(x, np.stack(xs), np.stack(grads)), rel=1e-12)
    np.testing.assert_array_equal(history.rounds[-1], r)
    assert len(history.rounds) == 13
    history.clear()
    assert history.rounds.shape == (0, n) and history.ceiling(u) == 0.5


@pytest.mark.parametrize("n", (2, 5, 20, 50, 100))
@pytest.mark.parametrize("length", (1, 63, 64, 65, 200))
def test_epoch_ceiling_blocks_are_bitwise_the_per_round_ceilings(n, length):
    # An epoch cut into calls of at most 64 leaders, as the trace checker cuts a long epoch into
    # blocks: a lone leader, one call short by one, exactly one call, one call and one more, and
    # several.  The reference takes each round alone: a gemv over the rows its leader saw, the max,
    # then the cap.  NaN, infinite and 1e300 entries sit in the leaders and in the epoch's last
    # gradients, as the tampers put them; a bad gradient poisons only the ceilings from its round on.
    block = 64
    rng = np.random.default_rng(100 * n + length)
    grads = -rng.uniform(0.01, 1.0, (length, n)) * np.linspace(0.2, 20.0, length)[:, None]  # gaps grow
    xs = rng.dirichlet(np.ones(n), size=length)
    leaders = rng.dirichlet(np.ones(n), size=length)
    for k, value in zip((length // 5, length // 4, length // 3, length // 2), (1e300, -np.inf, np.nan, np.inf)):
        leaders[k, rng.integers(n)] = value
    for k, value in zip((length - 3, length - 2, length - 1), (-1e300, np.inf, np.nan)):
        if k > length // 2:
            grads[k, rng.integers(n)] = value
    with np.errstate(all="ignore"):
        xg = np.add.reduce(xs * grads, axis=1)
        got = []
        for lo in range(0, length, block):
            hi = min(lo + block, length)
            got += epoch_ceiling(grads[:hi], xg[:hi], leaders[lo:hi])
        want = []
        for k in range(length):
            largest = float(np.maximum.reduce(np.abs(grads[: k + 1] @ leaders[k] - xg[: k + 1]), initial=0.0))
            want.append(0.5 if largest <= 0.25 else 1.0 / (8.0 * largest))
    assert np.array(got).tobytes() == np.array(want).tobytes()
    if length > 1:  # both branches of the cap, and the poisoned ceilings
        assert 0.5 in want and min(want) < 0.5 and np.isnan(want).any()


def test_epoch_history_rows_are_the_appended_rounds():
    rng = np.random.default_rng(23)
    n = 3
    history = EpochHistory(2, n)  # doubles to 4, then to 8
    for length in (7, 5):  # a second epoch after a clear reuses the grown buffers
        appended = []
        for _ in range(length):
            r = rng.uniform(0.01, 1.0, n)
            history.append(r, rng.dirichlet(np.ones(n)), -r)
            appended.append(r)
            want = np.stack(appended)
            assert history.rows.shape == (n, len(appended))
            assert history.rows.strides[1] == history.rows.itemsize  # contiguous rows
            assert np.array_equal(history.rows, want.T)
            assert np.array_equal(history.rounds, want) and len(history.rounds) == len(appended)
        history.clear()
        assert history.rows.shape == (n, 0) and history.rounds.shape == (0, n)


def test_leader_gradient_matches_fsum():
    # Thousands of correlated terms are the worst case for sequential
    # accumulation; the gradient's pairwise row sums must stay at fsum-level
    # accuracy.  Dyadic relatives and weights make every wealth exact, so the
    # scaled terms are known to the bit and fsum gives their exact sum.
    rng = np.random.default_rng(3)
    m, gamma = 4096, 1.0 / 25.0
    u = np.array([0.25, 0.25, 0.5])
    r_mat = np.ones((m, 3))
    r_mat[::2, :2] = np.round(rng.uniform(0.0, 1.0, (m // 2, 2)) * 2.0**30) / 2.0**30
    r_mat[1::2, :2] = np.round(r_mat[::2, :2] * (1.0 - 1e-9) * 2.0**30) / 2.0**30
    scaled = r_mat / (0.25 * r_mat[:, 0] + 0.25 * r_mat[:, 1] + 0.5)[:, None]
    got = leader_objective(r_mat, gamma).gradient(u)
    want = np.array([-math.fsum(scaled[:, j]) for j in range(3)]) - (1.0 / gamma) / u
    scale = np.abs(scaled).sum(axis=0)
    assert np.abs(got - want).max() <= 1e-12 * scale.max()


def test_ada_runs_are_deterministic():
    def run_bytes():
        state = ada_init(DIMS)
        out = []
        for rnd in generate(MarketSpec("blowup", DIMS)):
            loss, _, _ = ada_step(state, rnd)
            out.append(state.inner.x.tobytes())
            out.append(np.float64(loss).tobytes())
        return out

    assert run_bytes() == run_bytes()


def _uncached_leader(r_mat, gamma):
    # The leader objective's formulas with every intermediate recomputed per call.
    inv_gamma = 1.0 / gamma

    def value(u):
        return float(-np.log(r_mat @ u).sum() - inv_gamma * np.log(u).sum())

    def gradient(u):
        p = r_mat @ u
        # The pairwise sum along contiguous memory of a transposed copy.
        return -np.ascontiguousarray((r_mat / p[:, None]).T).sum(axis=1) - inv_gamma / u

    def hessian(u):
        p = r_mat @ u
        scaled = r_mat / p[:, None]
        return scaled.T @ scaled + np.diag(inv_gamma / (u * u))

    return {"value": value, "gradient": gradient, "hessian": hessian}


@pytest.mark.parametrize("n", (2, 3, 5, 20))
def test_leader_objective_is_bitwise_its_uncached_formulas(n):
    rng = np.random.default_rng(40 + n)
    r_mat = rng.uniform(0.05, 1.0, (64, n))
    r_mat[np.arange(64), rng.integers(0, n, 64)] = 1.0
    obj = leader_objective(r_mat, 1.0 / 25.0)
    calls = {"value": obj.evaluate, "gradient": obj.gradient, "hessian": obj.hessian}
    ref = _uncached_leader(r_mat, 1.0 / 25.0)
    points = [rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n for _ in range(4)]
    u = points[0].copy()
    for _ in range(200):
        pick = rng.random()
        if pick < 0.3:
            u = points[rng.integers(len(points))].copy()  # a fresh array, maybe equal in value
        elif pick < 0.5:
            i, j = rng.choice(n, 2, replace=False)  # change the point in place
            step = 1e-3 * rng.random() * min(u[i], u[j])
            u[i] += step
            u[j] -= step
        name = rng.choice(list(calls))
        got, want = calls[name](u), ref[name](u)
        assert np.array_equal(got, want) and type(got) is type(want), name
