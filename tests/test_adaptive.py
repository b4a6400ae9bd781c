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
from barrons.baselines import best_crp
from barrons.domain import MarketRound, ProblemDims, uniform_portfolio
from barrons.markets import MarketSpec, generate
from barrons.solver import minimize_over_clipped_simplex
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


@pytest.mark.parametrize("n", (2, 5, 20, 50, 100))
def test_a_lone_leader_ceiling_is_bitwise_its_row_of_a_block(n):
    # The controller passes its latest leader alone, and the checker a block of an epoch's leaders.  Each
    # leader alone, with the rows it saw, must give the bits of its row of the block, where NaN and infinite
    # entries sit in the leaders and in the gradients.
    rng = np.random.default_rng(900 + n)
    m = 40
    grads = -rng.uniform(0.01, 1.0, (m, n)) * np.linspace(0.02, 20.0, m)[:, None]  # gaps grow
    xs = rng.dirichlet(np.ones(n), size=m)
    leaders = rng.dirichlet(np.ones(n), size=m)
    for k, value in zip((5, 9, 13), (np.nan, np.inf, -np.inf)):
        leaders[k, rng.integers(n)] = value
    for k, value in zip((30, 35), (np.inf, np.nan)):
        grads[k, rng.integers(n)] = value
    with np.errstate(all="ignore"):
        xg = np.add.reduce(xs * grads, axis=1)
        block = epoch_ceiling(grads, xg, leaders)
        alone = [epoch_ceiling(grads[: k + 1], xg[: k + 1], leaders[k : k + 1]) for k in range(m)]
    assert all(len(ceiling) == 1 and type(ceiling[0]) is float for ceiling in alone)
    assert np.array([c[0] for c in alone]).tobytes() == np.array(block).tobytes()
    assert 0.5 in block and min(block) < 0.5 and np.isnan(block).any()  # both branches of the cap, and NaN


def test_epoch_history_rows_are_the_appended_rounds():
    # The relatives are kept once: `rounds` is the transposed view of the one epoch-major buffer, whose
    # rows stay contiguous as the buffer grows, and a cleared history reuses it.
    rng = np.random.default_rng(23)
    n = 3
    history = EpochHistory(2, n)  # doubles to 4, then to 8
    for length in (7, 5):  # a second epoch after a clear reuses the grown buffers
        appended = []
        for _ in range(length):
            r = rng.uniform(0.01, 1.0, n)
            history.append(r, rng.dirichlet(np.ones(n)), -r)
            appended.append(r)
            rounds = history.rounds
            assert len(history) == len(appended)
            assert rounds.shape == (len(appended), n) and np.array_equal(rounds, np.stack(appended))
            assert np.shares_memory(rounds, history._rows)
            assert rounds.T.base is history._rows and np.array_equal(rounds.T, history._rows[:, : len(appended)])
            assert rounds.T.strides[1] == rounds.itemsize  # contiguous rows
        history.clear()
        assert history.rounds.shape == (0, n) and len(history) == 0
    assert set(vars(history)) == {"_rows", "_g", "_xg", "size", "hessian"}  # no second copy of the relatives


def _epoch_history(rng, n: int, m: int) -> EpochHistory:
    """A history of m random rounds at n, grown from a capacity of 4 so its rows are longer than m."""
    history = EpochHistory(4, n)
    for _ in range(m):
        r = rng.uniform(0.05, 1.0, n)
        r[rng.integers(n)] = 1.0
        history.append(r, np.full(n, 1.0 / n), -r)
    return history


@pytest.mark.parametrize("n", (2, 5, 20, 50, 100))
def test_leader_wealths_are_taken_in_the_layout_given(n):
    # The controller's history gives the wealths np.matmul(u, rows) over its held rows, and an array of rounds,
    # C- or Fortran-ordered, np.dot(rounds, u) over a C-ordered copy; the two may differ in their last bits.
    rng = np.random.default_rng(60 + n)
    gamma = 1.0 / 25.0
    history = _epoch_history(rng, n, 3 * n + 7)
    r_mat = np.ascontiguousarray(history.rounds)
    u = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
    for obj, wealth in ((history.leader_objective(gamma), np.matmul(u, history.rounds.T)),
                        (leader_objective(r_mat, gamma), np.dot(r_mat, u)),
                        (leader_objective(np.asfortranarray(r_mat), gamma), np.dot(r_mat, u)),
                        (leader_objective(history.rounds, gamma), np.dot(r_mat, u))):
        value = float(-np.log(wealth).sum() - (1.0 / gamma) * np.log(u).sum())
        gradient = -np.ascontiguousarray(r_mat.T / wealth).sum(axis=1) - (1.0 / gamma) / u
        assert np.float64(obj.evaluate(u)).tobytes() == np.float64(value).tobytes()
        assert obj.gradient(u).tobytes() == gradient.tobytes()


@pytest.mark.parametrize("n", (2, 5, 50))
def test_a_fortran_ordered_array_keeps_the_best_crp_bits(n):
    # best_crp stacks its rounds C-ordered; the same rounds in Fortran order, or as the history's transposed
    # view, give the leader (gamma = 1e9, as best_crp fits it) and its Hessian the same bits.
    rng = np.random.default_rng(70 + n)
    dims = ProblemDims(n, 4 * n + 9)
    history = _epoch_history(rng, n, dims.t)
    r_mat = np.ascontiguousarray(history.rounds)
    weights, _ = best_crp(list(r_mat), dims)
    u = uniform_portfolio(dims)
    want = leader_objective(r_mat, 1e9).hessian(u).tobytes()
    for given in (np.asfortranarray(r_mat), history.rounds):
        assert regularized_leader(given, 1e9, u, dims).tobytes() == regularized_leader(r_mat, 1e9, u, dims).tobytes()
        assert minimize_over_clipped_simplex(leader_objective(given, 1e9), u, dims).tobytes() == weights.tobytes()
        assert leader_objective(given, 1e9).hessian(u).tobytes() == want


def _blocked_hessian(rows, wealth, u, gamma, block):
    # The in-order sum of the (n, n) products of blocks of `block` rounds, then the barrier's diagonal.  Each
    # product is np.dot of a block's view of the scaled rows: @ or a contiguous copy of a block may round
    # differently.
    scaled = rows / wealth
    parts = [scaled[:, lo : lo + block] for lo in range(0, scaled.shape[1], block)]
    h = np.dot(parts[0], parts[0].T)
    for part in parts[1:]:
        h = h + np.dot(part, part.T)
    return h + np.diag((1.0 / gamma) / (u * u))


@pytest.mark.parametrize("n, m, block", [(2, 1, 1), (2, 300, 300), (5, 2048, 2048), (20, 1310, 1310), (50, 2048, 2048),
                                         (96, 300, 300), (97, 55, 55), (97, 300, 55), (100, 458, 52)])
def test_leader_hessian_is_one_product_up_to_96_assets_and_a_block_sum_above(n, m, block):
    # Up to 96 assets the Hessian is the single product however long the epoch; above, blocks of
    # floor(2^19 / n^2) rounds (55 at n=97, 52 at n=100) are summed in order, and an epoch of one block is
    # the single product.  The held rows and a round-major array sum alike.
    rng = np.random.default_rng(80 + n + m)
    gamma = 1.0 / 25.0
    history = _epoch_history(rng, n, m)
    r_mat = np.ascontiguousarray(history.rounds)
    u = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
    for obj, wealth in ((history.leader_objective(gamma), np.matmul(u, history.rounds.T)),
                        (leader_objective(r_mat, gamma), np.dot(r_mat, u))):
        want = _blocked_hessian(history.rounds.T, wealth, u, gamma, block)
        assert obj.hessian(u).tobytes() == want.tobytes()


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
