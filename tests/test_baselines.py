"""Reference learners and the hindsight constant-rebalanced portfolio."""

import math

import numpy as np
import pytest

from barrons.baselines import (
    EgLearner,
    OgdLearner,
    OnsLearner,
    SoftBayesLearner,
    UpGridLearner,
    best_crp,
    eg_step,
    ogd_step,
    project_simplex,
    soft_bayes_step,
)
from barrons.core import omd_step_objective
from barrons.domain import MarketRound, ProblemDims, uniform_portfolio
from barrons.markets import MarketSpec, generate
from barrons.solver import Objective
from grid_oracle import step_values

DIMS = ProblemDims(2, 16)


def ons_objective(grad_t, cov, x_prev, beta) -> Objective:
    """Reference: linearized loss plus the covariance quadratic, the online Newton step's objective."""
    half_beta = 0.5 * beta

    def value(x):
        d = x - x_prev
        return float(grad_t @ d + half_beta * (d @ cov @ d))

    def gradient(x):
        return grad_t + beta * (cov @ (x - x_prev))

    def hessian(x):
        return beta * cov

    return Objective(value, gradient, hessian)


def universal_portfolio_grid(rounds, resolution: float):
    """Reference: the wealth-weighted mean of two-asset CRPs on a grid, as plays and total loss."""
    ticks = int(round(1.0 / resolution))
    a = np.arange(ticks + 1) / ticks
    grid = np.column_stack([a, 1.0 - a])
    wealth = np.ones(len(grid))
    plays = []
    total_loss = 0.0
    for rnd in rounds:
        x = wealth @ grid / wealth.sum()
        plays.append(x)
        total_loss += -np.log(float(x @ rnd.r))
        wealth = wealth * (grid @ rnd.r)
        wealth /= wealth.max()
    return np.array(plays), float(total_loss)


def random_market(rng, dims: ProblemDims):
    raw = np.exp(0.3 * rng.standard_normal((dims.t, dims.n)))
    raw /= raw.max(axis=1, keepdims=True)
    return [MarketRound(row) for row in raw]


def test_project_simplex_clips_negative_mass():
    np.testing.assert_allclose(project_simplex(np.array([1.2, -0.2])), [1.0, 0.0], atol=1e-15)


def test_project_simplex_properties():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        v = rng.normal(0.0, 2.0, n)
        p = project_simplex(v)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert p.min() >= 0.0
        np.testing.assert_allclose(project_simplex(p), p, atol=1e-12)


def test_eg_step_known_value():
    out = eg_step(np.array([0.5, 0.5]), np.array([-1.0, 0.0]), 1.0)
    e = math.e
    np.testing.assert_allclose(out, [e / (e + 1.0), 1.0 / (e + 1.0)], rtol=1e-15)


def test_soft_bayes_step_known_value():
    out = soft_bayes_step(np.array([0.5, 0.5]), np.array([1.0, 0.5]), 0.5)
    np.testing.assert_allclose(out, [7.0 / 12.0, 5.0 / 12.0], rtol=1e-15)


def test_ogd_step_known_value():
    out = ogd_step(np.array([0.5, 0.5]), np.array([-0.7, 0.7]), 1.0)
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)


def test_multiplicative_updates_preserve_the_simplex():
    # One round of each update must keep the weights summing to one to
    # within accumulation noise.
    rng = np.random.default_rng(19)
    x = np.full(3, 1.0 / 3.0)
    y = x.copy()
    for _ in range(500):
        r = rng.uniform(0.05, 1.0, 3)
        r[rng.integers(3)] = 1.0
        g = -r / float(x @ r)
        before = x.sum()
        x = eg_step(x, g, 0.05)
        assert abs(x.sum() - before) <= 1e-12
        before = y.sum()
        y = soft_bayes_step(y, r, 0.05)
        assert abs(y.sum() - before) <= 1e-12


def test_ons_objective_derivatives_consistent():
    rng = np.random.default_rng(23)
    g = np.array([-2.0, -0.5])
    cov = 2.0 * np.eye(2) + np.outer(g, g)
    x_prev = np.array([0.5, 0.5])
    obj = omd_step_objective(g, cov, x_prev, 0.5)
    for _ in range(10):
        x = rng.dirichlet(np.ones(2))
        h = 1e-7
        num = np.zeros(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            num[i] = (obj.evaluate(x + e) - obj.evaluate(x - e)) / (2.0 * h)
        np.testing.assert_allclose(obj.gradient(x), num, rtol=1e-5, atol=1e-5)
    pts = rng.dirichlet(np.ones(2), size=20)
    np.testing.assert_allclose(
        step_values(g, cov, x_prev, 0.5)(pts), [obj.evaluate(p) for p in pts], rtol=1e-12
    )


@pytest.mark.parametrize("n", (2, 5, 20))
def test_step_objective_without_rates_is_bitwise_the_ons_objective(n):
    rng = np.random.default_rng(n)
    x_prev = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
    g = -rng.uniform(0.5, 3.0, n)
    cov = n * np.eye(n) + np.outer(g, g)
    got, want = omd_step_objective(g, cov, x_prev, 0.5), ons_objective(g, cov, x_prev, 0.5)
    pts = rng.dirichlet(np.ones(n), size=20) * 0.9 + 0.1 / n
    for x in pts:
        assert got.evaluate(x) == want.evaluate(x)
        assert got.gradient(x).tobytes() == want.gradient(x).tobytes()
        assert got.hessian(x).tobytes() == want.hessian(x).tobytes()


@pytest.mark.parametrize("make, message", [
    *[(lambda v=v: OnsLearner(beta=v), "beta must be finite and positive") for v in (np.nan, np.inf, 0.0, -1.0)],
    *[(lambda v=v: EgLearner(eta=v), "eta must be finite and positive, or None") for v in (np.nan, np.inf, 0.0, -1.0)],
    *[(lambda v=v: EgLearner(g_est=v), "g_est must be finite and positive, or None") for v in (np.nan, np.inf, 0.0, -1.0)],
    *[(lambda v=v: OgdLearner(eta=v), "eta must be finite and positive, or None") for v in (np.nan, np.inf, 0.0, -0.5)],
    *[(lambda v=v: SoftBayesLearner(eta=v), r"eta must lie in \(0, 1\], or be None") for v in (np.nan, np.inf, 0.0, 2.0)],
], ids=[f"{name}={v}" for name in ("ons-beta", "eg-eta", "eg-g_est", "ogd-eta") for v in ("nan", "inf", "0", "neg")]
    + [f"softbayes-eta={v}" for v in ("nan", "inf", "0", "2")])
def test_learner_settings_outside_their_range_raise(make, message):
    with pytest.raises(ValueError, match=f"^{message}, got"):
        make()


def test_learner_settings_at_the_edge_of_their_range_are_accepted():
    assert SoftBayesLearner(eta=1.0).eta_fixed == 1.0
    assert EgLearner(eta=None, g_est=None).g_est is None
    assert OgdLearner().eta_fixed is None and OnsLearner(beta=1e-300).beta == 1e-300


def test_up_grid_keeps_every_portfolio_in_play_past_underflow():
    # Blowup at n=2, T=4096 with one flip at round 1536: wealths kept as numbers underflow to zero for the
    # portfolios that lose the first regime, and the mixture then beat every CRP by 148.8 nats.  A mixture
    # of CRPs on the full simplex loses at most T*log1p(-n*floor) less than the best clipped CRP.
    dims = ProblemDims(2, 4096)
    rounds = generate(MarketSpec("blowup", dims, params={"flip_period": 1536}))
    learner = UpGridLearner().start(dims)
    total = sum(learner.step(rnd)[1] for rnd in rounds)
    _, crp_loss = best_crp(rounds, dims)
    assert total - crp_loss >= dims.t * np.log1p(-dims.n * dims.floor) - 1e-6


def test_learner_constructor_validation():
    with pytest.raises(ValueError, match="beta"):
        OnsLearner(beta=0.0)
    with pytest.raises(ValueError, match="mix"):
        OnsLearner(mix=1.0)
    with pytest.raises(ValueError, match="mix"):
        EgLearner(mix=-0.1)


def test_ons_flat_market_stays_uniform():
    learner = OnsLearner().start(DIMS)
    flat = MarketRound(np.ones(2))
    for _ in range(6):
        played, loss = learner.step(flat)
        assert loss == 0.0
        np.testing.assert_allclose(played, [0.5, 0.5], atol=1e-9)


def test_ons_mix_blends_played_point_toward_uniform():
    learner = OnsLearner(mix=0.5).start(DIMS)
    learner.x = np.array([0.9, 0.1])
    played, _ = learner.step(MarketRound(np.array([1.0, 1.0])))
    np.testing.assert_allclose(played, [0.7, 0.3], atol=1e-15)


def test_eg_default_rate_uses_worst_case_gradient_bound():
    learner = EgLearner().start(DIMS)
    want = math.sqrt(math.log(2.0) / 16.0) / (2.0 * 16.0)
    assert learner.eta == pytest.approx(want, rel=1e-12)
    capped = EgLearner(mix=0.5).start(DIMS)
    assert capped.eta == pytest.approx(math.sqrt(math.log(2.0) / 16.0) / 4.0, rel=1e-12)


def test_best_crp_cover_market_even_money():
    dims = ProblemDims(2, 16)
    rounds = generate(MarketSpec("cover_alternating", dims))
    crp, total_loss = best_crp(rounds, dims)
    np.testing.assert_allclose(crp, [0.5, 0.5], atol=1e-5)
    assert not crp.flags.writeable
    # Per pair of normalized rounds the even-money wealth factor is 9/16.
    assert total_loss == pytest.approx(8.0 * math.log(16.0 / 9.0), rel=1e-9)


def test_best_crp_dominates_a_fine_grid():
    rng = np.random.default_rng(29)
    dims = ProblemDims(2, 24)
    for _ in range(5):
        rounds = random_market(rng, dims)
        crp, total_loss = best_crp(rounds, dims)
        r_mat = np.stack([r.r for r in rounds])
        a = np.linspace(dims.floor, 1.0 - dims.floor, 10001)
        grid = np.column_stack([a, 1.0 - a])
        grid_losses = -np.log(grid @ r_mat.T).sum(axis=1)
        assert total_loss <= grid_losses.min() + 1e-4


def test_best_crp_clipping_costs_under_two_nats():
    # The clipped-simplex optimum can lose to the best full-simplex CRP,
    # but never by more than the comparator-smoothing allowance.
    rng = np.random.default_rng(31)
    dims = ProblemDims(2, 24)
    for _ in range(5):
        rounds = random_market(rng, dims)
        _, total_loss = best_crp(rounds, dims)
        r_mat = np.stack([r.r for r in rounds])
        a = np.linspace(0.0, 1.0, 10001)
        grid = np.column_stack([a, 1.0 - a])
        with np.errstate(divide="ignore"):
            full_losses = -np.log(grid @ r_mat.T).sum(axis=1)
        assert total_loss <= full_losses.min() + 2.0


def test_best_crp_rejects_width_mismatch():
    with pytest.raises(ValueError, match="assets"):
        best_crp([np.array([1.0, 0.5, 0.2])], DIMS)


def test_learner_regret_mild_on_benign_markets():
    # On markets without gradient blowups every baseline stays within a
    # couple of nats of the best clipped CRP at this scale.
    rng = np.random.default_rng(37)
    dims = ProblemDims(2, 64)
    markets = {
        "constant": generate(MarketSpec("constant", dims)),
        "cover_alternating": generate(MarketSpec("cover_alternating", dims)),
        "iid_lognormal": generate(MarketSpec("iid_lognormal", dims, seed=3)),
    }
    learners = [
        OnsLearner(),
        EgLearner(),
        OgdLearner(),
        SoftBayesLearner(),
        UpGridLearner(),
    ]
    for name, rounds in markets.items():
        _, crp_loss = best_crp(rounds, dims)
        for learner in learners:
            learner.start(dims)
            total = 0.0
            for rnd in rounds:
                _, loss = learner.step(rnd)
                total += loss
            assert total - crp_loss >= -2.0, f"{learner.name} on {name}"


def test_universal_portfolio_grid_known_shape():
    dims = ProblemDims(2, 8)
    rounds = generate(MarketSpec("cover_alternating", dims))
    plays, total_loss = universal_portfolio_grid(rounds, 0.01)
    assert plays.shape == (8, 2)
    np.testing.assert_allclose(plays[0], [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(plays.sum(axis=1), np.ones(8), atol=1e-12)
    assert np.isfinite(total_loss)


def test_universal_portfolio_grid_rejects_high_dimensions():
    with pytest.raises(ValueError, match="2 or 3 assets"):
        UpGridLearner(resolution=0.05).start(ProblemDims(4, 8))


def test_up_grid_learner_matches_offline_quadrature():
    dims = ProblemDims(2, 12)
    rounds = generate(MarketSpec("iid_lognormal", dims, seed=5))
    learner = UpGridLearner(resolution=0.01).start(dims)
    online = 0.0
    plays = []
    for rnd in rounds:
        played, loss = learner.step(rnd)
        online += loss
        plays.append(played)
    offline_plays, offline_loss = universal_portfolio_grid(rounds, 0.01)
    np.testing.assert_allclose(np.array(plays), offline_plays, atol=1e-12)
    assert online == pytest.approx(offline_loss, rel=1e-12)
