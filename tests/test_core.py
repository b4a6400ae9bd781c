"""Fixed-rate learner: OMD step objective, state updates, rate schedule."""

import math

import numpy as np
import pytest

from barrons.adaptive import default_eta
from barrons.core import (
    BarronsState,
    barrons_init,
    barrons_step,
    omd_step_objective,
)
from barrons.domain import MarketRound, ProblemDims, uniform_portfolio
from grid_oracle import step_values

DIMS = ProblemDims(2, 16)


def bregman_divergence(x, y, cov, beta, eta) -> float:
    """Reference: the divergence of the mixed quadratic/log-barrier regularizer.

    Equals ``beta/2 (x-y)' cov (x-y) + sum_i (1/eta_i) h(x_i/y_i)`` with
    ``h(z) = z - 1 - log z``.  Nonnegative, zero iff ``x == y`` (for
    positive definite ``cov``; the barrier part alone is already zero only
    at equal points).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("divergence needs strictly positive coordinates")
    d = x - y
    z = d / y
    quad = 0.5 * beta * float(d @ np.asarray(cov) @ d)
    return quad + float((1.0 / np.asarray(eta)) @ (z - np.log1p(z)))


def numeric_gradient(f, x, h=1e-7):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def test_init_state_shape():
    state = barrons_init(DIMS, 0.5, default_eta(DIMS))
    np.testing.assert_array_equal(state.x, [0.5, 0.5])
    np.testing.assert_array_equal(state.cov, 2.0 * np.eye(2))
    assert np.all(state.eta == state.eta_base)


def test_init_validation():
    with pytest.raises(ValueError, match="beta"):
        barrons_init(DIMS, 0.0, 1e-4)
    with pytest.raises(ValueError, match="beta"):
        barrons_init(DIMS, 0.6, 1e-4)
    with pytest.raises(ValueError, match=r"^eta must lie in \(0, 1\]"):
        barrons_init(DIMS, 0.5, 0.0)


def test_step_objective_zero_at_anchor():
    x_prev = np.array([0.5, 0.5])
    grad = np.array([-4.0 / 3.0, -2.0 / 3.0])
    cov = 2.0 * np.eye(2) + np.outer(grad, grad)
    obj = omd_step_objective(grad, cov, x_prev, 0.5, np.full(2, default_eta(DIMS)))
    assert obj.evaluate(x_prev) == 0.0
    np.testing.assert_allclose(obj.gradient(x_prev), grad, atol=1e-15)


def test_step_objective_derivatives_consistent():
    rng = np.random.default_rng(2)
    for _ in range(25):
        x_prev = rng.dirichlet(np.full(3, 3.0)) * 0.9 + 0.1 / 3.0
        grad = -rng.uniform(0.5, 3.0, 3)
        cov = 3.0 * np.eye(3) + np.outer(grad, grad)
        eta = rng.uniform(1e-5, 1e-3, 3)
        obj = omd_step_objective(grad, cov, x_prev, 0.4, eta)
        x = x_prev * rng.uniform(0.9, 1.1, 3)
        x /= x.sum()
        np.testing.assert_allclose(
            obj.gradient(x), numeric_gradient(obj.evaluate, x), rtol=2e-4, atol=2e-4
        )
        hess_col = numeric_gradient(lambda p: obj.gradient(p)[0], x)
        np.testing.assert_allclose(obj.hessian(x)[0], hess_col, rtol=2e-4, atol=2e-4)


def test_step_objective_batch_matches_scalar():
    rng = np.random.default_rng(4)
    x_prev = np.array([0.4, 0.6])
    grad = np.array([-2.0, -0.5])
    cov = 2.0 * np.eye(2) + np.outer(grad, grad)
    eta = np.array([1e-4, 2e-4])
    obj = omd_step_objective(grad, cov, x_prev, 0.5, eta)
    pts = rng.dirichlet(np.ones(2), size=40) * 0.9 + 0.05
    batch = step_values(grad, cov, x_prev, 0.5, eta)(pts)
    single = np.array([obj.evaluate(p) for p in pts])
    np.testing.assert_allclose(batch, single, rtol=1e-12, atol=1e-12)


def test_step_objective_is_the_linearized_loss_plus_the_divergence():
    rng = np.random.default_rng(6)
    for n in (2, 5, 20):
        x_prev = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
        grad = -rng.uniform(0.5, 3.0, n)
        cov = n * np.eye(n) + np.outer(grad, grad)
        eta = rng.uniform(1e-5, 1e-3, n)
        obj = omd_step_objective(grad, cov, x_prev, 0.4, eta)
        for x in rng.dirichlet(np.ones(n), size=10) * 0.9 + 0.1 / n:
            want = float(grad @ (x - x_prev)) + bregman_divergence(x, x_prev, cov, 0.4, eta)
            assert obj.evaluate(x) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_bregman_known_value():
    # With identity rates and no quadratic part the divergence collapses to
    # sum of h(x_i/y_i) with h(z) = z - 1 - log z.
    got = bregman_divergence(
        np.array([0.6, 0.4]), np.array([0.5, 0.5]), np.zeros((2, 2)), 0.5, np.ones(2)
    )
    assert got == pytest.approx(-math.log(0.96), abs=1e-15)


def test_bregman_zero_iff_equal():
    x = np.array([0.3, 0.7])
    cov = 2.0 * np.eye(2)
    assert bregman_divergence(x, x, cov, 0.5, np.full(2, 1e-4)) == 0.0


def test_bregman_nonnegative_everywhere():
    rng = np.random.default_rng(8)
    for _ in range(10000):
        n = 2 if rng.uniform() < 0.5 else 3
        x = rng.dirichlet(np.ones(n)) + 1e-6
        y = rng.dirichlet(np.ones(n)) + 1e-6
        g = rng.normal(0.0, 2.0, n)
        cov = n * np.eye(n) + np.outer(g, g)
        eta = rng.uniform(1e-6, 1.0, n)
        assert bregman_divergence(x, y, cov, 0.5, eta) >= 0.0


def test_bregman_rejects_nonpositive_points():
    with pytest.raises(ValueError, match="positive"):
        bregman_divergence(
            np.array([0.0, 1.0]), np.array([0.5, 0.5]), np.eye(2), 0.5, np.ones(2)
        )


def test_step_charges_loss_at_current_play():
    state = barrons_init(DIMS, 0.5, default_eta(DIMS))
    loss, grad = barrons_step(state, MarketRound(np.array([1.0, 0.5])))
    assert loss == pytest.approx(-math.log(0.75), abs=1e-15)
    np.testing.assert_allclose(grad, [-4.0 / 3.0, -2.0 / 3.0], atol=1e-15)
    # The state absorbed exactly this one round.
    np.testing.assert_array_equal(state.cov, 2.0 * np.eye(2) + np.outer(grad, grad))


def test_covariance_accumulates_observed_outer_products():
    state = barrons_init(DIMS, 0.5, default_eta(DIMS))
    rng = np.random.default_rng(10)
    grads = []
    for _ in range(12):
        raw = rng.uniform(0.2, 1.0, 2)
        raw[rng.integers(2)] = 1.0
        grads.append(barrons_step(state, MarketRound(raw))[1])
    want = 2.0 * np.eye(2)
    for g in grads:
        want = want + np.outer(g, g)
    np.testing.assert_allclose(state.cov, want, rtol=0.0, atol=1e-12)
    eigmin = float(np.linalg.eigvalsh(state.cov).min())
    assert eigmin >= 2.0 - 1e-9


def test_rate_schedule_recomputable_and_monotone():
    # eta_t,i = eta_base * exp(max over played points of log_t 1/(n x_s,i)),
    # nondecreasing round over round and confined to [eta_base, e*eta_base].
    dims = ProblemDims(2, 64)
    state = barrons_init(dims, 0.5, default_eta(dims))
    rng = np.random.default_rng(12)
    prev_eta = state.eta.copy()
    plays = []
    for _ in range(40):
        raw = rng.uniform(0.1, 1.0, 2)
        raw[rng.integers(2)] = 1.0
        plays.append(state.x)
        barrons_step(state, MarketRound(raw))
        played = np.stack(plays)
        log_max = np.log(1.0 / (dims.n * played)) / math.log(dims.t)
        want = state.eta_base * np.exp(np.clip(log_max, 0.0, None).max(axis=0))
        np.testing.assert_allclose(state.eta, want, rtol=1e-12)
        assert np.all(state.eta >= prev_eta - 1e-18)
        assert np.all(state.eta <= math.e * state.eta_base * (1.0 + 1e-12))
        prev_eta = state.eta.copy()


def test_flat_market_keeps_uniform_play():
    state = barrons_init(DIMS, 0.5, default_eta(DIMS))
    flat = MarketRound(np.ones(2))
    for _ in range(10):
        loss, _ = barrons_step(state, flat)
        assert loss == 0.0
        np.testing.assert_allclose(state.x, [0.5, 0.5], atol=1e-9)


def test_step_rejects_unnormalized_and_mismatched_rounds():
    state = barrons_init(DIMS, 0.5, default_eta(DIMS))
    with pytest.raises(ValueError, match="assets"):
        barrons_step(state, MarketRound(np.array([1.0, 0.5, 0.2])))


def test_step_rejects_unnormalized_duck_typed_round():
    # MarketRound refuses unnormalized vectors itself; anything else with an
    # ``r`` attribute reaches the step's own check, which must hold under -O.
    class RawRound:
        r = np.array([0.5, 0.25])

    state = barrons_init(DIMS, 0.5, default_eta(DIMS))
    with pytest.raises(ValueError, match="normalized"):
        barrons_step(state, RawRound())
    np.testing.assert_array_equal(state.x, [0.5, 0.5])
    np.testing.assert_array_equal(state.cov, 2.0 * np.eye(2))


def test_identical_runs_are_bit_identical():
    plays = []
    for _ in range(2):
        state = barrons_init(DIMS, 0.5, default_eta(DIMS))
        rng = np.random.default_rng(99)
        hist = []
        for _ in range(12):
            raw = rng.uniform(0.2, 1.0, 2)
            raw[rng.integers(2)] = 1.0
            barrons_step(state, MarketRound(raw))
            hist.append(state.x.tobytes())
        plays.append(hist)
    assert plays[0] == plays[1]
