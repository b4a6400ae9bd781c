"""Shared domain types: rounds, portfolios, losses, the clipped simplex."""

import math

import numpy as np
import pytest

from barrons.domain import (
    MarketRound,
    ProblemDims,
    clipped_point,
    loss_grad_arrays,
    normalize_round,
    nudge_interior,
    uniform_portfolio,
)


def test_dims_floor_value():
    dims = ProblemDims(2, 16)
    assert dims.floor == 1.0 / 32.0


def test_dims_rejects_degenerate_shapes():
    with pytest.raises(ValueError, match="at least two assets"):
        ProblemDims(1, 10)
    with pytest.raises(ValueError, match="horizon must exceed"):
        ProblemDims(3, 3)
    with pytest.raises(ValueError, match="must be integers"):
        ProblemDims(2.5, 10)


def test_normalize_round_scales_to_unit_max():
    rnd = normalize_round(np.array([2.0, 1.0]))
    np.testing.assert_array_equal(rnd.r, [1.0, 0.5])


def test_normalize_round_rejects_bad_input():
    with pytest.raises(ValueError, match="nonnegative"):
        normalize_round(np.array([1.0, -0.1]))
    with pytest.raises(ValueError, match="strictly positive"):
        normalize_round(np.array([0.0, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        normalize_round(np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="at least two assets"):
        normalize_round(np.array([1.0]))


def test_market_round_requires_exact_unit_max():
    with pytest.raises(ValueError, match="not normalized"):
        MarketRound(np.array([0.9, 0.5]))
    rnd = MarketRound(np.array([1.0, 0.0]))
    assert rnd.r.size == 2


def test_market_round_is_immutable():
    rnd = MarketRound(np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        rnd.r[0] = 0.7


def test_loss_zero_on_flat_round():
    loss, grad = loss_grad_arrays(np.array([0.5, 0.5]), np.array([1.0, 1.0]))
    assert loss == 0.0
    np.testing.assert_array_equal(grad, [-1.0, -1.0])


def test_loss_known_value_uneven_round():
    loss, grad = loss_grad_arrays(np.array([0.5, 0.5]), np.array([1.0, 0.5]))
    assert loss == pytest.approx(0.2876820724517809, abs=1e-15)
    np.testing.assert_allclose(grad, [-4.0 / 3.0, -2.0 / 3.0], atol=1e-15)


def test_loss_at_the_floor_attains_log_nt():
    dims = ProblemDims(2, 16)
    x = clipped_point(np.array([dims.floor, 1.0 - dims.floor]), dims)
    loss, grad = loss_grad_arrays(x, np.array([1.0, 0.0]))
    assert loss == pytest.approx(math.log(32.0), abs=1e-15)
    np.testing.assert_allclose(grad, [-32.0, 0.0], atol=1e-12)


def test_loss_grad_arrays_rejects_dead_portfolio():
    with pytest.raises(ValueError, match="dead on this round"):
        loss_grad_arrays(np.array([0.0, 1.0]), np.array([1.0, 0.0]))


def test_loss_and_gradient_bounds_on_clipped_simplex():
    # Wealth of a clipped-simplex point is at least floor * max(r) = floor,
    # so losses sit below log(n t) and gradients below n t in sup norm.
    # The points are simplex draws u pulled in by (1 - 1/t) u + floor.
    rng = np.random.default_rng(7)
    dims = ProblemDims(3, 40)
    for _ in range(200):
        u = rng.dirichlet(np.ones(dims.n))
        x = clipped_point((1.0 - 1.0 / dims.t) * u + dims.floor, dims)
        raw = rng.uniform(0.0, 1.0, dims.n)
        raw[rng.integers(dims.n)] = 1.0
        loss, grad = loss_grad_arrays(x, MarketRound(raw).r)
        assert loss <= math.log(dims.n * dims.t) + 1e-12
        assert np.abs(grad).max() <= dims.n * dims.t + 1e-9


def test_portfolio_checked_accepts_floor_point():
    dims = ProblemDims(2, 16)
    x = clipped_point(np.array([1.0 - dims.floor, dims.floor]), dims)
    assert x.shape == (2,)
    assert not x.flags.writeable


def test_portfolio_checked_rejections():
    dims = ProblemDims(2, 16)
    with pytest.raises(ValueError, match="sum to"):
        clipped_point(np.array([0.6, 0.6]), dims)
    with pytest.raises(ValueError, match="floor"):
        clipped_point(np.array([0.999, 0.001]), dims)
    with pytest.raises(ValueError, match="assets"):
        clipped_point(np.array([0.5, 0.25, 0.25]), dims)
    with pytest.raises(ValueError, match="finite"):
        clipped_point(np.array([np.inf, 0.5]), dims)


@pytest.mark.parametrize("n", (2, 3, 5, 20))
def test_portfolio_checks_agree_with_numpy_predicates(n):
    # clipped_point tests finiteness and the floor on Python floats.
    dims = ProblemDims(n, 64)
    rng = np.random.default_rng(800 + n)
    for trial in range(40):
        x = rng.dirichlet(np.ones(n))
        x[rng.integers(n)] = (np.nan, np.inf, -np.inf, dims.floor - 2e-12, dims.floor - 5e-13)[trial % 5]
        x /= 1.0 if trial % 5 < 3 else x.sum()
        finite = bool(np.all(np.isfinite(x)))
        if not finite:
            with pytest.raises(ValueError, match="finite"):
                clipped_point(x, dims)
            continue
        above = bool(x.min() >= dims.floor - 1e-12)
        if above:
            assert clipped_point(x, dims).tobytes() == x.tobytes()
        else:
            with pytest.raises(ValueError, match="floor"):
                clipped_point(x, dims)


def test_uniform_portfolio_sums_to_one():
    x = uniform_portfolio(ProblemDims(5, 100))
    assert x.sum() == 1.0
    assert np.all(x == 0.2)


def test_uniform_portfolio_is_a_fresh_writable_array():
    dims = ProblemDims(3, 10)
    first, second = uniform_portfolio(dims), uniform_portfolio(dims)
    assert first.flags.writeable and second.flags.writeable
    first[0] = 0.0
    np.testing.assert_array_equal(second, np.full(3, 1.0 / 3.0))
    np.testing.assert_array_equal(uniform_portfolio(dims), np.full(3, 1.0 / 3.0))


def test_smoothing_costs_at_most_two_nats():
    # Total loss of the smoothed comparator (1 - 1/t) u' + floor exceeds the
    # original's by at most 2 over a whole horizon, for any positive market.
    rng = np.random.default_rng(11)
    dims = ProblemDims(3, 30)
    for _ in range(50):
        r_mat = np.exp(0.4 * rng.standard_normal((dims.t, dims.n)))
        r_mat /= r_mat.max(axis=1, keepdims=True)
        u_prime = rng.dirichlet(np.full(dims.n, 0.4))
        u_s = clipped_point((1.0 - 1.0 / dims.t) * u_prime + dims.floor, dims)
        inflation = float(np.log(r_mat @ u_prime).sum() - np.log(r_mat @ u_s).sum())
        assert inflation <= 2.0 + 1e-9


def test_nudge_interior_clears_the_floor():
    dims = ProblemDims(2, 16)
    x = np.array([1.0 - dims.floor, dims.floor])
    nudged = nudge_interior(x, dims)
    assert nudged.min() > dims.floor
    assert abs(nudged.sum() - 1.0) <= 1e-15
    assert np.abs(nudged - x).max() <= 1e-6
