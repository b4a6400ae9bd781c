"""Predicted warm starts: the mirror-descent step from a two-term Newton prediction, the leader refit from a
one-step Newton prediction over the appended round, and the nudged start both fall back to."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barrons import adaptive, core
from barrons.adaptive import ETA_MAX, EpochHistory, default_eta, regularized_leader
from barrons.core import barrons_init, barrons_step, omd_step_objective
from barrons.domain import MarketRound, ProblemDims, loss_grad_arrays, nudge_interior, uniform_portfolio
from barrons.harness import run_market
from barrons.markets import MarketSpec
from barrons.solver import KKT_TOL, SolveDiagnostics, _float_pin, _kkt_violation, minimize_over_clipped_simplex

GAMMA = 1.0 / 25.0


def _certified(obj, x, dims) -> bool:
    """Whether `x` passes the solver's certificate for `obj`: the KKT violation within max(KKT_TOL, 4 pin)."""
    pin = _float_pin(obj.hessian(x), x, x - dims.floor)
    return _kkt_violation(obj.gradient(x), x, dims.floor) <= max(KKT_TOL, 4.0 * pin)


def _recording(solve, calls: list):
    """`solve` with its own `SolveDiagnostics`, appending ``(objective, start, answer, newton iterations)`` to `calls`."""

    def recorded(obj, warm_start, dims):
        diag = SolveDiagnostics()
        answer = solve(obj, warm_start, dims, diagnostics=diag)
        calls.append((obj, warm_start, answer, diag.newton_iters))
        return answer

    return recorded


@pytest.mark.parametrize("kind, n, t", [("blowup", 2, 128), ("iid_lognormal", 20, 256)])
def test_predicted_starts_cut_the_newton_iterations(monkeypatch, kind, n, t):
    # From the nudged starts a step takes about 1.9 Newton iterations and a leader refit about 2.9 (1.2 and 3.0 at
    # n=20).  Counted as perfbench counts them, through diagnostics injected at the two modules' solver lookups.
    calls = {"step": [], "leader": []}
    for module, solve in ((core, "step"), (adaptive, "leader")):
        monkeypatch.setattr(module, "minimize_over_clipped_simplex", _recording(minimize_over_clipped_simplex, calls[solve]))
    run_market("ada", MarketSpec(kind, ProblemDims(n, t)))
    steps = [iters for *_, iters in calls["step"]]
    leaders = [iters for *_, iters in calls["leader"]]
    assert len(steps) == len(leaders) == t
    assert steps.count(0) >= 0.95 * t, sum(steps) / t
    assert sum(leaders) <= 2.1 * t, sum(leaders) / t


def _outside(predictions: list):
    """A `newton_displacement` that takes any prediction out of the simplex (first weight up by 2, second down by
    2), and counts its calls in `predictions`."""

    def displacement(h, g):
        predictions.append(g.size)
        d = np.zeros(g.size)
        d[:2] = 2.0, -2.0
        return d

    return displacement


def test_a_step_prediction_outside_the_simplex_falls_back_to_the_nudged_play(monkeypatch):
    dims = ProblemDims(3, 64)
    rng = np.random.default_rng(4)
    state = barrons_init(dims, 0.5, default_eta(dims))
    calls, predictions = [], []
    monkeypatch.setattr(core, "newton_displacement", _outside(predictions))
    monkeypatch.setattr(core, "minimize_over_clipped_simplex", _recording(minimize_over_clipped_simplex, calls))
    plays = []
    for _ in range(8):
        plays.append(state.x)
        r = rng.uniform(0.05, 1.0, dims.n)
        r[rng.integers(dims.n)] = 1.0
        barrons_step(state, MarketRound(r))
    assert len(calls) == len(plays) and len(predictions) == 2 * len(plays)
    for (obj, start, answer, _), played in zip(calls, plays):
        assert start.tobytes() == nudge_interior(played, dims).tobytes()
        assert _certified(obj, answer, dims)


def test_a_leader_prediction_outside_the_simplex_falls_back_to_the_nudged_leader(monkeypatch):
    dims = ProblemDims(3, 64)
    rng = np.random.default_rng(5)
    history = EpochHistory(4, dims.n)
    calls, predictions = [], []
    monkeypatch.setattr(adaptive, "newton_displacement", _outside(predictions))
    monkeypatch.setattr(adaptive, "minimize_over_clipped_simplex", _recording(minimize_over_clipped_simplex, calls))
    u = uniform_portfolio(dims)
    leaders = []
    for _ in range(8):
        leaders.append(u)
        r = rng.uniform(0.05, 1.0, dims.n)
        r[rng.integers(dims.n)] = 1.0
        history.append(r, uniform_portfolio(dims), -r)
        u = regularized_leader(history, GAMMA, u, dims)
    assert len(predictions) == len(leaders) - 1  # every refit but the first, which holds no Hessian yet
    for (obj, start, answer, _), previous in zip(calls, leaders):
        assert start.tobytes() == nudge_interior(previous, dims).tobytes()
        assert _certified(obj, answer, dims)
    history.clear()
    assert history.hessian is None


def _random_round(rng, n):
    r = rng.uniform(0.05, 1.0, n)
    r[rng.integers(n)] = 1.0
    return r


def _step_starts(rng, dims):
    """A step objective at a random play and state, with its predicted and its nudged start."""
    w = 3.0 * dims.n * dims.floor  # every coordinate at least 3 floors, as the learner's plays are
    x_t = (1.0 - w) * rng.dirichlet(np.full(dims.n, 2.0)) + w / dims.n
    x_t /= x_t.sum()
    _, grad = loss_grad_arrays(x_t, _random_round(rng, dims.n))
    grads = -np.array([_random_round(rng, dims.n) for _ in range(int(rng.integers(0, 20)))]) * rng.uniform(1.0, 4.0)
    cov = dims.n * np.eye(dims.n) + grads.T @ grads + np.outer(grad, grad)
    eta = np.exp(rng.uniform(np.log(default_eta(dims)), np.log(ETA_MAX))) * np.exp(rng.uniform(0.0, 1.0, dims.n))
    obj = omd_step_objective(grad, cov, x_t, rng.choice((0.5, 0.125, 1.0 / 64.0)), eta)
    return obj, core._predicted_step(obj, grad, x_t, eta, dims), nudge_interior(x_t, dims)


def _leader_starts(rng, dims):
    """A leader refit after a random epoch's last round, with its predicted and its nudged start."""
    history = EpochHistory(4, dims.n)
    u = uniform_portfolio(dims)
    for _ in range(int(rng.integers(1, dims.t))):
        history.append(_random_round(rng, dims.n), uniform_portfolio(dims), np.zeros(dims.n))
        u = regularized_leader(history, GAMMA, u, dims)
    history.append(_random_round(rng, dims.n), uniform_portfolio(dims), np.zeros(dims.n))
    return history.leader_objective(GAMMA), history.leader_start(u, dims), nudge_interior(u, dims)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    starts=st.sampled_from((_step_starts, _leader_starts)),
    n=st.sampled_from((2, 5, 20)),
    seed=st.integers(0, 2**32 - 1),
)
def test_predicted_and_nudged_starts_reach_the_same_certified_answer(starts, n, seed):
    dims = ProblemDims(n, 64)
    obj, predicted, nudged = starts(np.random.default_rng(seed), dims)
    from_predicted, from_nudged = (minimize_over_clipped_simplex(obj, start, dims) for start in (predicted, nudged))
    assert np.abs(from_predicted - from_nudged).max() <= 1e-9
    assert _certified(obj, from_predicted, dims) and _certified(obj, from_nudged, dims)
