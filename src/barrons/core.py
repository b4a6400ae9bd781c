"""Barrier-regularized online Newton steps with increasing per-coordinate rates.

One mirror-descent step per round.  The regularizer mixes a quadratic built
from the running gradient covariance (weight ``beta``) with per-coordinate
log-barriers whose learning rates start at ``eta_base`` and only ever grow:
a coordinate that has visited small values earns a faster rate, up to a
factor of ``e``.  Rates are a deterministic function of the points played,
so the schedule can be audited from a trace after the fact.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .domain import (
    MarketRound,
    ProblemDims,
    loss_grad_arrays,
    nudge_interior,
    uniform_portfolio,
)
from .solver import Objective, minimize_over_clipped_simplex

__all__ = [
    "BarronsState",
    "barrons_init",
    "barrons_step",
    "omd_step_objective",
]


class BarronsState:
    """Mutable learner state for one epoch.  Single-owner: one run, one instance.

    Fields
    ------
    x         current play, a point of the clipped simplex
    cov       n*I plus the sum of outer products of observed gradients
    log_max   running max of log_t(1 / (n * x_s,i)) over played points
    log_t     log(T), the base of ``log_max``'s logarithms
    eta       current per-coordinate learning rates, eta_base * exp(log_max)
    """

    def __init__(self, dims: ProblemDims, beta: float, eta_base: float):
        self.dims = dims
        self.beta = float(beta)
        self.eta_base = float(eta_base)
        self.x = uniform_portfolio(dims)
        self.cov = float(dims.n) * np.eye(dims.n)
        self.log_max = np.zeros(dims.n)
        self.log_t = np.log(dims.t)
        self.eta = np.full(dims.n, self.eta_base)


def barrons_init(dims: ProblemDims, beta: float, eta_base: float) -> BarronsState:
    """Fresh state: uniform play, covariance n*I, all rates at eta_base."""
    if not (0.0 < beta <= 0.5):
        raise ValueError(f"beta must lie in (0, 1/2], got {beta!r}")
    if not (0.0 < eta_base <= 1.0):
        raise ValueError(f"eta must lie in (0, 1], got {eta_base!r}")
    return BarronsState(dims, beta, eta_base)


def omd_step_objective(
    grad_t: np.ndarray,
    cov: np.ndarray,
    x_prev: np.ndarray,
    beta: float,
    eta: Optional[np.ndarray] = None,
) -> Objective:
    """Linearized loss plus divergence from the previous play.

    The divergence is the covariance quadratic (weight ``beta``) plus, when
    rates ``eta`` are given, the per-coordinate log-barriers.  Without
    ``eta`` it is the quadratic alone: the online Newton step, whose
    Hessian is constant, so every call returns the same read-only array.
    ``cov`` must not change while the objective is in use.

    Written in displacement form (value 0 at ``x_prev``): additive constants
    do not move the argmin, and evaluating ``z - log1p(z)`` on the relative
    displacement ``z = (x - x_prev)/x_prev`` keeps line-search comparisons
    meaningful when the rates 1/eta are large and steps are tiny.
    """
    barrier = eta is not None
    inv_eta = 1.0 / eta if barrier else None
    half_beta = 0.5 * beta  # the value's ``0.5 * beta * q`` multiplies left to right
    beta_cov = beta * cov
    beta_cov.setflags(write=False)

    # np.dot in place of @ gives the same bits with less call overhead.
    def value(x):
        d = x - x_prev
        v = np.dot(grad_t, d) + half_beta * np.dot(np.dot(d, cov), d)
        if barrier:
            z = d / x_prev
            v = v + np.dot(inv_eta, z - np.log1p(z))
        return float(v)

    def gradient(x):
        d = x - x_prev
        g = grad_t + beta * np.dot(cov, d)
        return g + inv_eta * d / (x * x_prev) if barrier else g

    def hessian(x):
        if not barrier:
            return beta_cov
        h = beta_cov.copy()
        h.ravel()[:: x.size + 1] += inv_eta / (x * x)
        return h

    return Objective(value, gradient, hessian)


def barrons_step(state: BarronsState, rnd: MarketRound):
    """Play the stored point against one round and advance the state.

    Order matters and is observable: the loss is charged at the current
    play; the covariance and the rate schedule absorb the current round
    before the step is solved, so the step already uses this round's
    curvature and rates.  Returns the round's log-loss and its gradient at
    the play, ``(loss, grad)``; the state is updated in place, and its play
    ``state.x`` is rebound to the solver's new read-only array.
    """
    dims = state.dims
    r = rnd.r
    if r.size != dims.n:
        raise ValueError(f"round has {r.size} assets, expected {dims.n}")
    if r.max() != 1.0:
        raise ValueError("round must be normalized before stepping: max entry must be exactly 1")

    x_t = state.x
    loss, grad = loss_grad_arrays(x_t, r)

    state.cov = state.cov + np.outer(grad, grad)
    state.log_max = np.maximum(state.log_max, np.log(1.0 / (dims.n * x_t)) / state.log_t)
    state.eta = state.eta_base * np.exp(state.log_max)

    obj = omd_step_objective(grad, state.cov, x_t, state.beta, state.eta)
    state.x = minimize_over_clipped_simplex(obj, nudge_interior(x_t, dims), dims)
    return loss, grad
