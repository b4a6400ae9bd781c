"""Baseline portfolio strategies used for comparison runs.

The update rules are plain functions so they can be tested against closed
forms; thin stateful classes adapt them to the harness stepping interface
(``start`` once, then ``step`` per round returning the played point and its
log-loss).  The online Newton step is the fixed-rate learner's
mirror-descent step without its barrier (``omd_step_objective`` with no
rates) and, like it, plays on the clipped simplex; the multiplicative,
projected-gradient, Soft-Bayes and universal-portfolio baselines use the
full simplex as they classically do.  ``best_crp`` is the hindsight
comparator every run's regret is measured against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .adaptive import leader_objective
from .core import omd_step_objective
from .domain import (
    MarketRound,
    ProblemDims,
    loss_grad_arrays,
    nudge_interior,
    uniform_portfolio,
)
from .solver import minimize_over_clipped_simplex

__all__ = [
    "project_simplex",
    "eg_step",
    "ogd_step",
    "soft_bayes_step",
    "best_crp",
    "OnsLearner",
    "EgLearner",
    "OgdLearner",
    "SoftBayesLearner",
    "UpGridLearner",
]


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the full probability simplex (sort-based)."""
    v = np.asarray(v, dtype=float)
    srt = np.sort(v)[::-1]
    csum = np.cumsum(srt) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = np.max(np.where(srt - csum / idx > 0.0)[0])
    theta = csum[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def eg_step(x: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    """Multiplicative-weights update: exponentiate the negative gradient."""
    w = x * np.exp(-eta * grad)
    return w / w.sum()


def ogd_step(x: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    """Projected gradient step on the full simplex."""
    return project_simplex(x - eta * grad)


def soft_bayes_step(x: np.ndarray, r: np.ndarray, eta: float) -> np.ndarray:
    """Mix the current weights with their performance reweighting.

    ``x * (1 - eta + eta * r / <x, r>)``; the update preserves the simplex
    exactly because the reweighting has mean one under ``x``.
    """
    return x * (1.0 - eta + eta * r / float(x @ r))


def best_crp(rounds, dims: ProblemDims):
    """Best constant-rebalanced portfolio over the clipped simplex, in hindsight.

    Returns ``(weights, total_loss)``: the weights as a read-only array, and
    the loss free of regularization.
    The cumulative log-loss alone can have a singular Hessian (degenerate
    markets), so a vanishing auxiliary barrier of weight 1e-9 (the leader
    objective with gamma = 1e9) keeps the Newton solve well-posed; its
    weight is far below every tolerance used downstream.
    """
    r_mat = np.stack([np.asarray(r.r if isinstance(r, MarketRound) else r, dtype=float) for r in rounds])
    if r_mat.shape[1] != dims.n:
        raise ValueError(f"rounds must have {dims.n} assets")
    obj = leader_objective(r_mat, 1e9)
    best = minimize_over_clipped_simplex(obj, uniform_portfolio(dims), dims)
    total_loss = float(-np.log(r_mat @ best).sum())
    return best, total_loss


def _full_simplex_grid(n: int, resolution: float) -> np.ndarray:
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    ticks = int(round(1.0 / resolution))
    if n == 2:
        a = np.arange(ticks + 1) / ticks
        return np.column_stack([a, 1.0 - a])
    if n == 3:
        i, j = np.meshgrid(np.arange(ticks + 1), np.arange(ticks + 1), indexing="ij")
        keep = i + j <= ticks
        a = i[keep] / ticks
        b = j[keep] / ticks
        return np.column_stack([a, b, 1.0 - a - b])
    raise ValueError("grid portfolios support 2 or 3 assets only")


class OnsLearner:
    """Online Newton step: mirror descent with the covariance quadratic alone, clipped simplex.

    ``mix`` blends the played point toward uniform; the internal iterate
    still follows the mirror-descent recursion with gradients taken at the
    played point.
    """

    name = "ons"

    def __init__(self, beta: float = 0.5, mix: float = 0.0):
        if beta <= 0.0:
            raise ValueError("beta must be positive")
        if not (0.0 <= mix < 1.0):
            raise ValueError("mix must lie in [0, 1)")
        self.beta = beta
        self.mix = mix

    def start(self, dims: ProblemDims):
        self.dims = dims
        self.x = uniform_portfolio(dims)
        self.cov = float(dims.n) * np.eye(dims.n)
        return self

    def step(self, rnd: MarketRound):
        played = (1.0 - self.mix) * self.x + self.mix / self.dims.n
        loss, grad = loss_grad_arrays(played, rnd.r)
        self.cov = self.cov + np.outer(grad, grad)
        obj = omd_step_objective(grad, self.cov, self.x, self.beta)
        self.x = minimize_over_clipped_simplex(obj, nudge_interior(self.x, self.dims), self.dims)
        return played, loss


class EgLearner:
    """Exponentiated gradient on the full simplex.

    The default rate is ``sqrt(log(n)/t) / g_est``.  Without an estimate of
    the gradient scale the clipped-simplex worst case ``n*t`` is used; a
    positive ``mix`` instead floors the played point at ``mix/n`` which
    caps gradients at ``n/mix``.
    """

    name = "eg"

    def __init__(self, eta: Optional[float] = None, g_est: Optional[float] = None, mix: float = 0.0):
        if not (0.0 <= mix < 1.0):
            raise ValueError("mix must lie in [0, 1)")
        self.eta_fixed = eta
        self.g_est = g_est
        self.mix = mix

    def start(self, dims: ProblemDims):
        self.dims = dims
        if self.eta_fixed is not None:
            self.eta = self.eta_fixed
        else:
            g_est = self.g_est
            if g_est is None:
                g_est = dims.n / self.mix if self.mix > 0.0 else float(dims.n * dims.t)
            self.eta = np.sqrt(np.log(dims.n) / dims.t) / g_est
        self.x = uniform_portfolio(dims)
        return self

    def step(self, rnd: MarketRound):
        played = (1.0 - self.mix) * self.x + self.mix / self.dims.n
        loss, grad = loss_grad_arrays(played, rnd.r)
        self.x = eg_step(self.x, grad, self.eta)
        return played, loss


class OgdLearner:
    """Projected online gradient descent on the full simplex."""

    name = "ogd"

    def __init__(self, eta: Optional[float] = None):
        self.eta_fixed = eta

    def start(self, dims: ProblemDims):
        self.dims = dims
        self.eta = self.eta_fixed if self.eta_fixed is not None else 1.0 / np.sqrt(dims.t)
        self.x = uniform_portfolio(dims)
        return self

    def step(self, rnd: MarketRound):
        played = self.x
        loss, grad = loss_grad_arrays(played, rnd.r)
        self.x = ogd_step(self.x, grad, self.eta)
        return played, loss


class SoftBayesLearner:
    """Soft-Bayes mixing update on the full simplex."""

    name = "softbayes"

    def __init__(self, eta: Optional[float] = None):
        self.eta_fixed = eta

    def start(self, dims: ProblemDims):
        self.dims = dims
        if self.eta_fixed is not None:
            self.eta = self.eta_fixed
        else:
            self.eta = np.sqrt(np.log(dims.n) / (dims.n * dims.t))
        self.x = uniform_portfolio(dims)
        return self

    def step(self, rnd: MarketRound):
        played = self.x
        loss, _ = loss_grad_arrays(played, rnd.r)
        self.x = soft_bayes_step(self.x, rnd.r, self.eta)
        return played, loss


class UpGridLearner:
    """Universal-portfolio quadrature run as an online learner."""

    name = "up-grid"

    def __init__(self, resolution: Optional[float] = None):
        self.resolution = resolution

    def start(self, dims: ProblemDims):
        self.dims = dims
        res = self.resolution if self.resolution is not None else (0.01 if dims.n == 2 else 0.02)
        self.grid = _full_simplex_grid(dims.n, res)
        self.wealth = np.ones(len(self.grid))
        return self

    def step(self, rnd: MarketRound):
        played = self.wealth @ self.grid / self.wealth.sum()
        loss, _ = loss_grad_arrays(played, rnd.r)
        self.wealth = self.wealth * (self.grid @ rnd.r)
        self.wealth /= self.wealth.max()
        return played, loss
