"""Restart controller wrapped around the barrier-regularized Newton learner.

The curvature weight ``beta`` wants to be as large as the data allows, but
how large that is depends on gradients that have not happened yet.  The
controller starts at the most optimistic value (1/2) and maintains, after
every round, a data-dependent ceiling computed from a barrier-regularized
leader of the current epoch.  The moment the ceiling drops below ``beta``,
the weight is halved and the learner restarts from scratch: uniform play,
fresh covariance, fresh rate schedule, and an empty epoch history.  Halving
can only happen a logarithmic number of times before the ceiling's floor is
reached, so restarts cost a bounded number of epochs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import BarronsState, barrons_init, barrons_step
from .domain import (
    MarketRound,
    ProblemDims,
    nudge_interior,
    uniform_portfolio,
)
from .solver import Objective, minimize_over_clipped_simplex

__all__ = [
    "AdaConfig",
    "AdaState",
    "EpochBudgetError",
    "EpochHistory",
    "ada_init",
    "ada_step",
    "alpha",
    "default_eta",
    "epoch_budget",
    "epoch_ceiling",
    "leader_objective",
    "regularized_leader",
]

GAMMA_MAX = 1.0 / 25.0
ETA_MAX = 1.0 / 300.0


def default_eta(dims: ProblemDims) -> float:
    """Base learning rate 1 / (2048 n log(t)^2); tiny by design."""
    return 1.0 / (2048.0 * dims.n * math.log(dims.t) ** 2)


def epoch_budget(dims: ProblemDims) -> int:
    """Most epochs any run may open: ceil(log2(32 n t)) + 1.

    A restart at the end of epoch k requires the ceiling to sit below
    (1/2)^k, and the ceiling never drops under 1/(16 n t), so the epoch
    index exceeding this budget signals an implementation bug rather than
    an adversarial market.
    """
    return math.ceil(math.log2(32.0 * dims.n * dims.t)) + 1


class EpochBudgetError(RuntimeError):
    """The restart count exceeded its provable budget (implementation bug)."""


@dataclass(frozen=True)
class AdaConfig:
    """Controller settings: starting curvature weight, base rate (None: the dimension default), leader barrier."""

    beta: float = 0.5
    eta: Optional[float] = None
    gamma: float = GAMMA_MAX

    def base_rate(self, dims: ProblemDims) -> float:
        """`eta`, or the dimension default when it is None."""
        return self.eta if self.eta is not None else default_eta(dims)

    def resolve(self, dims: ProblemDims) -> "AdaConfig":
        eta = self.base_rate(dims)
        if not (0.0 < self.beta <= 0.5):
            raise ValueError(f"beta must lie in (0, 1/2], got {self.beta!r}")
        if not (0.0 < self.gamma <= GAMMA_MAX):
            raise ValueError(f"gamma must lie in (0, 1/25], got {self.gamma!r}")
        if not (0.0 < eta <= min(ETA_MAX, 1.0)):
            raise ValueError(f"eta must lie in (0, 1/300], got {eta!r}")
        return AdaConfig(self.beta, eta, self.gamma)


def _cap(largest: float) -> float:
    """``min(1/2, 1 / (8 largest))``, and 1/2 when nothing constrains (largest 0)."""
    return 0.5 if largest <= 0.25 else 1.0 / (8.0 * largest)


def epoch_ceiling(grads: np.ndarray, xg: np.ndarray, leaders: np.ndarray) -> list:
    """``alpha`` after each of an epoch's last ``len(leaders)`` rounds, as a list of floats.

    ``grads`` holds the epoch's (m, n) gradients and ``xg`` their
    ``<x_s, g_s>``; ``leaders`` (b, n) holds the leaders after rounds
    m - b + 1 to m.  Each ceiling is 1/2 capped by
    max_s |<u, g_s> - <x_s, g_s>| over the rounds its leader saw.

    The controller passes its latest leader alone and the trace checker a
    block of an epoch's leaders, so the recorded and the recomputed
    ceilings share their bits.  For that, each leader's inner products are
    one matrix-vector product over exactly the rows it saw, as the
    controller takes it: a product over more rows may round a row
    differently.  The block shares one subtraction, one absolute value and
    one max masked to the rows each leader saw, in a (b, m) buffer: b
    matrix-vector products and O(b m) other work.
    """
    b, m = len(leaders), len(grads)
    first = m - b + 1  # rows the first leader saw
    gaps = np.zeros((b, m))
    for k in range(b):
        np.dot(grads[: first + k], leaders[k], out=gaps[k, : first + k])
    np.subtract(gaps, xg[None], out=gaps)  # a (1, m) xg skips the costlier broadcast of a 1-D one
    np.abs(gaps, out=gaps)
    seen = np.tri(b, m, first - 1, dtype=bool) if b > 1 else True  # row k saw first + k rows; a lone leader, all
    # The ufunc's own reduce, as ndarray.max calls it, without the method's overhead.
    return list(map(_cap, np.maximum.reduce(gaps, axis=1, initial=0.0, where=seen).tolist()))


class EpochHistory:
    """Rounds, gradients and ``<x_s, g_s>`` of the current epoch, in preallocated buffers.

    The price relatives are kept twice: round-major, in a (capacity, n)
    buffer, and epoch-major, in an (n, capacity) buffer whose row i holds
    asset i's relatives over the epoch in contiguous memory.  The gradients
    are kept round-major, in a (capacity, n) buffer.  Appending a round and
    clearing the epoch cost O(n) however long the epoch is; only the leader
    refit (O(m n^2) per Newton iteration over m rounds) and the ceiling
    (`epoch_ceiling` with the latest leader alone: one O(m n)
    matrix-vector product and a (1, m) buffer of gaps) read all rounds.  A
    history that outgrows its capacity doubles it.
    """

    def __init__(self, capacity: int, n: int):
        self._r = np.empty((capacity, n))
        self._rows = np.empty((n, capacity))
        self._g = np.empty((capacity, n))
        self._xg = np.empty(capacity)
        self.size = 0

    def append(self, r: np.ndarray, x: np.ndarray, g: np.ndarray):
        i = self.size
        if i == len(self._xg):
            self._rows = np.concatenate([self._rows, np.empty_like(self._rows)], axis=1)
            self._r, self._g, self._xg = (
                np.concatenate([a, np.empty_like(a)]) for a in (self._r, self._g, self._xg)
            )
        self._r[i] = r
        self._rows[:, i] = r
        self._g[i] = g
        self._xg[i] = np.add.reduce(x * g)  # (x * g).sum(), fixed once round s is played
        self.size = i + 1

    def clear(self):
        self.size = 0

    @property
    def rows(self) -> np.ndarray:
        """The epoch's price relatives as an (n, m) view with contiguous rows; valid until the next append or clear."""
        return self._rows[:, : self.size]

    @property
    def rounds(self) -> np.ndarray:
        """The epoch's price relatives as an (m, n) view; valid until the next append or clear."""
        return self._r[: self.size]

    def ceiling(self, u: np.ndarray) -> float:
        """``alpha(u, xs, grads)`` from the cached rows: 1/2 capped by max_s |<u, g_s> - <x_s, g_s>|."""
        m = self.size
        return epoch_ceiling(self._g[:m], self._xg[:m], u[None])[0]


class AdaState:
    """Mutable controller state.  Single-owner: one run, one instance.

    ``cfg`` is resolved, and gamma and eta are read from it.
    ``last_alpha``/``last_u`` describe the most recently completed round and
    survive a restart.
    """

    def __init__(self, dims: ProblemDims, cfg: AdaConfig):
        self.dims = dims
        self.cfg = cfg
        self.beta = cfg.beta
        self.epoch = 1
        self.inner: BarronsState = barrons_init(dims, self.beta, cfg.eta)
        self.history = EpochHistory(dims.t, dims.n)  # rows of the current epoch
        self.u: Optional[np.ndarray] = None  # current epoch leader (warm start)
        self.last_alpha: Optional[float] = None
        self.last_u: Optional[np.ndarray] = None


def ada_init(dims: ProblemDims, cfg: Optional[AdaConfig] = None) -> AdaState:
    cfg = (cfg or AdaConfig()).resolve(dims)
    return AdaState(dims, cfg)


def leader_objective(rounds: np.ndarray, gamma: float, rows: Optional[np.ndarray] = None) -> Objective:
    """Cumulative log-loss over `rounds` plus a barrier of weight 1/gamma.

    `rounds` is (m, n), and `rows` its transpose with contiguous rows, as
    `EpochHistory.rows` keeps it; without `rows`, `rounds` is transposed
    once here.  At a point u, the wealths ``rounds @ u`` and the scaled
    rows ``rows / wealth`` (O(m n) each) are shared by the value, the
    gradient (a pairwise sum along each contiguous scaled row, accurate
    over thousands of correlated terms) and the Hessian
    (``scaled @ scaled.T``, O(m n^2)).  They are kept for the last point
    seen, keyed on its bytes, so a solver's value, gradient and Hessian at
    one iterate compute them once, and a point changed in place is a new
    point.  `rounds` and `rows` must not change while the objective is in
    use.
    """
    r_mat = np.asarray(rounds, dtype=float)
    if rows is None:
        rows = np.ascontiguousarray(r_mat.T)
    inv_gamma = 1.0 / gamma
    last = [None, None, None]  # bytes of the last point, its wealths, its scaled rows (or None)

    # np.dot and np.add.reduce give the bits of @ and .sum() with less call overhead.
    def wealth(u):
        key = u.tobytes()
        if key != last[0]:
            last[:] = key, np.dot(r_mat, u), None
        return last[1]

    def scaled_rows(u):
        p = wealth(u)
        if last[2] is None:
            last[2] = rows / p
        return last[2]

    def value(u):
        u = np.asarray(u, dtype=float)
        return float(-np.add.reduce(np.log(wealth(u))) - inv_gamma * np.add.reduce(np.log(u)))

    def gradient(u):
        u = np.asarray(u, dtype=float)
        return -np.add.reduce(scaled_rows(u), axis=1) - inv_gamma / u

    def hessian(u):
        u = np.asarray(u, dtype=float)
        scaled = scaled_rows(u)
        h = np.dot(scaled, scaled.T)
        h.ravel()[:: u.size + 1] += inv_gamma / (u * u)
        return h

    return Objective(value, gradient, hessian)


def regularized_leader(
    rounds,
    gamma: float,
    warm_start: np.ndarray,
    dims: ProblemDims,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Minimizer of epoch log-loss plus barrier over the clipped simplex, as a read-only array.

    `rounds` is an (m, n) array, used without a copy, or a sequence of
    rounds; `rows` is its transpose with contiguous rows when the caller
    keeps one (see `leader_objective`).  The barrier term keeps the leader
    a multiple of gamma away from the faces, which is what makes
    consecutive leaders stable round to round.
    """
    r_mat = np.asarray(rounds, dtype=float)
    if len(r_mat) == 0:
        raise ValueError("need at least one round to fit a leader")
    if r_mat.ndim != 2 or r_mat.shape[1] != dims.n:
        raise ValueError(f"rounds must be vectors of {dims.n} price relatives")
    obj = leader_objective(r_mat, gamma, rows)
    return minimize_over_clipped_simplex(obj, nudge_interior(warm_start, dims), dims)


def alpha(u: np.ndarray, xs: np.ndarray, grads: np.ndarray) -> float:
    """Ceiling for the curvature weight given the epoch history.

    ``min(1/2, 1 / (8 max_s |<u - x_s, g_s>|))`` with exactly-zero inner
    products skipped: they impose no constraint.  On the clipped simplex the
    inner products are at most 2nt, so the ceiling never drops below
    1/(16 n t).
    """
    u = np.asarray(u, dtype=float)
    vals = np.abs(((u - np.asarray(xs)) * np.asarray(grads)).sum(axis=1))
    return _cap(float(vals.max(initial=0.0)))


def ada_step(state: AdaState, rnd: MarketRound):
    """One controller round: step the learner, refresh the ceiling, maybe restart.

    Returns ``(loss, grad, restarted)``: the round's log-loss, its gradient
    at the play, and whether the round closed its epoch.  The loss always
    belongs to the epoch that played the round; when the ceiling check
    fails, the step the learner just solved is discarded along with the
    rest of the epoch state, and the next round opens the new epoch from
    uniform.  The check runs after every round, including a round that
    itself opened an epoch.
    """
    played = state.inner.x  # barrons_step rebinds state.x and mutates nothing in place
    loss, grad = barrons_step(state.inner, rnd)
    history = state.history
    history.append(rnd.r, played, grad)

    warm = state.u if state.u is not None else uniform_portfolio(state.dims)
    state.u = regularized_leader(history.rounds, state.cfg.gamma, warm, state.dims, rows=history.rows)
    state.last_u = state.u

    ceiling = history.ceiling(state.u)
    state.last_alpha = ceiling

    restarted = state.beta > ceiling
    if restarted:
        if state.epoch + 1 > epoch_budget(state.dims):
            raise EpochBudgetError(
                f"epoch {state.epoch + 1} would exceed the budget {epoch_budget(state.dims)}"
            )
        state.beta *= 0.5
        state.epoch += 1
        state.inner = barrons_init(state.dims, state.beta, state.cfg.eta)
        state.history.clear()
        state.u = None
    return loss, grad, restarted
