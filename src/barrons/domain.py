"""Core types and loss arithmetic for online portfolio selection.

Conventions used throughout the package:

* Price relatives are rescaled so the best asset of every round has
  relative exactly 1.  Log-loss regret is invariant to per-round scaling,
  so the normalization is free and it pins down all the constants below.
* Wealth fractions live on the clipped simplex: probability vectors whose
  coordinates are at least ``1/(n*t)``.  The floor keeps every per-round
  log-loss and gradient finite no matter how adversarial the market is:
  the inner product with a normalized round is at least ``1/(n*t)``, so
  the gradient sup-norm never exceeds ``n*t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SUM_TOL",
    "FLOOR_TOL",
    "ProblemDims",
    "MarketRound",
    "normalize_round",
    "clipped_point",
    "dead_portfolio",
    "loss_grad_arrays",
    "uniform_portfolio",
    "nudge_interior",
]

SUM_TOL = 1e-9     # allowed slack on sum(x) == 1
FLOOR_TOL = 1e-12  # allowed slack below the coordinate floor
_NUDGE_MIX = 1e-7  # weight of the uniform portfolio in nudge_interior


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ProblemDims:
    """Asset count ``n`` and horizon ``t``; requires ``n >= 2`` and ``t > n``."""

    n: int
    t: int

    def __post_init__(self):
        n, t = self.n, self.t
        if int(n) != n or int(t) != t:
            raise ValueError("asset count and horizon must be integers")
        if n < 2:
            raise ValueError(f"need at least two assets, got n={n}")
        if t <= n:
            raise ValueError(f"horizon must exceed the asset count, got t={t}, n={n}")

    @property
    def floor(self) -> float:
        """Per-coordinate lower bound of the clipped simplex, 1/(n*t)."""
        return 1.0 / (self.n * self.t)


@dataclass(frozen=True)
class MarketRound:
    """One round of price relatives, scaled so the max entry is exactly 1."""

    r: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.r)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("a market round needs at least two assets")
        if not np.all(np.isfinite(arr)):
            raise ValueError("price relatives must be finite")
        if np.any(arr < 0.0):
            raise ValueError("price relatives must be nonnegative")
        if arr.max() != 1.0:
            raise ValueError("round is not normalized: max entry must be exactly 1")
        object.__setattr__(self, "r", arr)


def normalize_round(raw) -> MarketRound:
    """Scale a raw vector of price relatives so its best asset reads 1.

    Raises ValueError if any entry is negative or non-finite, or if no entry
    is strictly positive.  Zeros are allowed (a worthless asset) as long as
    some other asset survives the round.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("a market round needs at least two assets")
    if not np.all(np.isfinite(arr)):
        raise ValueError("price relatives must be finite")
    if np.any(arr < 0.0):
        raise ValueError("price relatives must be nonnegative")
    top = arr.max()
    if top <= 0.0:
        raise ValueError("at least one price relative must be strictly positive")
    return MarketRound(arr / top)


def clipped_point(x, dims: ProblemDims) -> np.ndarray:
    """A read-only copy of the weights `x`, checked to lie on the clipped simplex of `dims`.

    Raises ValueError unless `x` has ``dims.n`` finite coordinates that sum
    to one within ``SUM_TOL`` and sit no lower than ``FLOOR_TOL`` under the
    floor.
    """
    arr = _frozen_array(x)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("a portfolio needs at least two assets")
    vals = arr.tolist()
    if not all(map(math.isfinite, vals)):
        raise ValueError("portfolio weights must be finite")
    if arr.size != dims.n:
        raise ValueError(f"expected {dims.n} assets, got {arr.size}")
    total = np.add.reduce(arr)  # arr.sum(), without the method's overhead
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"weights sum to {total!r}, not 1")
    lo = min(vals)  # the weights are finite, so this is arr.min()
    if lo < dims.floor - FLOOR_TOL:
        raise ValueError(f"coordinate {lo!r} breaches the clipped-simplex floor {dims.floor!r}")
    return arr


def uniform_portfolio(dims: ProblemDims) -> np.ndarray:
    """A fresh, writable array of ``dims.n`` equal weights."""
    return np.full(dims.n, 1.0 / dims.n)


def dead_portfolio(wealth: float) -> ValueError:
    """The error for a play with the nonpositive ``wealth`` on its round."""
    return ValueError(f"nonpositive round wealth {wealth!r}: portfolio dead on this round")


def loss_grad_arrays(x: np.ndarray, r: np.ndarray):
    """Per-round log-loss ``-log <x, r>`` and its gradient ``-r / <x, r>``.

    On the clipped simplex the round wealth is at least ``1/(n*t)`` (the
    best asset alone contributes the floor times 1), so the loss is at most
    ``log(n*t)`` and the gradient sup-norm at most ``n*t``.
    """
    wealth = float(x @ r)
    if wealth <= 0.0:
        raise dead_portfolio(wealth)
    return -np.log(wealth), -r / wealth


def nudge_interior(x: np.ndarray, dims: ProblemDims) -> np.ndarray:
    """Mix a whisper of the uniform portfolio into `x`.

    Solver warm starts must be strictly inside the clipped simplex; a point
    returned by a previous solve can sit on the floor to machine precision.
    The mix pushes every coordinate a safe margin above the floor without
    moving the point meaningfully.
    """
    return (1.0 - _NUDGE_MIX) * np.asarray(x, dtype=float) + _NUDGE_MIX * (1.0 / dims.n)
