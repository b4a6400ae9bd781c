"""Synthetic market generators and CSV ingestion.

Every generator yields rounds already normalized (best asset reads 1) and is
a pure function of its spec, so the same seed always reproduces the same
market bit for bit.  Rounds are frozen, so a market that repeats a round
holds one ``MarketRound`` for it and lists it wherever it recurs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .domain import MarketRound, ProblemDims, normalize_round

__all__ = ["MARKET_KINDS", "MarketSpec", "generate", "load_csv", "write_csv"]


@dataclass(frozen=True)
class MarketSpec:
    """What to generate: kind, dimensions, seed, and the kind's params (see `_KINDS`)."""

    kind: str
    dims: ProblemDims
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown market kind {self.kind!r}; choose from {MARKET_KINDS}")
        extra = set(self.params) - set(_KINDS[self.kind][1])
        if extra:
            raise ValueError(f"params {sorted(extra)} not understood by {self.kind!r}")


def _constant(dims: ProblemDims, seed: int):
    return [MarketRound(np.ones(dims.n))] * dims.t


def _cover_alternating(dims: ProblemDims, seed: int):
    # Odd rounds favor the first asset, even rounds the rest; at n = 2 this
    # is the classic (1, 1/2), (1/2, 1) alternation whose best CRP is even
    # money with per-pair wealth 9/8.
    good_first = np.full(dims.n, 0.5)
    good_first[0] = 1.0
    good_rest = np.ones(dims.n)
    good_rest[0] = 0.5
    odd, even = MarketRound(good_first), MarketRound(good_rest)
    return [odd if t % 2 == 1 else even for t in range(1, dims.t + 1)]


def _blowup(dims: ProblemDims, seed: int, epsilon, flip_period):
    epsilon, flip_period = float(epsilon), int(dims.t // 2 if flip_period is None else flip_period)
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if flip_period < 1:
        raise ValueError(f"flip_period must be positive, got {flip_period!r}")
    first = np.full(dims.n, epsilon)
    first[0] = 1.0
    second = np.ones(dims.n)
    second[0] = epsilon
    regimes = (MarketRound(first), MarketRound(second))
    return [regimes[(t // flip_period) % 2] for t in range(dims.t)]


def _iid_lognormal(dims: ProblemDims, seed: int, sigma):
    sigma = float(sigma)
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    rng = np.random.default_rng(seed)
    raw = np.exp(sigma * rng.standard_normal((dims.t, dims.n)))
    return [normalize_round(row) for row in raw]


# Each market kind: its generator, called with the dims, the seed and the params, and the params it takes
# with their defaults.  A flip_period of None is half the horizon.
_KINDS = {
    "constant": (_constant, {}),
    "cover_alternating": (_cover_alternating, {}),
    "blowup": (_blowup, {"epsilon": 1.0 / 32.0, "flip_period": None}),
    "iid_lognormal": (_iid_lognormal, {"sigma": 0.3}),
}
MARKET_KINDS = tuple(_KINDS)


def generate(spec: MarketSpec):
    """Materialize a spec into its list of normalized rounds."""
    make, defaults = _KINDS[spec.kind]
    return make(spec.dims, spec.seed, **{**defaults, **spec.params})


def load_csv(path, n: int):
    """Read a market from CSV: one row per round, `n` nonnegative fields each.

    A zero is an asset that went bankrupt that round; each row needs at
    least one positive field.  A first row that does not parse as numbers is
    treated as a header.  The number of data rows becomes the horizon and
    must exceed `n`.  Returns ``(rounds, dims)`` with every row normalized.
    """
    path = Path(path)
    rows = []
    with path.open(newline="") as fh:
        for line_no, fields in enumerate(csv.reader(fh), start=1):
            if not fields or all(f.strip() == "" for f in fields):
                continue
            try:
                values = [float(f) for f in fields]
            except ValueError:
                if line_no == 1:
                    continue  # header
                raise ValueError(f"{path}: row {line_no}: unparseable field") from None
            if len(values) != n:
                raise ValueError(f"{path}: row {line_no}: expected {n} fields, got {len(values)}")
            for col, v in enumerate(values, start=1):
                if not np.isfinite(v) or v < 0.0:
                    raise ValueError(f"{path}: row {line_no}, column {col}: value {v!r} must be a nonnegative finite number")
            if max(values) == 0.0:
                raise ValueError(f"{path}: row {line_no}: every price relative is zero")
            rows.append(values)
    if len(rows) <= n:
        raise ValueError(f"{path}: {len(rows)} rounds cannot support {n} assets (need more rounds than assets)")
    dims = ProblemDims(n, len(rows))
    return [normalize_round(np.array(row)) for row in rows], dims


def write_csv(rounds, path):
    """Emit rounds as CSV, one row per round, no header."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        for rnd in rounds:
            writer.writerow([repr(float(v)) for v in rnd.r])
    return path
