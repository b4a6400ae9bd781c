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

MARKET_KINDS = ("constant", "cover_alternating", "blowup", "iid_lognormal")


@dataclass(frozen=True)
class MarketSpec:
    """What to generate: kind, dimensions, seed, and kind-specific scalars.

    Recognized params: ``epsilon`` and ``flip_period`` for blowup (defaults
    1/32 and t/2), ``sigma`` for iid_lognormal (default 0.3).
    """

    kind: str
    dims: ProblemDims
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in MARKET_KINDS:
            raise ValueError(f"unknown market kind {self.kind!r}; choose from {MARKET_KINDS}")
        known = {
            "constant": set(),
            "cover_alternating": set(),
            "blowup": {"epsilon", "flip_period"},
            "iid_lognormal": {"sigma"},
        }[self.kind]
        extra = set(self.params) - known
        if extra:
            raise ValueError(f"params {sorted(extra)} not understood by {self.kind!r}")


def _cover_alternating(dims: ProblemDims):
    # Odd rounds favor the first asset, even rounds the rest; at n = 2 this
    # is the classic (1, 1/2), (1/2, 1) alternation whose best CRP is even
    # money with per-pair wealth 9/8.
    good_first = np.full(dims.n, 0.5)
    good_first[0] = 1.0
    good_rest = np.ones(dims.n)
    good_rest[0] = 0.5
    odd, even = MarketRound(good_first), MarketRound(good_rest)
    return [odd if t % 2 == 1 else even for t in range(1, dims.t + 1)]


def _blowup(dims: ProblemDims, epsilon: float, flip_period: int):
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


def _iid_lognormal(dims: ProblemDims, seed: int, sigma: float):
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    rng = np.random.default_rng(seed)
    raw = np.exp(sigma * rng.standard_normal((dims.t, dims.n)))
    return [normalize_round(row) for row in raw]


def generate(spec: MarketSpec):
    """Materialize a spec into its list of normalized rounds."""
    dims = spec.dims
    if spec.kind == "constant":
        return [MarketRound(np.ones(dims.n))] * dims.t
    if spec.kind == "cover_alternating":
        return _cover_alternating(dims)
    if spec.kind == "blowup":
        eps = float(spec.params.get("epsilon", 1.0 / 32.0))
        period = int(spec.params.get("flip_period", dims.t // 2))
        return _blowup(dims, eps, period)
    if spec.kind == "iid_lognormal":
        return _iid_lognormal(dims, spec.seed, float(spec.params.get("sigma", 0.3)))
    raise ValueError(f"unknown market kind {spec.kind!r}")


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
