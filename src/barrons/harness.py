"""Experiment harness: run learners against markets, trace, verify, sweep.

Traces are JSON documents with two top-level keys: ``meta`` (timestamps and
wall-clock readings, the only nondeterministic content) and ``trace`` (the
config echo, per-round records, and summary).  The trace part serializes
canonically, so identical runs produce byte-identical bodies.  A run's
records are columns, one list per record field, from the run loop to the
body (schema ``TRACE_SCHEMA``): the runner appends each round's fields to
them, and the checker, the summary and ``verify`` read them as they are.
``verify`` reads that schema only.

One run loop drives every learner through its ``start``/``step`` interface,
and one ``TraceChecker`` holds every per-round invariant.  It checks the
columns of a whole run at once, as arrays.  The runner builds the records
without checking them and runs the checker once after the last round (or
on the partial records of a run a solver failure aborts), so
``meta.per_round_ms`` times the learner's round alone.  Every run,
complete or aborted, ends the same way: its violations are recorded in
the summary and its trace is written.  A record holds only what the run
chose or was given: the round's relatives, the play and its loss, and in
an ada run the controller's epoch, beta, ceiling, leader and restart flag.
What the harness derives or fixes is never stored: a record's round is its
position, the total loss is the running sum of the losses, and every other
learner runs one epoch with no leader.  Nor is what the checker derives
(gradient norms, play and leader ratios), so ``verify`` recomputes it with
the same checker over a persisted trace and rebuilds the summary with the
runner's own function.  A trace is self-certifying: it carries the played
points, the rounds, and the leaders needed to recompute every quantity it
claims.
"""

from __future__ import annotations

import inspect
import json
import math
import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .adaptive import ETA_MAX, AdaConfig, ada_init, ada_step, epoch_budget, epoch_ceiling
from .baselines import (
    EgLearner,
    OgdLearner,
    OnsLearner,
    SoftBayesLearner,
    UpGridLearner,
    best_crp,
)
from .core import barrons_init, barrons_step
from .domain import (
    FLOOR_TOL,
    MarketRound,
    ProblemDims,
    SUM_TOL,
    dead_portfolio,
)
from .markets import MarketSpec, generate
from . import solver
from .solver import SolverFailure

__all__ = [
    "CONTROLLER_FIELDS",
    "LEARNER_NAMES",
    "RECORD_FIELDS",
    "SWEEP_COLUMNS",
    "TRACE_SCHEMA",
    "CheckedRecords",
    "ExperimentResult",
    "TraceChecker",
    "run_experiment",
    "run_market",
    "save_trace",
    "load_trace",
    "verify_trace",
    "sweep",
    "write_sweep_csv",
]

TRACE_SCHEMA = "portfolio-trace/4"
# The fields of every record: the records hold one list per field.
RECORD_FIELDS = ("x", "r", "loss")
# The fields an ada record adds: the restart controller's.
CONTROLLER_FIELDS = ("epoch", "beta", "alpha", "u", "restart")
# The columns of a sweep's rows and of its CSV table.
SWEEP_COLUMNS = ("learner", "market", "N", "T", "seed", "regret", "epochs", "G", "violations", "runtime_ms", "error")

# Clipped-simplex learners; the rest live on the full simplex.
_CLIPPED = {"ada", "barrons", "ons"}

_X_BAND_SLACK = 1e-8
_U_BAND_SLACK = 1e-8


@dataclass
class ExperimentResult:
    """A run's config echo, records and summary.

    ``per_round`` holds the records as the body (``trace_dict``,
    ``body_json``) holds them: one list per field of ``RECORD_FIELDS``,
    and in an ada run of ``CONTROLLER_FIELDS`` too.
    """

    config: dict
    per_round: list
    summary: dict

    def trace_dict(self) -> dict:
        return {
            "schema": TRACE_SCHEMA,
            "config": self.config,
            "per_round": self.per_round,
            "summary": self.summary,
        }

    def body_json(self) -> str:
        return json.dumps(self.trace_dict(), sort_keys=True, separators=(",", ":"))


def _floats(arr) -> list:
    return np.asarray(arr, dtype=float).tolist()


def _only_numbers(values, message: str):
    """Raise TypeError(message) unless every value is an int or a float; Python takes a boolean for 0 or 1, JSON does not."""
    if not all(issubclass(kind, (int, float)) and kind is not bool for kind in set(map(type, values))):
        raise TypeError(message)


# The checks of a record in the order they run: within a round, problems follow this order.
_CHECKS = (
    "relatives", "play_sum", "play_floor", "loss", "play_step", "beta", "budget", "sequence", "leader_sum",
    "leader_floor", "ceiling", "ceiling_range", "restart", "rate", "leader_band", "ratio_max", "earlier",
)
_ORDER = {name: i for i, name in enumerate(_CHECKS)}

# What a record that cannot be converted, or checked, raises; an extreme integer overflows a float.
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)
# Most gaps one `epoch_ceiling` call of the checker holds (512 KB), so no buffer grows as an epoch squared.
_CEILING_BLOCK = 1 << 16


def _ratio_steps(v: np.ndarray) -> np.ndarray:
    """``np.abs(v[i] / v[i - 1] - 1.0).max()`` for every row i of ``v``; NaN for the first row."""
    out = np.full(len(v), np.nan)
    out[1:] = np.abs(v[1:] / v[:-1] - 1.0).max(axis=1)
    return out


@dataclass
class CheckedRecords:
    """What `TraceChecker.check_columns` found in a run's records.

    ``issues`` pairs each violation with the position of its record, in
    record order and, within a record, in the order of ``_CHECKS``.
    ``grad_inf`` holds the largest absolute gradient coordinate of each
    checked record's play.  ``ceilings`` are an ada run's recomputed ceilings.
    ``stop`` is None, or the position of the first record that cannot be
    checked and the exception that says why: no record from there on is
    checked, and that record's issues are those of the checks that ran
    before it failed.
    """

    issues: list
    grad_inf: list
    ceilings: Optional[np.ndarray] = None
    stop: Optional[tuple] = None

    @property
    def problems(self) -> list:
        return [message for _, message in self.issues]


def _count(config: dict, key: str) -> int:
    """``config[key]`` as an int: a JSON number of integral value (``2.0`` is 2), not a boolean or a string."""
    value = config[key]
    if type(value) is not int and not (type(value) is float and value.is_integer()):
        raise ValueError(f"{key} must be an integral number, got {value!r}")
    return int(value)


class TraceChecker:
    """Every per-round invariant of the run whose config echo is ``config``, over all its records at once.

    Plays must lie on their simplex, reproduce the recorded losses, and stay
    in their stability band (fixed-rate and adaptive) or keep their weight
    sum (baselines).  Adaptive records are also checked against the
    controller's rules: beta per epoch, epoch budget and sequence, leader
    and its band, ceiling and restart flag, rate schedule, ratio-max.  The
    record at position k is round k + 1.  Every test is written so that a
    NaN fails it.  A violation is reported, never raised.

    Each column of the records is converted to an array once, and each
    check is an array expression over all rounds, or over the rounds of one
    epoch.  The ceilings come from `epoch_ceiling`, the controller's own
    formula, so the restart-flag test compares the controller's bits: one
    O(m n) matrix-vector product per round over the m rounds of its epoch
    so far, as the controller takes it, and one subtraction, absolute value
    and masked max per block of an epoch's rounds, in a buffer of at most
    ``_CEILING_BLOCK`` gaps.
    """

    def __init__(self, config: dict):
        self.dims = dims = ProblemDims(_count(config, "n"), _count(config, "t"))
        self.learner = config.get("learner")
        learner = _build(self.learner, config.get("params", {}))
        self.floor = dims.floor if self.learner in _CLIPPED else 0.0
        # The columns of the run's records.
        self.fields = RECORD_FIELDS + CONTROLLER_FIELDS if self.learner == "ada" else RECORD_FIELDS
        if self.learner not in ("ada", "barrons"):
            return
        cfg = learner.cfg
        if self.learner == "ada":
            cfg = cfg.resolve(dims)
        self.beta_init, self.eta_base = cfg.beta, cfg.base_rate(dims)
        # The play band is proved for base rates up to 1/300 only.
        self.x_band = math.sqrt(3.0 * self.eta_base) / 2.0 + _X_BAND_SLACK if self.eta_base <= ETA_MAX else math.inf
        if self.learner == "ada":
            self.u_band = math.sqrt(cfg.gamma) / 2.0 + _U_BAND_SLACK
            self.alpha_floor = 1.0 / (16.0 * dims.n * dims.t)
            self.budget = epoch_budget(dims)
            self.log_t = np.log(dims.t)

    def _vectors(self, column: list, key: str) -> np.ndarray:
        """The column ``key`` of vectors as an (m, n) array of floats; a boolean or a string is not a number."""
        arr = np.array(column, dtype=float)
        if column and arr.shape != (len(column), self.dims.n):
            raise ValueError(f"{key} does not hold {self.dims.n} numbers")
        _only_numbers(chain.from_iterable(column), f"{key} must hold numbers")
        return arr.reshape(len(column), self.dims.n)

    @staticmethod
    def _numbers(values: list, key: str):
        """The column ``key``, as given and as an array of floats; a boolean or a string is not a number."""
        _only_numbers(values, f"{key} must be a number")
        return values, np.array(values, dtype=float)

    def _convert(self, columns) -> dict:
        """The columns the checks read, converted, plus an ada run's beta schedule, in the order a record's checks read them.

        ``columns`` maps each of ``fields`` to a list with one entry per
        record.
        """
        cols = {
            "x": self._vectors(columns["x"], "x"),
            "r": self._vectors(columns["r"], "r"),
            "loss": self._numbers(columns["loss"], "loss"),
        }
        if self.learner == "ada":
            for key in ("epoch", "beta", "alpha"):
                cols[key] = self._numbers(columns[key], key)
            # beta_init/2^(epoch-1) per record, as the beta check compares it; an extreme epoch overflows it.
            cols["beta_want"] = [self.beta_init * 0.5 ** (e - 1) for e in cols["epoch"][0]]
            if not set(map(type, columns["restart"])) <= {bool}:
                raise TypeError("restart must be true or false")
            cols["restart"] = columns["restart"]
            cols["u"] = self._vectors(columns["u"], "u")
        return cols

    def _first_malformed(self, columns) -> tuple:
        """The position of the first record whose fields do not convert on their own, and the exception."""
        for position in range(len(columns["x"])):
            try:
                self._convert({key: columns[key][position:position + 1] for key in self.fields})
            except _MALFORMED as exc:
                return position, exc
        raise AssertionError("the records convert one by one but not together")

    def check_columns(self, columns: dict) -> CheckedRecords:
        """Check every record of the run, given as columns, in order; see `CheckedRecords` for the result.

        ``columns`` maps each of ``fields`` to a list with one entry per
        record.
        """
        stop = None  # (position, order of the first check that did not run, exception)
        try:
            cols = self._convert(columns)
        except _MALFORMED:
            position, exc = self._first_malformed(columns)
            stop = (position, 0, exc)
            cols = self._convert({key: columns[key][:position] for key in self.fields})
        x, r = cols["x"], cols["r"]
        m = len(x)
        if m == 0:
            return CheckedRecords([], [], np.empty(0) if self.learner == "ada" else None, stop and (stop[0], stop[2]))
        issues = []  # (position, order, message)

        def fail(check: str, rows, message):
            issues.extend((int(i), _ORDER[check], f"round {i + 1}: {message(i)}") for i in rows)

        with np.errstate(all="ignore"):
            # A market round's relatives are finite and nonnegative, and the largest is exactly 1 (`MarketRound`).
            fail("relatives", np.flatnonzero(~((np.minimum.reduce(r, axis=1) >= 0.0) & (np.maximum.reduce(r, axis=1) == 1.0))),
                 lambda i: f"relatives {r[i].tolist()!r} are not a market round (finite, nonnegative, largest exactly 1)")
            sums = np.add.reduce(x, axis=1)  # each row summed as np.add.reduce sums it alone
            self._check_points(fail, "play", x, sums, self.floor)
            wealth = np.matmul(x[:, None, :], r[:, :, None])[:, 0, 0]  # each x @ r, by the same dot product
            dead = np.flatnonzero(wealth <= 0.0)
            if dead.size:
                i = int(dead[0])
                stop = (i, _ORDER["loss"], dead_portfolio(wealth[i].item()))
            loss = -np.log(wealth)
            grad = -r / wealth[:, None]
            recorded, rec_loss = cols["loss"]
            # A loss that is not finite matches nothing, not even within a tolerance it makes infinite.
            fail("loss", np.flatnonzero(~(np.isfinite(loss) & (np.abs(loss - rec_loss) <= 1e-12 * np.maximum(1.0, np.abs(loss))))),
                 lambda i: f"recorded loss {recorded[i]!r} != recomputed {loss[i].item()!r}")
            grad_inf = np.abs(grad).max(axis=1).tolist()
            for i in np.flatnonzero(np.isnan(grad_inf)):
                grad_inf[i] = max(map(abs, grad[i].tolist()))  # max() keeps a NaN only in first place
            starts = [0]
            if self.learner == "ada":
                starts += [i + 1 for i, restart in enumerate(cols["restart"][:-1]) if restart]
            first = np.zeros(m, dtype=bool)
            first[starts] = True
            if self.learner in ("ada", "barrons"):
                steps = _ratio_steps(x)
                fail("play_step", np.flatnonzero(~first & ~(steps <= self.x_band)),
                     lambda i: f"play moved {steps[i].item()!r}, band {self.x_band!r}")
            else:
                moves = np.abs(sums[1:] - sums[:-1])
                fail("play_step", np.flatnonzero(~(moves <= 1e-12)) + 1,
                     lambda i: f"step changed the weight sum by {moves[i - 1].item()!r}")
            ceilings = self._check_controller(fail, cols, x, sums, grad, starts, first) if self.learner == "ada" else None
        issues.sort(key=lambda issue: issue[:2])
        if stop is not None:
            issues = [issue for issue in issues if issue[:2] < stop[:2]]
        checked = m if stop is None else stop[0]
        return CheckedRecords([(i, message) for i, _, message in issues], grad_inf[:checked], ceilings, stop and (stop[0], stop[2]))

    @staticmethod
    def _check_points(fail, name: str, v: np.ndarray, sums: np.ndarray, floor: float):
        """Each row of ``v`` (row sums ``sums``) must sum to 1 with no coordinate under ``floor``.

        A NaN or infinite coordinate fails the sum test.  The floor test
        reports the row's min() as Python takes it, which keeps a NaN only in
        first place, on the few rows whose numpy minimum is under the floor
        or NaN.
        """
        fail(f"{name}_sum", np.flatnonzero(~(np.abs(sums - 1.0) <= SUM_TOL)),
             lambda i: f"{name} sums to {sums[i].item()!r}")
        lows = {int(i): min(v[i].tolist()) for i in np.flatnonzero(~(np.minimum.reduce(v, axis=1) >= floor - FLOOR_TOL))}
        fail(f"{name}_floor", [i for i, lo in lows.items() if not lo >= floor - FLOOR_TOL],
             lambda i: f"{name} coordinate {lows[i]!r} under the floor {floor!r}")

    def _rate_left(self, x: np.ndarray, sums: np.ndarray) -> np.ndarray:
        """Whether the rate schedule of the epoch whose plays are ``x`` (row sums ``sums``) has left [eta, e*eta] by each play.

        The schedule is eta times exp of the running max of the rate
        exponents log_t(1/(n x_i)), clipped at 0 so it never falls under
        eta; a NaN exponent leaves the band.  Once left, the schedule stays
        out for the rest of the epoch, since that running max never falls.
        A coordinate no more than ``FLOOR_TOL`` under the floor 1/(n t) is
        taken to be on it, as `clipped_point` and the floor check accept it.
        A finite coordinate at or above the floor has an exponent of at most 1
        plus a few ulps, far inside the band's 1e-12 slack, so only the plays
        with a coordinate that is not finite (their sum is not finite) or is
        further under the floor evaluate their exponents.
        """
        n, floor = self.dims.n, self.dims.floor
        leaves = np.zeros(len(x), dtype=bool)
        odd = np.flatnonzero(~(np.isfinite(sums) & (np.minimum.reduce(x, axis=1) >= floor - FLOOR_TOL)))
        if odd.size:
            v = x[odd]
            v = np.where(v >= floor - FLOOR_TOL, np.maximum(v, floor), v)
            log_rates = np.maximum(np.log(1.0 / (n * v)) / self.log_t, 0.0)
            leaves[odd] = ~((self.eta_base * np.exp(log_rates)).max(axis=1) <= math.e * self.eta_base * (1.0 + 1e-12))
        return np.logical_or.accumulate(leaves)

    def _check_controller(self, fail, cols, x, sums, grad, starts, first):
        """The controller's checks; returns the recomputed ceilings."""
        epochs = cols["epoch"][0]
        betas, beta = cols["beta"]
        alphas, alpha = cols["alpha"]
        restarts, u = cols["restart"], cols["u"]
        m = len(epochs)
        fail("beta", [i for i, (b, want) in enumerate(zip(betas, cols["beta_want"])) if b != want],
             lambda i: f"beta {betas[i]!r} is not beta_init/2^(epoch-1)")
        fail("budget", [i for i, e in enumerate(epochs) if e > self.budget],
             lambda i: f"epoch {epochs[i]} exceeds budget {self.budget}")
        expected = [1] + [e + restart for e, restart in zip(epochs[:-1], restarts[:-1])]
        fail("sequence", [i for i, (e, want) in enumerate(zip(epochs, expected)) if e != want],
             lambda i: f"epoch {epochs[i]} does not follow the restart sequence (expected {expected[i]})")
        self._check_points(fail, "leader", u, np.add.reduce(u, axis=1), self.dims.floor)

        xg = np.add.reduce(x * grad, axis=1)  # each <x_s, g_s>, as the controller's history sums it
        ceilings = np.empty(m)
        rate_left = np.empty(m, dtype=bool)
        ratios = {}
        for s, e in zip(starts, starts[1:] + [m]):
            block = max(1, _CEILING_BLOCK // (e - s))  # leaders per call of at most _CEILING_BLOCK gaps
            for lo in range(s, e, block):
                hi = min(lo + block, e)
                ceilings[lo:hi] = epoch_ceiling(grad[s:hi], xg[s:hi], u[lo:hi])
            rate_left[s:e] = self._rate_left(x[s:e], sums[s:e])
            i = e - 1
            if restarts[i] and i > s:
                ratios[i] = (float((u[i] / x[s:e]).max()), float((u[i - 1] / x[s:i]).max()))

        fail("ceiling", np.flatnonzero(~(np.abs(ceilings - alpha) <= 1e-12)),
             lambda i: f"recorded ceiling {alphas[i]!r} != recomputed {ceilings[i].item()!r}")
        fail("ceiling_range", np.flatnonzero(~((self.alpha_floor <= alpha) & (alpha <= 0.5))),
             lambda i: f"ceiling {alphas[i]!r} outside [{self.alpha_floor!r}, 0.5]")
        fail("restart", np.flatnonzero(np.array(restarts) != (beta > ceilings)),
             lambda i: "restart flag contradicts the ceiling test")
        fail("rate", np.flatnonzero(rate_left), lambda i: "rate schedule left [eta, e*eta]")
        steps = _ratio_steps(u)
        fail("leader_band", np.flatnonzero(~first & ~(steps <= self.u_band)),
             lambda i: f"leader moved {steps[i].item()!r}, band {self.u_band!r}")
        fail("ratio_max", [i for i, (cur, prev) in ratios.items() if not prev >= 0.5 * cur],
             lambda i: f"ratio-max fell more than half at restart ({ratios[i][1]!r} < {ratios[i][0]!r}/2)")
        fail("earlier", [i for i in ratios if epochs[i - 1] == epochs[i] and alphas[i - 1] < betas[i]],
             lambda i: "ceiling was already below beta a round earlier")
        return ceilings


class _AdaRun:
    """The restart controller behind the ``start``/``step`` learner interface; it takes `AdaConfig`'s settings.

    After each step ``fields`` holds the round's epoch and beta, the ceiling
    and leader after it, and whether it restarted, keyed in the order of
    ``CONTROLLER_FIELDS``, as the runner appends the values.
    """

    __signature__ = inspect.signature(AdaConfig)  # the settings `_build` accepts

    def __init__(self, **settings):
        self.cfg = AdaConfig(**settings)

    def start(self, dims: ProblemDims):
        self.state = ada_init(dims, self.cfg)
        return self

    def step(self, rnd: MarketRound):
        state = self.state
        played, epoch, beta = state.inner.x, state.epoch, state.beta
        loss, _, restarted = ada_step(state, rnd)
        self.fields = {
            "epoch": epoch,
            "beta": beta,
            "alpha": float(state.last_alpha),
            "u": _floats(state.last_u),
            "restart": bool(restarted),
        }
        return played, loss


class _BarronsRun:
    """The fixed-rate learner behind the ``start``/``step`` learner interface: one epoch, fixed beta.

    It runs at `AdaConfig.base_rate` without ``resolve``, which caps the
    base rate at the controller's 1/300.
    """

    def __init__(self, beta: float = AdaConfig.beta, eta: Optional[float] = None):
        self.cfg = AdaConfig(beta, eta)

    def start(self, dims: ProblemDims):
        self.state = barrons_init(dims, self.cfg.beta, self.cfg.base_rate(dims))
        return self

    def step(self, rnd: MarketRound):
        played = self.state.x
        loss, _ = barrons_step(self.state, rnd)
        return played, loss


# Learner name -> its class, which takes the learner's settings by keyword.
_LEARNERS = {
    "ada": _AdaRun,
    "barrons": _BarronsRun,
    "ons": OnsLearner,
    "eg": EgLearner,
    "ogd": OgdLearner,
    "softbayes": SoftBayesLearner,
    "up-grid": UpGridLearner,
}
LEARNER_NAMES = tuple(_LEARNERS)


def _build(learner: str, params: dict):
    """The learner ``learner`` with the settings ``params``; a setting it does not take, or a boolean, raises ValueError.

    Every learner setting is a number or None, and a boolean would pass
    for the number 0 or 1.
    """
    if learner not in _LEARNERS:
        raise ValueError(f"unknown learner {learner!r}; choose from {LEARNER_NAMES}")
    takes = inspect.signature(_LEARNERS[learner]).parameters
    for name in sorted(params):
        if name not in takes:
            raise ValueError(f"{learner} takes no setting {name!r}; it takes {', '.join(takes)}")
        if type(params[name]) is bool:
            raise ValueError(f"{learner} setting {name!r} must be a number, got {params[name]!r}")
    return _LEARNERS[learner](**params)


def run_experiment(
    learner: str,
    rounds: Sequence[MarketRound],
    dims: ProblemDims,
    params: Optional[dict] = None,
    market_desc: str = "",
    seed: Optional[int] = None,
    out_path=None,
) -> ExperimentResult:
    """Run one learner over one market and return its full trace; see `_build` for ``params``.

    Complete and aborted runs end alike: the records are checked once, the
    summary lists any violation and takes the largest gradient norm from
    the checker, and the trace is written to ``out_path`` (when given).  A
    solver failure aborts the run, so it is re-raised after that, with the
    partial trace on disk to inspect the failing round.  A violation is
    recorded, never raised; a record that cannot be checked raises what
    checking it raised.  The config echo's ``solver`` block records the
    solver's constants, ``KKT_TOL`` and ``MAX_NEWTON_ITERS``, as the run
    read them.
    """
    if len(rounds) != dims.t:
        raise ValueError(f"market has {len(rounds)} rounds but dims.t = {dims.t}")
    params = dict(params or {})
    cfg_echo = {
        "learner": learner,
        "n": dims.n,
        "t": dims.t,
        "seed": seed,
        "market": market_desc,
        "params": {k: params[k] for k in sorted(params)},
        "solver": {
            "kkt_tol": solver.KKT_TOL,
            "max_newton_iters": solver.MAX_NEWTON_ITERS,
        },
    }

    per_round_ms: list = []
    started = time.perf_counter()
    # The learner validates its parameters before the checker derives bands from them.
    run = _build(learner, params).start(dims)
    checker = TraceChecker(cfg_echo)
    columns = {key: [] for key in checker.fields}
    appends = [columns[key].append for key in checker.fields]
    crp = crp_loss = failure = None
    try:
        for rnd in rounds:
            tick = time.perf_counter()
            played, loss = run.step(rnd)
            record = (_floats(played), _floats(rnd.r), float(loss), *getattr(run, "fields", {}).values())
            for append, value in zip(appends, record):
                append(value)
            per_round_ms.append(1000.0 * (time.perf_counter() - tick))
        crp, crp_loss = best_crp(rounds, dims)
    except SolverFailure as exc:
        failure = exc
    checked = checker.check_columns(columns)
    if checked.stop is not None:
        raise checked.stop[1]
    summary = _summary(
        columns, checked, None if crp is None else _floats(crp), crp_loss,
        None if failure is None else str(failure),
    )
    result = ExperimentResult(cfg_echo, columns, summary)
    if out_path is not None:
        save_trace(result, out_path, per_round_ms, started)
    if failure is not None:
        raise failure
    return result


def _summary(columns, checked: CheckedRecords, crp_weights, crp_loss, aborted) -> dict:
    """The summary of a run's records, given as columns, their `CheckedRecords`, the comparator and the abort message (None if complete).

    The runner writes it, and `verify_trace` rebuilds it from a persisted
    trace to compare field by field.  The total loss adds the losses one at
    a time from the first round on; ``sum`` compensates from Python 3.12,
    so it would not keep these bits.  A run with no controller columns has
    one epoch and no restart.
    """
    total = 0.0
    for loss in columns["loss"]:
        total += loss
    summary = {
        "total_loss": float(total),
        "best_crp": crp_weights,
        "best_crp_loss": None if crp_loss is None else float(crp_loss),
        "regret": None if crp_loss is None else float(total - crp_loss),
        "rounds_played": len(columns["loss"]),
        "epoch_count": max(columns.get("epoch", ()), default=1),
        "restarts": sum(columns.get("restart", ())),
        "max_grad_inf_norm": max(checked.grad_inf, default=0.0),
        "invariant_violations": checked.problems,
    }
    if aborted is not None:
        summary["aborted"] = aborted
    return summary


def run_market(
    learner: str,
    spec: MarketSpec,
    params: Optional[dict] = None,
    out_path=None,
) -> ExperimentResult:
    """Generate a market from its spec and run a learner over it."""
    rounds = generate(spec)
    desc = spec.kind if not spec.params else f"{spec.kind}({', '.join(f'{k}={v}' for k, v in sorted(spec.params.items()))})"
    return run_experiment(
        learner,
        rounds,
        spec.dims,
        params=params,
        market_desc=desc,
        seed=spec.seed,
        out_path=out_path,
    )


def save_trace(result: ExperimentResult, path, per_round_ms=None, started=None) -> Path:
    """Persist a trace; timestamps live under ``meta`` only."""
    path = Path(path)
    meta = {
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "runtime_ms": None if started is None else 1000.0 * (time.perf_counter() - started),
        "per_round_ms": per_round_ms or [],
    }
    doc = {"meta": meta, "trace": result.trace_dict()}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return path


def load_trace(path) -> dict:
    """The ``trace`` part of a saved trace document, as stored.

    Raises ValueError when the document or its ``trace`` is not a JSON
    object, or when the trace is not of schema ``TRACE_SCHEMA``; the
    message names the schema it found.
    """
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the document is not a JSON object")
    trace = doc.get("trace")
    if trace is not None and not isinstance(trace, dict):
        raise ValueError(f"{path}: its trace is not a JSON object")
    schema = None if trace is None else trace.get("schema")
    if schema != TRACE_SCHEMA:
        raise ValueError(f"{path}: not a {TRACE_SCHEMA} trace (its schema is {schema!r})")
    return trace


def verify_trace(trace: dict) -> list:
    """Recheck a persisted trace from scratch; returns the list of problems.

    A ``TraceChecker`` replays every per-round invariant from the recorded
    plays, rounds and leaders, which the trace holds as columns: its
    ``per_round`` must be an object with a list for each of
    ``RECORD_FIELDS``, and in an ada run of ``CONTROLLER_FIELDS``, all of
    one length, and no other key.  There must be ``config.t``
    records, or no more when the summary says the run was ``aborted``, and
    ``aborted`` must be present exactly when ``best_crp`` is null.  Then
    the summary is rebuilt from the records, the checker's problems and
    gradient norms, and the summary's own comparator and abort message,
    with the runner's function, and every field must equal the recorded
    one.  A record that cannot be checked at all (a field of the wrong type
    or shape, a boolean where a number belongs, an integer too large for a
    float, or a play with no wealth on its round) is reported by its round,
    its position plus one, and the replay stops there.  An empty list means
    the trace is internally consistent.
    """
    summary = trace.get("summary", {})
    try:
        checker = TraceChecker(trace.get("config", {}))
    except _MALFORMED as exc:
        return [f"config: unusable ({exc})"]
    columns = trace.get("per_round")
    problem = _column_problem(columns, checker.fields)
    if problem is not None:
        return [f"per_round: {problem}"]
    checked = checker.check_columns(columns)
    problems = checked.problems
    if checked.stop is not None:
        # The replay stops at a record that cannot be checked at all.
        position, exc = checked.stop
        problems.append(f"round {position + 1}: record cannot be checked ({type(exc).__name__}: {exc})")
        return problems

    if not isinstance(summary, dict):
        problems.append("summary: not an object")
        return problems
    aborted = "aborted" in summary
    m = len(columns["x"])
    if not (m == checker.dims.t or (aborted and m < checker.dims.t)):
        problems.append(f"per_round: {m} records but config.t is {checker.dims.t}")
    if aborted != (summary.get("best_crp") is None):
        problems.append("summary: an aborted run has a best_crp" if aborted else "summary: a complete run has no best_crp")
    try:
        rebuilt = _summary(columns, checked, summary.get("best_crp"), summary.get("best_crp_loss"), summary.get("aborted"))
    except _MALFORMED as exc:
        problems.append(f"summary: cannot be checked against the records ({type(exc).__name__}: {exc})")
        return problems
    for key, value in rebuilt.items():
        if key not in summary:
            problems.append(f"summary: missing {key}")
        elif summary[key] != value:  # values stay out of the message: a list of violations can be long
            problems.append(f"summary: {key} disagrees with the records")
    return problems


def _column_problem(columns, fields) -> Optional[str]:
    """What keeps a trace's ``per_round`` from being the columns ``fields``, of one length, or None."""
    if not isinstance(columns, dict):
        return "not an object"
    for key in fields:
        if key not in columns:
            return f"no {key} column"
        if not isinstance(columns[key], list):
            return f"the {key} column is not a list"
        if len(columns[key]) != len(columns["x"]):
            return f"the {key} column holds {len(columns[key])} entries and the x column {len(columns['x'])}"
    unexpected = sorted(columns.keys() - set(fields))
    return f"unexpected {unexpected[0]} column" if unexpected else None


def sweep(
    learner: str,
    kind: str,
    n: int,
    t_values: Sequence[int],
    reps: int = 1,
    seed: int = 0,
    params: Optional[dict] = None,
    market_params: Optional[dict] = None,
    errors: Optional[list] = None,
):
    """Grid of runs over horizons and repetitions; one row per run.

    Rep ``k`` of any horizon uses seed ``seed + k`` so repetitions differ
    but the whole sweep is reproducible.  ``violations`` counts a run's
    invariant violations.  A failing run contributes a row with its error
    message, its exception is appended to ``errors`` (when given), and the
    sweep continues.  An empty horizon list or ``reps < 1``
    raises ``ValueError``: such a sweep would run nothing.
    """
    if not t_values:
        raise ValueError("sweep needs at least one horizon")
    if reps < 1:
        raise ValueError(f"sweep needs at least one repetition, got reps={reps}")
    rows = []
    for t in t_values:
        for rep in range(reps):
            run_seed = seed + rep
            row = dict.fromkeys(SWEEP_COLUMNS)
            row.update(learner=learner, market=kind, N=int(n), T=int(t), seed=int(run_seed), error="")
            tick = time.perf_counter()
            try:
                spec = MarketSpec(kind, ProblemDims(int(n), int(t)), seed=run_seed, params=dict(market_params or {}))
                result = run_market(learner, spec, params=params)
                row["regret"] = result.summary["regret"]
                row["epochs"] = result.summary["epoch_count"]
                row["G"] = result.summary["max_grad_inf_norm"]
                row["violations"] = len(result.summary["invariant_violations"])
            except (ValueError, SolverFailure) as exc:
                row["error"] = str(exc)
                if errors is not None:
                    errors.append(exc)
            row["runtime_ms"] = 1000.0 * (time.perf_counter() - tick)
            rows.append(row)
    return rows


def write_sweep_csv(rows, path) -> Path:
    import csv as _csv

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = _csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k) for k in SWEEP_COLUMNS})
    return path


def growth_ratios(rows) -> dict:
    """Regret ratios between consecutive horizons of each sweep group.

    Groups rows by (learner, market, N, seed), orders each group by T, and
    reports regret(T_next) / regret(T) pairwise.  A zero or missing
    denominator yields a null ratio rather than an exception; failed runs
    are skipped.
    """
    groups: dict = {}
    for row in rows:
        if row.get("error") or row.get("regret") is None:
            continue
        key = (row["learner"], row["market"], row["N"], row["seed"])
        groups.setdefault(key, []).append((row["T"], row["regret"]))
    out = {}
    for (learner, market, n, seed), pairs in groups.items():
        pairs.sort()
        steps = []
        for (t0, r0), (t1, r1) in zip(pairs, pairs[1:]):
            steps.append(
                {"t_from": t0, "t_to": t1, "ratio": None if r0 == 0.0 else r1 / r0}
            )
        out[f"{learner}|{market}|N={n}|seed={seed}"] = steps
    return out


def write_sweep_json(rows, path) -> Path:
    """Persist a sweep as JSON: the raw rows plus per-group growth ratios."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"rows": rows, "growth_ratios": growth_ratios(rows)}
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return path
