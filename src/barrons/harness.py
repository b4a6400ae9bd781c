"""Experiment harness: run learners against markets, trace, verify, sweep.

Traces are JSON documents with two top-level keys: ``meta`` (timestamps and
wall-clock readings, the only nondeterministic content) and ``trace`` (the
config echo, per-round records, and summary).  The trace part serializes
canonically, so identical runs produce byte-identical bodies.

One run loop drives every learner through its ``start``/``step`` interface,
and one ``TraceChecker`` holds every per-round invariant.  The runner feeds
it each record as it is built; in the default mode a violation is recorded
in the summary and the run completes, while ``strict=True`` raises
immediately.  ``verify`` feeds the same checker a persisted trace, so a
trace is self-certifying: it carries the played points, the rounds, and the
leaders needed to recompute every quantity it claims.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .adaptive import ETA_MAX, AdaConfig, EpochHistory, ada_init, ada_step, epoch_budget
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
    loss_grad_arrays,
)
from .markets import MarketSpec, generate
from .solver import SolverConfig, SolverFailure

__all__ = [
    "LEARNER_NAMES",
    "TRACE_SCHEMA",
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

TRACE_SCHEMA = "portfolio-trace/1"
LEARNER_NAMES = ("ada", "barrons", "ons", "eg", "ogd", "softbayes", "up-grid")

# Clipped-simplex learners; the rest live on the full simplex.
_CLIPPED = {"ada", "barrons", "ons"}

_X_BAND_SLACK = 1e-8
_U_BAND_SLACK = 1e-8

# Fields the checker derives; verify allows each a gap of tol * max(1, |value|).
_DERIVED_TOL = {"grad_inf": 1e-9, "x_ratio": 1e-12, "u_ratio": 1e-12, "ratio_max": 1e-12, "ratio_max_prev": 1e-12}


@dataclass
class ExperimentResult:
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


# Summary fields that verify_trace checks against the records.
_SUMMARY_CHECKED = ("total_loss", "best_crp_loss", "regret", "max_grad_inf_norm", "epoch_count", "restarts")


def _floats(arr) -> list:
    return np.asarray(arr, dtype=float).tolist()


def _ratio_dev(cur: list, prev: list) -> float:
    """``np.abs(cur / prev - 1.0).max()`` of two lists of floats, as a float.

    Python floats give the same result while every ratio is finite.  A zero,
    infinite or NaN coordinate takes numpy's formula: Python raises on
    division by zero, and its max skips a NaN that numpy's max returns.
    """
    try:
        devs = [abs(a / b - 1.0) for a, b in zip(cur, prev)]
        if math.isfinite(sum(devs)):  # so no term is NaN
            return max(devs)
    except ZeroDivisionError:
        pass
    return float(np.abs(np.asarray(cur, dtype=float) / np.asarray(prev, dtype=float) - 1.0).max())


def _ada_config(params: dict) -> AdaConfig:
    """The settings an ``ada`` or ``barrons`` run was given, with `AdaConfig`'s defaults for the rest.

    A ``barrons`` run is one epoch at ``beta_init`` and ``base_rate``; it
    skips ``resolve``, which caps the base rate at the controller's 1/300.
    """
    keywords = {"beta": "beta_init", "eta": "eta_base", "gamma": "gamma"}
    return AdaConfig(**{kw: params[key] for key, kw in keywords.items() if key in params})


class TraceChecker:
    """Every per-round invariant of the run whose config echo is ``config``, one record at a time.

    Plays must lie on their simplex, reproduce the recorded losses, and stay
    in their stability band (fixed-rate and adaptive) or keep their weight
    sum (baselines).  Adaptive records are also checked against the
    controller's rules: beta per epoch, epoch budget and sequence, leader
    and its band, ceiling and restart flag, rate schedule, ratio-max.  A
    violation is appended to ``problems``; with ``strict`` it also raises.
    Every test is written so that a NaN fails it.

    A record costs O(n), plus for an adaptive record the ceiling over the
    m rounds of its epoch: one O(m n) matrix-vector product over the
    round-major gradients of an ``EpochHistory``.  The rate schedule costs
    one min() per round while the plays stay on the clipped simplex.  The
    plays of the epoch are kept as lists of floats, which the ratio-max
    check at a restart reads once, in O(m n).
    """

    def __init__(self, config: dict, strict: bool = False):
        self.dims = dims = ProblemDims(int(config["n"]), int(config["t"]))
        self.learner = config.get("learner")
        self.strict = strict
        self.problems: list = []
        self.floor = dims.floor if self.learner in _CLIPPED else 0.0
        self.cum = 0.0
        self.prev = None  # previous record
        self.prev_sum = None  # weight sum of the previous play (baselines)
        self.epoch_xs: list = []  # plays of the current epoch as lists of floats (ada, barrons)
        if self.learner not in ("ada", "barrons"):
            return
        params = config.get("params", {})
        cfg = _ada_config(params)
        if self.learner == "ada":
            cfg = cfg.resolve(dims)
        self.beta_init, self.eta_base = cfg.beta_init, cfg.base_rate(dims)
        # The play band is proved for base rates up to 1/300 only.
        self.x_band = math.sqrt(3.0 * self.eta_base) / 2.0 + _X_BAND_SLACK if self.eta_base <= ETA_MAX else math.inf
        if self.learner == "ada":
            self.u_band = math.sqrt(cfg.gamma) / 2.0 + _U_BAND_SLACK
            self.alpha_floor = 1.0 / (16.0 * dims.n * dims.t)
            self.budget = epoch_budget(dims)
            self.history = EpochHistory(dims.t, dims.n)
            self.log_t = np.log(dims.t)
            self.rate_left = False  # whether the epoch's rate schedule has left its band
            self.prev_u = None  # previous leader of the current epoch, as a list of floats

    def _fail(self, t, message: str):
        message = f"round {t}: {message}"
        self.problems.append(message)
        if self.strict:
            raise AssertionError(f"invariant violation: {message}")

    def _check_point(self, t, name: str, v: np.ndarray, vals: list, floor: float) -> float:
        """Check that ``v`` sums to 1 with no coordinate under ``floor``; return its sum.

        ``vals`` is ``v`` as a list of floats.  A NaN or infinite coordinate
        fails the sum test, so the floor test's min() only matters on finite
        coordinates.
        """
        total = float(np.add.reduce(v))  # v.sum(), without the method's overhead
        if not abs(total - 1.0) <= SUM_TOL:
            self._fail(t, f"{name} sums to {total!r}")
        lo = min(vals)  # exact, and faster than ndarray.min() on a few coordinates
        if not lo >= floor - FLOOR_TOL:
            self._fail(t, f"{name} coordinate {lo!r} under the floor {floor!r}")
        return total

    def _rate_schedule_left(self, x: np.ndarray, xs: list, total: float) -> bool:
        """Whether the epoch's rate schedule has left [eta, e*eta] by the play ``x``.

        ``xs`` is ``x`` as a list of floats and ``total`` its sum.  The
        schedule is eta times exp of the running max of the rate exponents
        log_t(1/(n x_i)), clipped at 0 so it never falls under eta; a NaN
        exponent leaves the band.  Once left, the schedule stays out for the
        rest of the epoch, since that running max never falls, so a play
        only needs testing while the schedule is still in.  A finite
        coordinate at or above the floor 1/(n t) has an exponent of at most
        1 plus a few ulps, far inside the band's 1e-12 slack, so a play
        whose coordinates are all finite (its sum is finite) and at or above
        the floor passes without evaluating its exponents.  A run that keeps
        its plays on the clipped simplex thus costs one min() per round
        here, against five O(n) array passes.
        """
        if not self.rate_left and not (math.isfinite(total) and min(xs) >= self.dims.floor):
            log_rates = np.maximum(np.log(1.0 / (self.dims.n * x)) / self.log_t, 0.0)
            self.rate_left = not (self.eta_base * np.exp(log_rates)).max() <= math.e * self.eta_base * (1.0 + 1e-12)
        return self.rate_left

    def check(self, rec: dict) -> dict:
        """Check one record; return its derived ``grad_inf``, ``x_ratio`` and ``u_ratio``
        (None without an earlier play or leader in the epoch), plus ``ratio_max`` and
        ``ratio_max_prev`` at a restart that ends an epoch of two or more rounds.
        """
        t = rec["t"]
        x = np.array(rec["x"], dtype=float)
        xs = x.tolist()
        r = np.array(rec["r"], dtype=float)
        total = self._check_point(t, "play", x, xs, self.floor)
        loss, grad = loss_grad_arrays(x, r)
        loss = float(loss)
        # A NaN price relative or play makes the recomputed loss NaN, which fails here.
        if not abs(loss - rec["loss"]) <= 1e-12 * max(1.0, abs(loss)):
            self._fail(t, f"recorded loss {rec['loss']!r} != recomputed {loss!r}")
        self.cum += rec["loss"]
        if not abs(self.cum - rec["cum_loss"]) <= 1e-9:
            self._fail(t, "cumulative loss drifts from the per-round sum")
        grads = grad.tolist()
        # max() skips a NaN that numpy's max returns, but a NaN gradient has already failed the loss test.
        derived = {"grad_inf": max(map(abs, grads)), "x_ratio": None, "u_ratio": None}
        if self.learner in ("ada", "barrons"):
            if self.epoch_xs:
                dev = _ratio_dev(xs, self.epoch_xs[-1])
                derived["x_ratio"] = dev
                if not dev <= self.x_band:
                    self._fail(t, f"play moved {dev!r}, band {self.x_band!r}")
            self.epoch_xs.append(xs)
            if self.learner == "ada":
                self._check_controller(rec, x, xs, total, r, grad, derived)
        else:
            if self.prev_sum is not None and not abs(total - self.prev_sum) <= 1e-12:
                self._fail(t, f"step changed the weight sum by {abs(total - self.prev_sum)!r}")
            self.prev_sum = total
        self.prev = rec
        return derived

    def _check_controller(self, rec, x, xs, total, r, grad, derived):
        t, epoch, beta, a = rec["t"], rec["epoch"], rec["beta"], rec["alpha"]
        restart = bool(rec["restart"])
        if beta != self.beta_init * 0.5 ** (epoch - 1):
            self._fail(t, f"beta {beta!r} is not beta_init/2^(epoch-1)")
        if epoch > self.budget:
            self._fail(t, f"epoch {epoch} exceeds budget {self.budget}")
        expected = 1 if self.prev is None else self.prev["epoch"] + bool(self.prev["restart"])
        if epoch != expected:
            self._fail(t, f"epoch {epoch} does not follow the restart sequence (expected {expected})")
        u = np.array(rec["u"], dtype=float)
        us = u.tolist()
        self._check_point(t, "leader", u, us, self.dims.floor)
        self.history.append(r, x, grad)
        ceiling = self.history.ceiling(u)
        if not abs(ceiling - a) <= 1e-12:
            self._fail(t, f"recorded ceiling {a!r} != recomputed {ceiling!r}")
        if not (self.alpha_floor <= a <= 0.5):
            self._fail(t, f"ceiling {a!r} outside [{self.alpha_floor!r}, 0.5]")
        if restart != (beta > ceiling):
            self._fail(t, "restart flag contradicts the ceiling test")
        if self._rate_schedule_left(x, xs, total):
            self._fail(t, "rate schedule left [eta, e*eta]")
        if self.prev_u is not None:
            dev = _ratio_dev(us, self.prev_u)
            derived["u_ratio"] = dev
            if not dev <= self.u_band:
                self._fail(t, f"leader moved {dev!r}, band {self.u_band!r}")
        if not restart:
            self.prev_u = us
            return
        if len(self.epoch_xs) >= 2:
            a_cur = float((u / np.array(self.epoch_xs)).max())
            a_prev = float((np.array(self.prev_u) / np.array(self.epoch_xs[:-1])).max())
            derived["ratio_max"] = a_cur
            derived["ratio_max_prev"] = a_prev
            if not a_prev >= 0.5 * a_cur:
                self._fail(t, f"ratio-max fell more than half at restart ({a_prev!r} < {a_cur!r}/2)")
            if self.prev["epoch"] == epoch and self.prev["alpha"] < beta:
                self._fail(t, "ceiling was already below beta a round earlier")
        self.epoch_xs = []
        self.history.clear()
        self.rate_left = False
        self.prev_u = None


class _AdaRun:
    """The restart controller behind the ``start``/``step`` learner interface.

    After each step ``fields`` holds the round's epoch and beta, the ceiling
    and leader after it, and whether it restarted.
    """

    def __init__(self, params: dict):
        self.cfg = _ada_config(params)

    def start(self, dims: ProblemDims, solver_cfg: Optional[SolverConfig] = None):
        self.state = ada_init(dims, self.cfg)
        self.solver_cfg = solver_cfg
        return self

    def step(self, rnd: MarketRound):
        state = self.state
        played, epoch, beta = state.inner.x, state.epoch, state.beta
        loss, _, restarted = ada_step(state, rnd, self.solver_cfg)
        self.fields = {
            "epoch": epoch,
            "beta": beta,
            "alpha": float(state.last_alpha),
            "u": _floats(state.last_u),
            "restart": bool(restarted),
        }
        return played, loss


class _BarronsRun:
    """The fixed-rate learner behind the ``start``/``step`` learner interface: one epoch, fixed beta."""

    def __init__(self, params: dict):
        self.cfg = _ada_config(params)
        self.beta = self.cfg.beta_init

    def start(self, dims: ProblemDims, solver_cfg: Optional[SolverConfig] = None):
        self.state = barrons_init(dims, self.beta, self.cfg.base_rate(dims))
        self.solver_cfg = solver_cfg
        self.fields = {"epoch": 1, "beta": self.beta, "alpha": None, "u": None, "restart": False}
        return self

    def step(self, rnd: MarketRound):
        played = self.state.x
        loss, _ = barrons_step(self.state, rnd, self.solver_cfg)
        return played, loss


def _given(params: dict, *names: str) -> dict:
    return {name: params[name] for name in names if name in params}


# Learner name -> constructor from the params the run was given; keys match LEARNER_NAMES.
_BUILDERS = {
    "ada": _AdaRun,
    "barrons": _BarronsRun,
    "ons": lambda p: OnsLearner(**_given(p, "beta", "mix")),
    "eg": lambda p: EgLearner(**_given(p, "eta", "g_est", "mix")),
    "ogd": lambda p: OgdLearner(**_given(p, "eta")),
    "softbayes": lambda p: SoftBayesLearner(**_given(p, "eta")),
    "up-grid": lambda p: UpGridLearner(**_given(p, "resolution")),
}


def run_experiment(
    learner: str,
    rounds: Sequence[MarketRound],
    dims: ProblemDims,
    params: Optional[dict] = None,
    solver_cfg: Optional[SolverConfig] = None,
    strict: bool = False,
    market_desc: str = "",
    seed: Optional[int] = None,
    out_path=None,
) -> ExperimentResult:
    """Run one learner over one market and return its full trace.

    Solver failures abort the run but persist the partial trace to
    ``out_path`` (when given) before re-raising, so the failing round can
    be inspected.
    """
    if learner not in LEARNER_NAMES:
        raise ValueError(f"unknown learner {learner!r}; choose from {LEARNER_NAMES}")
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
            "kkt_tol": (solver_cfg or SolverConfig()).kkt_tol,
            "max_newton_iters": (solver_cfg or SolverConfig()).max_newton_iters,
        },
        "strict": strict,
    }

    records: list = []
    per_round_ms: list = []
    started = time.perf_counter()
    # The learner validates its parameters before the checker derives bands from them.
    run = _BUILDERS[learner](params).start(dims, solver_cfg)
    checker = TraceChecker(cfg_echo, strict)
    plain = {"epoch": 1, "beta": getattr(run, "beta", None), "alpha": None, "u": None, "restart": False}
    cum = 0.0
    try:
        for t, rnd in enumerate(rounds, start=1):
            tick = time.perf_counter()
            played, loss = run.step(rnd)
            cum += loss
            rec = {
                "t": t,
                **getattr(run, "fields", plain),
                "x": _floats(played),
                "r": _floats(rnd.r),
                "loss": float(loss),
                "cum_loss": float(cum),
            }
            rec.update(checker.check(rec))
            records.append(rec)
            per_round_ms.append(1000.0 * (time.perf_counter() - tick))
        crp, crp_loss = best_crp(rounds, dims, solver_cfg)
    except SolverFailure as failure:
        result = _assemble(cfg_echo, records, checker.problems, None, None, aborted=str(failure))
        if out_path is not None:
            save_trace(result, out_path, per_round_ms, started)
        raise

    result = _assemble(cfg_echo, records, checker.problems, _floats(crp), crp_loss, None)
    if out_path is not None:
        save_trace(result, out_path, per_round_ms, started)
    return result


def _assemble(cfg_echo, records, violations, crp_weights, crp_loss, aborted):
    total = records[-1]["cum_loss"] if records else 0.0
    summary = {
        "total_loss": float(total),
        "best_crp": crp_weights,
        "best_crp_loss": None if crp_loss is None else float(crp_loss),
        "regret": None if crp_loss is None else float(total - crp_loss),
        "rounds_played": len(records),
        "epoch_count": max((rec["epoch"] for rec in records), default=1),
        "restarts": sum(1 for rec in records if rec["restart"]),
        "max_grad_inf_norm": max((rec["grad_inf"] for rec in records), default=0.0),
        "invariant_violations": list(violations),
    }
    if aborted is not None:
        summary["aborted"] = aborted
    return ExperimentResult(cfg_echo, records, summary)


def run_market(
    learner: str,
    spec: MarketSpec,
    params: Optional[dict] = None,
    solver_cfg: Optional[SolverConfig] = None,
    strict: bool = False,
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
        solver_cfg=solver_cfg,
        strict=strict,
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
    """The ``trace`` part of a saved trace document.

    Raises ValueError when the document or its ``trace`` is not a JSON
    object, or when the trace is not of schema ``TRACE_SCHEMA``.
    """
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the document is not a JSON object")
    trace = doc.get("trace")
    if trace is not None and not isinstance(trace, dict):
        raise ValueError(f"{path}: its trace is not a JSON object")
    if trace is None or trace.get("schema") != TRACE_SCHEMA:
        raise ValueError(f"{path}: not a {TRACE_SCHEMA} trace")
    return trace


def verify_trace(trace: dict) -> list:
    """Recheck a persisted trace from scratch; returns the list of problems.

    A ``TraceChecker`` replays every per-round invariant from the recorded
    plays, rounds and leaders, and the fields it derives (gradient norm,
    play and leader ratios, ratio maxima) must match the recorded ones.
    Then the summary arithmetic is recomputed.  A record that cannot be
    checked at all (a field missing, of the wrong type or shape, or a play
    with no wealth on its round) is reported by its round, and the replay
    stops there.  An empty list means the trace is internally consistent.
    """
    records = trace.get("per_round", [])
    summary = trace.get("summary", {})
    try:
        checker = TraceChecker(trace.get("config", {}))
    except (KeyError, TypeError, ValueError) as exc:
        return [f"config: unusable ({exc})"]
    problems = checker.problems  # the checker appends its findings here
    for position, rec in enumerate(records, start=1):
        try:
            derived = checker.check(rec)
            for key, value in derived.items():
                recorded = rec.get(key)
                if value == recorded:
                    continue
                if value is None or recorded is None or not abs(value - recorded) <= _DERIVED_TOL[key] * max(1.0, abs(value)):
                    problems.append(f"round {rec['t']}: recorded {key} {recorded!r} != recomputed {value!r}")
        except (KeyError, TypeError, ValueError) as exc:
            # A partly checked record leaves the checker's state undefined, so the replay stops here.
            # The round is the record's position, since its own "t" may be what is malformed.
            problems.append(f"round {position}: record cannot be checked ({type(exc).__name__}: {exc})")
            return problems

    if not isinstance(summary, dict):
        problems.append("summary: not an object")
        return problems
    if not records:
        return problems
    try:
        missing = [key for key in _SUMMARY_CHECKED if key not in summary]
        if missing:
            problems.append(f"summary: missing {', '.join(missing)}")
        total = records[-1]["cum_loss"]
        if "total_loss" in summary and not abs(summary["total_loss"] - total) <= 1e-9:
            problems.append("summary: total_loss disagrees with the last cumulative loss")
        crp_loss = summary.get("best_crp_loss")
        regret = summary.get("regret")
        if crp_loss is not None and regret is not None:  # both None in an aborted run
            if not abs(regret - (total - crp_loss)) <= 1e-9:
                problems.append("summary: regret is not total_loss - best_crp_loss")
        g = max(rec["grad_inf"] for rec in records)
        if "max_grad_inf_norm" in summary and not abs(summary["max_grad_inf_norm"] - g) <= 1e-9 * max(1.0, g):
            problems.append("summary: max gradient norm mismatch")
        epochs = max(rec["epoch"] for rec in records)
        if "epoch_count" in summary and summary["epoch_count"] != epochs:
            problems.append("summary: epoch_count mismatch")
        restarts = sum(1 for rec in records if rec["restart"])
        if "restarts" in summary and summary["restarts"] != restarts:
            problems.append("summary: restart count mismatch")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"summary: cannot be checked against the records ({type(exc).__name__}: {exc})")
    return problems


def sweep(
    learner: str,
    kind: str,
    n: int,
    t_values: Sequence[int],
    reps: int = 1,
    seed: int = 0,
    params: Optional[dict] = None,
    market_params: Optional[dict] = None,
    solver_cfg: Optional[SolverConfig] = None,
):
    """Grid of runs over horizons and repetitions; one row per run.

    Rep ``k`` of any horizon uses seed ``seed + k`` so repetitions differ
    but the whole sweep is reproducible.  A failing run contributes a row
    with its error message and the sweep continues.
    """
    if not t_values:
        raise ValueError("sweep needs at least one horizon")
    rows = []
    for t in t_values:
        for rep in range(reps):
            run_seed = seed + rep
            row = {
                "learner": learner,
                "market": kind,
                "N": int(n),
                "T": int(t),
                "seed": int(run_seed),
                "regret": None,
                "epochs": None,
                "G": None,
                "runtime_ms": None,
                "error": "",
            }
            tick = time.perf_counter()
            try:
                spec = MarketSpec(kind, ProblemDims(int(n), int(t)), seed=run_seed, params=dict(market_params or {}))
                result = run_market(learner, spec, params=params, solver_cfg=solver_cfg)
                row["regret"] = result.summary["regret"]
                row["epochs"] = result.summary["epoch_count"]
                row["G"] = result.summary["max_grad_inf_norm"]
            except (ValueError, SolverFailure) as exc:
                row["error"] = str(exc)
            row["runtime_ms"] = 1000.0 * (time.perf_counter() - tick)
            rows.append(row)
    return rows


def write_sweep_csv(rows, path) -> Path:
    import csv as _csv

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = ["learner", "market", "N", "T", "seed", "regret", "epochs", "G", "runtime_ms", "error"]
    with path.open("w", newline="") as fh:
        writer = _csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k) for k in fields})
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
