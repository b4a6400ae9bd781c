"""Experiment harness: run learners against markets, trace, verify, sweep.

Traces are JSON documents with two top-level keys: ``meta`` (timestamps and
wall-clock readings, the only nondeterministic content) and ``trace`` (the
config echo, per-round records, and summary).  The trace part serializes
canonically, so identical runs produce byte-identical bodies.

The runner checks module invariants online every round; in the default mode
a violation is recorded in the summary and the run completes, while
``strict=True`` raises immediately.  ``verify`` replays all of those checks
offline from a persisted trace, so a trace is self-certifying: it carries
the played points, the rounds, and the leaders needed to recompute every
quantity it claims.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .adaptive import AdaConfig, EpochHistory, ada_init, ada_step, default_eta, epoch_budget
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
from .markets import MarketSpec, generate, load_csv
from .solver import SolverConfig, SolverFailure

__all__ = [
    "LEARNER_NAMES",
    "TRACE_SCHEMA",
    "ExperimentResult",
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


def _floats(arr) -> list:
    return [float(v) for v in np.asarray(arr)]


def _note(violations: list, strict: bool, message: str):
    violations.append(message)
    if strict:
        raise AssertionError(f"invariant violation: {message}")


def _check_simplex(x, dims, clipped, t, violations, strict):
    total = float(np.sum(x))
    if abs(total - 1.0) > SUM_TOL:
        _note(violations, strict, f"round {t}: play sums to {total!r}")
    lo = float(np.min(x))
    floor = dims.floor if clipped else 0.0
    if lo < floor - FLOOR_TOL:
        _note(violations, strict, f"round {t}: coordinate {lo!r} under the floor {floor!r}")


def _ratio_dev(cur, prev) -> float:
    return float(np.max(np.abs(np.asarray(cur) / np.asarray(prev) - 1.0)))


def _log_rates(x, dims) -> np.ndarray:
    """Per-coordinate exponents of the rate schedule earned by playing x.

    The schedule after a round is ``eta * exp(running max of these over the
    epoch's plays)``.
    """
    return np.clip(np.log(1.0 / (dims.n * x)) / np.log(dims.t), 0.0, None)


def _ratio_max(u, xs_rows) -> float:
    """max_i,s of u_i / x_s,i over the given played points."""
    stacked = np.stack(xs_rows)
    return float((np.asarray(u) / stacked).max())


def _build_learner(name: str, dims: ProblemDims, params: dict):
    if name == "ons":
        return OnsLearner(beta=params.get("beta", 0.5), mix=params.get("mix", 0.0))
    if name == "eg":
        return EgLearner(eta=params.get("eta"), g_est=params.get("g_est"), mix=params.get("mix", 0.0))
    if name == "ogd":
        return OgdLearner(eta=params.get("eta"))
    if name == "softbayes":
        return SoftBayesLearner(eta=params.get("eta"))
    if name == "up-grid":
        return UpGridLearner(resolution=params.get("resolution"))
    raise ValueError(f"unknown learner {name!r}; choose from {LEARNER_NAMES}")


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
    violations: list = []
    per_round_ms: list = []
    started = time.perf_counter()
    try:
        if learner == "ada":
            _run_ada(rounds, dims, params, solver_cfg, strict, records, violations, per_round_ms)
        elif learner == "barrons":
            _run_barrons(rounds, dims, params, solver_cfg, strict, records, violations, per_round_ms)
        else:
            _run_baseline(learner, rounds, dims, params, solver_cfg, strict, records, violations, per_round_ms)
        crp, crp_loss = best_crp(rounds, dims, solver_cfg)
        aborted = None
    except SolverFailure as failure:
        result = _assemble(cfg_echo, records, violations, None, None, aborted=str(failure))
        if out_path is not None:
            save_trace(result, out_path, per_round_ms, started)
        raise

    result = _assemble(cfg_echo, records, violations, _floats(crp.x), crp_loss, aborted)
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


def _base_record(t, epoch, beta, x, rnd, loss, cum, grad_inf):
    return {
        "t": t,
        "epoch": epoch,
        "beta": beta,
        "x": _floats(x),
        "r": _floats(rnd.r),
        "loss": float(loss),
        "cum_loss": float(cum),
        "grad_inf": float(grad_inf),
        "alpha": None,
        "u": None,
        "restart": False,
        "x_ratio": None,
        "u_ratio": None,
    }


def _run_ada(rounds, dims, params, solver_cfg, strict, records, violations, per_round_ms):
    cfg = AdaConfig(
        beta_init=params.get("beta", 0.5),
        eta_base=params.get("eta"),
        gamma=params.get("gamma", 1.0 / 25.0),
    )
    state = ada_init(dims, cfg)
    eta_base = state.eta_base
    beta_init = state.cfg.beta_init
    x_band = math.sqrt(3.0 * eta_base) / 2.0 + _X_BAND_SLACK
    u_band = math.sqrt(state.gamma) / 2.0 + _U_BAND_SLACK
    alpha_floor = 1.0 / (16.0 * dims.n * dims.t)
    budget = epoch_budget(dims)

    cum = 0.0
    epoch_xs: list = []        # played points of the current epoch (harness copy)
    log_max = None             # running max of _log_rates over epoch_xs
    prev_u = None              # previous round's leader within the epoch
    prev_eta = None
    for t, rnd in enumerate(rounds, start=1):
        tick = time.perf_counter()
        x_played = state.inner.x.copy()
        beta_played = state.beta
        epoch_played = state.epoch
        state, record, restarted = ada_step(state, rnd, solver_cfg)
        cum += record.loss
        grad_inf = float(np.abs(record.gradient).max())
        u_now = np.asarray(state.last_u)
        a_now = state.last_alpha
        epoch_xs.append(x_played)

        rec = _base_record(t, epoch_played, beta_played, x_played, rnd, record.loss, cum, grad_inf)
        rec["alpha"] = float(a_now)
        rec["u"] = _floats(u_now)
        rec["restart"] = bool(restarted)

        _check_simplex(x_played, dims, True, t, violations, strict)
        _check_simplex(u_now, dims, True, t, violations, strict)

        if abs(beta_played - beta_init * 0.5 ** (epoch_played - 1)) > 0.0:
            _note(violations, strict, f"round {t}: beta {beta_played!r} is not beta_init/2^(epoch-1)")
        if not (alpha_floor <= a_now <= 0.5):
            _note(violations, strict, f"round {t}: ceiling {a_now!r} outside [{alpha_floor!r}, 0.5]")
        if epoch_played > budget:
            _note(violations, strict, f"round {t}: epoch {epoch_played} exceeds budget {budget}")

        # Rate schedule: recomputable from played points, banded, monotone.
        log_rates = _log_rates(x_played, dims)
        log_max = log_rates if log_max is None else np.maximum(log_max, log_rates)
        eta_now = eta_base * np.exp(log_max)
        band_hi = math.e * eta_base * (1.0 + 1e-12)
        if eta_now.min() < eta_base * (1.0 - 1e-12) or eta_now.max() > band_hi:
            _note(violations, strict, f"round {t}: rate schedule left [eta, e*eta]")
        if prev_eta is not None and np.any(eta_now < prev_eta * (1.0 - 1e-12)):
            _note(violations, strict, f"round {t}: rate schedule decreased")

        if len(epoch_xs) >= 2:
            dev = _ratio_dev(x_played, epoch_xs[-2])
            rec["x_ratio"] = dev
            if dev > x_band:
                _note(violations, strict, f"round {t}: play moved {dev!r}, band {x_band!r}")
        if prev_u is not None:
            dev = _ratio_dev(u_now, prev_u)
            rec["u_ratio"] = dev
            if dev > u_band:
                _note(violations, strict, f"round {t}: leader moved {dev!r}, band {u_band!r}")

        if restarted:
            if beta_played * 0.5 != state.beta:
                _note(violations, strict, f"round {t}: restart did not halve beta")
            if len(epoch_xs) >= 2:
                a_cur = _ratio_max(u_now, epoch_xs)
                a_prev = _ratio_max(prev_u, epoch_xs[:-1])
                rec["ratio_max"] = a_cur
                rec["ratio_max_prev"] = a_prev
                if a_prev < 0.5 * a_cur:
                    _note(
                        violations,
                        strict,
                        f"round {t}: ratio-max fell more than half at restart ({a_prev!r} < {a_cur!r}/2)",
                    )
                prev_rec = records[-1] if records else None
                if prev_rec is not None and prev_rec["epoch"] == epoch_played:
                    if prev_rec["alpha"] < beta_played:
                        _note(violations, strict, f"round {t}: ceiling was already below beta a round earlier")
            epoch_xs = []
            log_max = None
            prev_u = None
            prev_eta = None
        else:
            prev_u = u_now
            prev_eta = eta_now

        records.append(rec)
        per_round_ms.append(1000.0 * (time.perf_counter() - tick))


def _run_barrons(rounds, dims, params, solver_cfg, strict, records, violations, per_round_ms):
    beta = params.get("beta", 0.5)
    eta_base = params.get("eta")
    if eta_base is None:
        eta_base = default_eta(dims)
    state = barrons_init(dims, beta, eta_base)
    x_band = math.sqrt(3.0 * eta_base) / 2.0 + _X_BAND_SLACK
    check_band = eta_base <= 1.0 / 300.0

    cum = 0.0
    prev_x = None
    for t, rnd in enumerate(rounds, start=1):
        tick = time.perf_counter()
        x_played = state.x.copy()
        state, record = barrons_step(state, rnd, solver_cfg)
        cum += record.loss
        grad_inf = float(np.abs(record.gradient).max())
        rec = _base_record(t, 1, beta, x_played, rnd, record.loss, cum, grad_inf)
        _check_simplex(x_played, dims, True, t, violations, strict)
        if prev_x is not None:
            dev = _ratio_dev(x_played, prev_x)
            rec["x_ratio"] = dev
            if check_band and dev > x_band:
                _note(violations, strict, f"round {t}: play moved {dev!r}, band {x_band!r}")
        prev_x = x_played
        records.append(rec)
        per_round_ms.append(1000.0 * (time.perf_counter() - tick))


def _run_baseline(name, rounds, dims, params, solver_cfg, strict, records, violations, per_round_ms):
    learner = _build_learner(name, dims, params).start(dims, solver_cfg)
    clipped = name in _CLIPPED
    cum = 0.0
    prev_sum = None
    for t, rnd in enumerate(rounds, start=1):
        tick = time.perf_counter()
        played, loss = learner.step(rnd)
        cum += loss
        _, grad = loss_grad_arrays(played, rnd.r)
        rec = _base_record(t, 1, params.get("beta", 0.5) if name == "ons" else None, played, rnd, loss, cum, float(np.abs(grad).max()))
        _check_simplex(played, dims, clipped, t, violations, strict)
        total = float(np.sum(played))
        if prev_sum is not None and abs(total - prev_sum) > 1e-12:
            _note(violations, strict, f"round {t}: step changed the weight sum by {abs(total - prev_sum)!r}")
        prev_sum = total
        records.append(rec)
        per_round_ms.append(1000.0 * (time.perf_counter() - tick))


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
    doc = json.loads(Path(path).read_text())
    if "trace" not in doc or doc["trace"].get("schema") != TRACE_SCHEMA:
        raise ValueError(f"{path}: not a {TRACE_SCHEMA} trace")
    return doc["trace"]


def verify_trace(trace: dict) -> list:
    """Recheck a persisted trace from scratch; returns the list of problems.

    Losses, gradients, ceilings, rate schedules, stability bands, restart
    bookkeeping, the epoch budget, and the summary arithmetic are all
    recomputed from the recorded plays and rounds.  An empty list means the
    trace is internally consistent.
    """
    problems: list = []
    config = trace.get("config", {})
    records = trace.get("per_round", [])
    summary = trace.get("summary", {})
    learner = config.get("learner")
    try:
        dims = ProblemDims(int(config["n"]), int(config["t"]))
    except Exception as exc:
        return [f"config: bad dimensions ({exc})"]
    clipped = learner in _CLIPPED or learner == "ada"

    params = config.get("params", {})
    beta_init = params.get("beta", 0.5)
    eta_base = params.get("eta")
    if eta_base is None:
        eta_base = default_eta(dims)
    gamma = params.get("gamma", 1.0 / 25.0)
    x_band = math.sqrt(3.0 * eta_base) / 2.0 + _X_BAND_SLACK
    u_band = math.sqrt(gamma) / 2.0 + _U_BAND_SLACK
    alpha_floor = 1.0 / (16.0 * dims.n * dims.t)
    budget = epoch_budget(dims)

    cum = 0.0
    epoch_xs: list = []
    history = EpochHistory(dims.t, dims.n)
    log_max = None
    prev_rec = None
    prev_u = None
    for rec in records:
        t = rec["t"]
        x = np.array(rec["x"], dtype=float)
        r = np.array(rec["r"], dtype=float)
        if abs(x.sum() - 1.0) > SUM_TOL:
            problems.append(f"round {t}: play sums to {float(x.sum())!r}")
        floor = dims.floor if clipped else 0.0
        if float(x.min()) < floor - FLOOR_TOL:
            problems.append(f"round {t}: coordinate below the floor")
        loss, grad = loss_grad_arrays(x, r)
        if abs(loss - rec["loss"]) > 1e-12 * max(1.0, abs(loss)):
            problems.append(f"round {t}: recorded loss {rec['loss']!r} != recomputed {loss!r}")
        cum += rec["loss"]
        if abs(cum - rec["cum_loss"]) > 1e-9:
            problems.append(f"round {t}: cumulative loss drifts from the per-round sum")
        grad_inf = float(np.abs(grad).max())
        if abs(grad_inf - rec["grad_inf"]) > 1e-9 * max(1.0, grad_inf):
            problems.append(f"round {t}: recorded gradient norm mismatch")

        if learner == "ada":
            restart = bool(rec["restart"])
            epoch = rec["epoch"]
            beta = rec["beta"]
            if abs(beta - beta_init * 0.5 ** (epoch - 1)) > 0.0:
                problems.append(f"round {t}: beta inconsistent with epoch index")
            if epoch > budget:
                problems.append(f"round {t}: epoch {epoch} exceeds budget {budget}")
            if prev_rec is not None:
                expected_epoch = prev_rec["epoch"] + (1 if prev_rec["restart"] else 0)
                if epoch != expected_epoch:
                    problems.append(f"round {t}: epoch index does not follow the restart sequence")
            elif epoch != 1:
                problems.append(f"round {t}: first round must open epoch 1")

            u = np.array(rec["u"], dtype=float)
            if abs(u.sum() - 1.0) > SUM_TOL or float(u.min()) < dims.floor - FLOOR_TOL:
                problems.append(f"round {t}: leader leaves the clipped simplex")
            epoch_xs.append(x)
            history.append(r, x, grad)
            ceiling = history.ceiling(u)
            if abs(ceiling - rec["alpha"]) > 1e-12:
                problems.append(f"round {t}: recorded ceiling {rec['alpha']!r} != recomputed {ceiling!r}")
            if not (alpha_floor <= rec["alpha"] <= 0.5):
                problems.append(f"round {t}: ceiling outside its provable range")
            if restart != (beta > ceiling):
                problems.append(f"round {t}: restart flag contradicts the ceiling test")

            log_rates = _log_rates(x, dims)
            log_max = log_rates if log_max is None else np.maximum(log_max, log_rates)
            eta_now = eta_base * np.exp(log_max)
            if eta_now.min() < eta_base * (1 - 1e-12) or eta_now.max() > math.e * eta_base * (1 + 1e-12):
                problems.append(f"round {t}: rate schedule left its band")

            if len(epoch_xs) >= 2:
                dev = float(np.max(np.abs(x / epoch_xs[-2] - 1.0)))
                if dev > x_band:
                    problems.append(f"round {t}: play stability band broken ({dev!r} > {x_band!r})")
                if rec["x_ratio"] is not None and abs(dev - rec["x_ratio"]) > 1e-12:
                    problems.append(f"round {t}: recorded x_ratio mismatch")
            if prev_u is not None:
                dev = float(np.max(np.abs(u / prev_u - 1.0)))
                if dev > u_band:
                    problems.append(f"round {t}: leader stability band broken ({dev!r} > {u_band!r})")

            if restart:
                if len(epoch_xs) >= 2:
                    a_cur = float((u / np.stack(epoch_xs)).max())
                    a_prev = float((prev_u / np.stack(epoch_xs[:-1])).max())
                    if a_prev < 0.5 * a_cur:
                        problems.append(f"round {t}: ratio-max more than halved at restart")
                    if prev_rec is not None and prev_rec["epoch"] == epoch and prev_rec["alpha"] < beta:
                        problems.append(f"round {t}: ceiling had already failed a round earlier")
                epoch_xs = []
                history.clear()
                log_max = None
                prev_u = None
            else:
                prev_u = u
        prev_rec = rec

    if records:
        total = records[-1]["cum_loss"]
        if abs(summary.get("total_loss", np.nan) - total) > 1e-9:
            problems.append("summary: total_loss disagrees with the last cumulative loss")
        crp_loss = summary.get("best_crp_loss")
        regret = summary.get("regret")
        if crp_loss is not None and regret is not None:
            if abs(regret - (total - crp_loss)) > 1e-9:
                problems.append("summary: regret is not total_loss - best_crp_loss")
        g = max(rec["grad_inf"] for rec in records)
        if abs(summary.get("max_grad_inf_norm", np.nan) - g) > 1e-9 * max(1.0, g):
            problems.append("summary: max gradient norm mismatch")
        epochs = max(rec["epoch"] for rec in records)
        if summary.get("epoch_count") != epochs:
            problems.append("summary: epoch_count mismatch")
        restarts = sum(1 for rec in records if rec["restart"])
        if summary.get("restarts") != restarts:
            problems.append("summary: restart count mismatch")
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
