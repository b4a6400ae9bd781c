"""Per-module spans for the traced benchmark run, recorded from outside the package.

Each layer's public functions are wrapped at the module that looks them up,
so the package itself is not edited.  A span's self time is its duration
minus the time its child spans cover.  Solves are attributed to the span that
called them (the mirror-descent step, the leader refit, ONS or best-CRP), and
every solve gets a ``SolveDiagnostics`` so its Newton iterations and barrier
stages are counted even where the caller passes none.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import barrons.adaptive
import barrons.baselines
import barrons.core
import barrons.harness
from barrons.solver import SolveDiagnostics, SolverFailure

# Span that calls the solver -> solve kind reported as ``solver.<kind>``.
_SOLVE_KINDS = {
    "core.barrons_step": "step",
    "adaptive.regularized_leader": "leader",
    "baselines.ons_step": "ons",
    "baselines.best_crp": "best_crp",
}
_SOLVER_COUNTERS = ("calls", "newton", "stages", "one_stage", "failures")

# (module, attribute looked up there, span name)
_WRAPPED = (
    (barrons.harness, "ada_step", "adaptive.ada_step"),
    (barrons.harness, "best_crp", "baselines.best_crp"),
    (barrons.harness, "generate", "markets.generate"),
    (barrons.harness, "save_trace", "harness.save_trace"),
    (barrons.adaptive, "barrons_step", "core.barrons_step"),
    (barrons.adaptive, "regularized_leader", "adaptive.regularized_leader"),
    (barrons.adaptive, "alpha", "adaptive.alpha"),
    (barrons.baselines.OnsLearner, "step", "baselines.ons_step"),
)
_SOLVE_SITES = (barrons.core, barrons.adaptive, barrons.baselines)


class Tracer:
    """Spans and counters of one traced run, kept in memory.

    ``self_s[name]`` and ``calls[name]`` accumulate over every span of that
    name; ``solver[kind]`` holds the solve counters of one solve kind.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.solver = defaultdict(lambda: dict.fromkeys(_SOLVER_COUNTERS, 0))
        self.leader_rows = 0
        self.restarts = 0
        self._stack: list = []  # [name, child seconds] of each open span

    @contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.calls[name] += 1
            self.total_s[name] += elapsed
            self.self_s[name] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if name == "adaptive.regularized_leader":
                self.leader_rows += len(args[0] if args else kwargs["rounds"])
            with self.span(name):
                out = fn(*args, **kwargs)
            if name == "adaptive.ada_step" and out[2]:
                self.restarts += 1
            return out

        return traced

    def _wrap_solve(self, fn):
        def traced(*args, **kwargs):
            # The diagnostics slot is the 5th positional argument or a keyword;
            # barrons_step passes it positionally as None.
            args = list(args)
            if len(args) >= 5:
                if args[4] is None:
                    args[4] = SolveDiagnostics()
                diag = args[4]
            else:
                if kwargs.get("diagnostics") is None:
                    kwargs["diagnostics"] = SolveDiagnostics()
                diag = kwargs["diagnostics"]
            caller = self._stack[-1][0] if self._stack else ""
            kind = _SOLVE_KINDS.get(caller, "other")
            counters = self.solver[kind]
            counters["calls"] += 1
            try:
                with self.span(f"solver.{kind}"):
                    return fn(*args, **kwargs)
            except SolverFailure:
                counters["failures"] += 1
                raise
            finally:
                counters["newton"] += diag.newton_iters
                counters["stages"] += len(diag.stages)
                counters["one_stage"] += len(diag.stages) == 1

        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers into the package for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in _WRAPPED:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self._wrap(name, owner.__dict__[attr]))
            for module in _SOLVE_SITES:
                fn = module.minimize_over_clipped_simplex
                saved.append((module, "minimize_over_clipped_simplex", fn))
                module.minimize_over_clipped_simplex = self._wrap_solve(fn)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, t_horizon: int) -> dict:
    """Per-layer metric values (no units) of one traced run of ``t_horizon`` rounds."""
    out = {}
    for kind in ("step", "leader", "ons"):
        c = tracer.solver[kind]
        out[f"solver.{kind}.calls"] = c["calls"]
        out[f"solver.{kind}.self_s"] = tracer.self_s[f"solver.{kind}"]
        out[f"solver.{kind}.newton_per_solve"] = _ratio(c["newton"], c["calls"])
        out[f"solver.{kind}.stages_per_solve"] = _ratio(c["stages"], c["calls"])
        out[f"solver.{kind}.one_stage_share"] = _ratio(c["one_stage"], c["calls"])
    out["solver.best_crp.self_s"] = tracer.self_s["solver.best_crp"]
    out["solver.failures"] = sum(c["failures"] for c in tracer.solver.values())
    out["core.barrons_step.self_s"] = tracer.self_s["core.barrons_step"]
    out["adaptive.ada_step.self_s"] = tracer.self_s["adaptive.ada_step"]
    out["adaptive.regularized_leader.self_s"] = tracer.self_s["adaptive.regularized_leader"]
    out["adaptive.alpha.self_s"] = tracer.self_s["adaptive.alpha"]
    out["adaptive.leader_rows_per_round"] = tracer.leader_rows / t_horizon
    out["adaptive.restarts"] = tracer.restarts
    out["baselines.ons_step.self_s"] = tracer.self_s["baselines.ons_step"]
    out["baselines.best_crp.self_s"] = tracer.self_s["baselines.best_crp"]
    out["harness.run.self_s"] = tracer.self_s["harness.run"]
    out["harness.save_trace_s"] = tracer.total_s["harness.save_trace"]
    out["harness.load_trace_s"] = tracer.total_s["harness.load_trace"]
    out["harness.verify_trace_s"] = tracer.total_s["harness.verify_trace"]
    out["markets.generate_s"] = tracer.total_s["markets.generate"]
    return out
