"""Digest every trace body over a fixed grid of runs, to prove a refactor changes nothing.

    python3 scripts/trace_digests.py > digests.json

The main grid is every learner on every market kind at n in {2, 5} and
T in {64, 256}, with strict checking off and on, all at market seed 3
(224 runs).  A second grid covers non-default settings at T=64 on every
market kind and n in {2, 5}: each entry of ``NON_DEFAULT`` (learner
parameters, and one solver configuration for the learners that call the
solver), 128 runs.  A third, wide grid runs ada, barrons and ons on every
market kind at n=10 and T=64 (12 runs), where the solver's reduced Newton
system has nine columns and its step sums many terms.  Last come the
benchmark's two inputs, ada and ons on blowup at n=2 and T=512, so the
proof covers the runs being timed.  The 366 runs take about 35 s on one
core.  The package is imported from the ``src`` directory beside this
script.

For each run it prints the sha256 of the canonical trace body, the number
of invariant violations recorded, and the problems ``verify_trace`` finds
in the body; a run that raises prints its exception instead.  Run it at
two commits and diff the outputs: equal output means byte-identical trace
bodies that both verifiers accept alike.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from barrons.domain import ProblemDims
from barrons.harness import LEARNER_NAMES, run_market, verify_trace
from barrons.markets import MARKET_KINDS, MarketSpec
from barrons.solver import SolverConfig, SolverFailure

SEED = 3
N_VALUES = (2, 5)
T_VALUES = (64, 256)
WIDE_LEARNERS = ("ada", "barrons", "ons")
WIDE_N = 10
BENCHMARK_RUNS = ("ada", "ons")  # perfbench's ada_blowup and ons_blowup: blowup, n=2, T=512

# (learner, params, solver kkt_tol and max_newton_iters or None for the default solver)
NON_DEFAULT = [
    ("ons", {"beta": 0.25}, None),
    ("ons", {"beta": 1.0, "mix": 0.1}, None),
    ("eg", {"mix": 0.1}, None),
    ("eg", {"g_est": 5.0}, None),
    ("ada", {"beta": 0.25}, None),
    ("ada", {"gamma": 0.02}, None),
    ("ada", {"eta": 1e-3}, None),
    ("barrons", {"eta": 1e-3}, None),
    ("barrons", {"beta": 0.25, "eta": 2e-3}, None),
    ("ada", {}, (1e-8, 40)),
    ("barrons", {}, (1e-8, 40)),
    ("ons", {}, (1e-8, 40)),
    ("eg", {}, (1e-8, 40)),
    ("softbayes", {}, (1e-8, 40)),
    ("ogd", {"eta": 0.05}, None),
    ("softbayes", {"eta": 0.05}, None),
]


def digest(learner: str, kind: str, n: int, t: int, strict: bool, params=None, solver=None) -> dict:
    spec = MarketSpec(kind, ProblemDims(n, t), seed=SEED)
    solver_cfg = None if solver is None else SolverConfig(kkt_tol=solver[0], max_newton_iters=solver[1])
    try:
        result = run_market(learner, spec, params=params, solver_cfg=solver_cfg, strict=strict)
    except (ValueError, AssertionError, SolverFailure) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    body = result.body_json()
    return {
        "sha256": hashlib.sha256(body.encode()).hexdigest(),
        "violations": len(result.summary["invariant_violations"]),
        "verify": verify_trace(json.loads(body)),
    }


def main() -> int:
    out = {}
    for learner in LEARNER_NAMES:
        for kind in MARKET_KINDS:
            for n in N_VALUES:
                for t in T_VALUES:
                    for strict in (False, True):
                        out[f"{learner}/{kind}/n={n}/T={t}/strict={int(strict)}"] = digest(learner, kind, n, t, strict)
    for learner, params, solver in NON_DEFAULT:
        parts = [f"{k}={v}" for k, v in sorted(params.items())]
        if solver is not None:
            parts.append(f"solver={solver[0]:g}/{solver[1]}")
        setting = ",".join(parts)
        for kind in MARKET_KINDS:
            for n in N_VALUES:
                out[f"{learner}[{setting}]/{kind}/n={n}/T=64"] = digest(learner, kind, n, 64, False, params, solver)
    for learner in WIDE_LEARNERS:
        for kind in MARKET_KINDS:
            out[f"{learner}/{kind}/n={WIDE_N}/T=64/strict=0"] = digest(learner, kind, WIDE_N, 64, False)
    for learner in BENCHMARK_RUNS:
        out[f"{learner}/blowup/n=2/T=512/strict=0"] = digest(learner, "blowup", 2, 512, False)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
