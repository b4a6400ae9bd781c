"""Digest every trace body over a fixed grid of runs, to prove a refactor changes nothing.

    PYTHONPATH=src python3 scripts/trace_digests.py > digests.json

The grid is every learner on every market kind at n in {2, 5} and
T in {64, 256}, with strict checking off and on, all at market seed 3
(224 runs, about 20 s on one core).  For each run it prints the sha256 of
the canonical trace body, the number of invariant violations recorded, and
the problems ``verify_trace`` finds in the body; a run that raises prints
its exception instead.  Run it at two commits and diff the outputs: equal
output means byte-identical trace bodies that both verifiers accept alike.
"""

from __future__ import annotations

import hashlib
import json
import sys

from barrons.domain import ProblemDims
from barrons.harness import LEARNER_NAMES, run_market, verify_trace
from barrons.markets import MARKET_KINDS, MarketSpec
from barrons.solver import SolverFailure

SEED = 3
N_VALUES = (2, 5)
T_VALUES = (64, 256)


def digest(learner: str, kind: str, n: int, t: int, strict: bool) -> dict:
    spec = MarketSpec(kind, ProblemDims(n, t), seed=SEED)
    try:
        result = run_market(learner, spec, strict=strict)
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
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
