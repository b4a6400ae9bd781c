"""Write the benchmark's seed-commit reference files.

    python3 perfbench/calibrate.py

reference.json: regret and epoch count of every input the benchmark can make
(each workload at its own horizon and at the smoke-test horizon, and every
market seed of a seeded workload).  The correctness gate compares each run
against it, so regenerate it only on the commit whose behaviour is the
reference, never to make a changed program pass.

layers.json: for each per-layer metric of BENCHMARK.json, the span it reads,
the end-to-end metrics and workloads it is predicted to move, and the span's
share of ``run_s`` (or of ``verify_s`` for the read side) in traced runs of
each workload at seed 0.
"""

from __future__ import annotations

import json
import os
import statistics

from run import (
    HERE,
    MARKET_SEEDS,
    OUT_DIR,
    ROOT,
    TOY_T,
    WORKLOADS,
    load_json,
    reference_key,
    run_once,
)
from tracer import Tracer

ADA = ("ada_blowup", "ada_iid5")
ALL = tuple(WORKLOADS)

# span -> (end-to-end metric, workloads it should move); from the traced
# prototype of the seed commit.  An empty list predicts no move anywhere.
PREDICTIONS = {
    "solver.step": [("run_s", ADA), ("round_ms_p50", ADA)],
    "solver.leader": [("run_s", ADA), ("round_ms_p99", ADA)],
    "solver.ons": [("run_s", ("ons_blowup",))],
    "solver.best_crp": [],
    "solver": [],
    "core.barrons_step": [("run_s", ADA)],
    "adaptive.ada_step": [("run_s", ADA), ("round_ms_p99", ADA)],
    "adaptive.regularized_leader": [("run_s", ADA), ("round_ms_p99", ADA)],
    "adaptive.alpha": [("run_s", ADA), ("round_ms_p99", ADA)],
    "baselines.ons_step": [("run_s", ("ons_blowup",))],
    "baselines.best_crp": [],
    "harness.run": [("run_s", ("ada_blowup",))],
    "harness.save_trace": [("run_s", ALL)],
    "harness.load_trace": [("verify_s", ALL)],
    "harness.verify_trace": [("verify_s", ADA)],
    "markets.generate": [("setup_s", ALL)],
    "tracing": [],
}
# Metrics whose span is not their name's prefix.
SPAN_OF = {
    "solver.failures": "solver",
    "adaptive.leader_rows_per_round": "adaptive.regularized_leader",
    "adaptive.restarts": "adaptive.ada_step",
    "harness.trace_bytes": "harness.save_trace",
}
READ_SIDE = {"harness.load_trace", "harness.verify_trace"}


def span_of(metric: str) -> str:
    if metric in SPAN_OF:
        return SPAN_OF[metric]
    for span in sorted(PREDICTIONS, key=len, reverse=True):
        if metric.startswith(span + ".") or metric.startswith(span + "_"):
            return span
    raise KeyError(f"no span predicts {metric}")


def references() -> dict:
    refs = {}
    trace_path = OUT_DIR / f"calibrate-{os.getpid()}.json"
    for name, wl in WORKLOADS.items():
        for t in (wl.t, TOY_T):
            for mseed in range(MARKET_SEEDS if wl.seeded else 1):
                rep = run_once(wl, t, mseed, trace_path)
                if rep["problems"]:
                    raise SystemExit(f"{name} T={t} seed={mseed}: {rep['problems'][:3]}")
                refs[reference_key(name, t, mseed)] = {"regret": rep["regret"], "epochs": rep["epochs"]}
                print(reference_key(name, t, mseed), refs[reference_key(name, t, mseed)], flush=True)
    trace_path.unlink(missing_ok=True)
    return refs


def span_shares(reps: int = 3) -> dict:
    """span -> workload -> share of run_s (verify_s for the read side), seed 0.

    Each share is the median over a few traced repetitions, because the
    machine's speed can change within one.
    """
    trace_path = OUT_DIR / f"calibrate-{os.getpid()}.json"
    samples = {}
    for name, wl in WORKLOADS.items():
        for _ in range(reps):
            tracer = Tracer()
            rep = run_once(wl, wl.t, 0, trace_path, tracer)
            for span in PREDICTIONS:
                if span in READ_SIDE:
                    share = tracer.total_s[span] / sum(tracer.total_s[s] for s in READ_SIDE)
                elif span in ("markets.generate", "harness.save_trace"):
                    share = tracer.total_s[span] / rep["run_s"]
                else:
                    share = tracer.self_s[span] / rep["run_s"]
                samples.setdefault(span, {}).setdefault(name, []).append(share)
    trace_path.unlink(missing_ok=True)
    return {
        span: {name: round(statistics.median(v), 4) for name, v in by_wl.items()}
        for span, by_wl in samples.items()
    }


def layer_map(shares: dict) -> dict:
    bench = load_json(ROOT / "BENCHMARK.json")
    out = {}
    for metric in (m["name"] for m in bench["per_layer"]):
        span = span_of(metric)
        out[metric] = {
            "span": span,
            "moves": [{"metric": m, "workload": w} for m, wls in PREDICTIONS[span] for w in wls],
            "share_of": "verify_s" if span in READ_SIDE else "run_s",
            "seed_share": shares.get(span),
        }
    return out


def main():
    OUT_DIR.mkdir(exist_ok=True)
    shares = span_shares()
    shares["solver"] = shares["tracing"] = None
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in layer_map(shares).items()]
    (HERE / "layers.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    (HERE / "reference.json").write_text(json.dumps(references(), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
