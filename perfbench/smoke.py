"""Smoke test of the benchmark at toy size (T=64); takes about half a minute.

    python3 perfbench/smoke.py

For each workload it checks that run.py passes its correctness gate and emits
every metric named in BENCHMARK.json, with its unit, in both modes; and that
a traced and an untraced repetition give the same regret, epoch count and
trace body, so tracing changes no behaviour.  It also checks that layers.json
maps exactly the per-layer metrics.  Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

from run import HERE, OUT_DIR, ROOT, TOY_T, WORKLOADS, load_json, market_seed, run_once
from tracer import Tracer

SEED = 5


def check(ok: bool, message: str):
    if not ok:
        raise SystemExit(f"smoke: {message}")


def check_command(name: str, trace: int, declared: list):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    where = f"{name} --trace {trace}"
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{where}:\n{out.stdout}")
    units = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == units, f"{where}: metrics and units {got} != declared {units}")
    for key, metric in result["metrics"].items():
        value = metric["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {key} = {value!r}")


def main():
    bench = load_json(ROOT / "BENCHMARK.json")
    per_layer = {m["name"] for m in bench["per_layer"]}
    check(set(load_json(HERE / "layers.json")) == per_layer, "layers.json does not map exactly the per-layer metrics")
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / "smoke.json"
    for name, wl in WORKLOADS.items():
        check_command(name, 0, bench["end_to_end"])
        check_command(name, 1, bench["per_layer"])
        plain = run_once(wl, TOY_T, market_seed(wl, SEED), trace_path)
        traced = run_once(wl, TOY_T, market_seed(wl, SEED), trace_path, Tracer())
        for key in ("regret", "epochs", "body_sha256"):
            check(plain[key] == traced[key], f"{name}: traced {key} {traced[key]!r} != untraced {plain[key]!r}")
        check(not plain["problems"] and not traced["problems"], f"{name}: {plain['problems'] + traced['problems']}")
        print(f"smoke {name}: ok")
    trace_path.unlink(missing_ok=True)


if __name__ == "__main__":
    main()
