"""Digest every trace body over a fixed grid of runs, to prove a refactor changes nothing.

    python3 scripts/trace_digests.py > digests.json

The main grid is every learner on every market kind at n in {2, 5} and
T in {64, 256}, all at market seed 3 (112 runs).  A second grid covers non-default settings at T=64 on every
market kind and n in {2, 5}: each entry of ``NON_DEFAULT`` (learner
parameters), 88 runs.  A third, wide grid runs on every market kind: ada,
barrons and ons at n=10 and T=64 (12 runs), where the solver's reduced
Newton system has nine columns and its step sums many terms, ada and
barrons at n=50 and T=64 (8 runs), where the leader's Hessian is a
50-column matrix product, and ada and barrons at n=100 and T=128 (8 runs;
the horizon must exceed n), where the leader's Hessian is summed in blocks
of rounds.  ONS is left out at n >= 50, where its solves fall back to the
slow barrier path.  Last come the benchmark's two inputs, ada and ons on
blowup at n=2 and T=512, so the proof covers the runs being timed.  The
230 runs take about 6 s on one core.  The package is imported from the ``src``
directory beside this script.

For each run it prints the sha256 of the body's canonical rendering, the
number of invariant violations recorded, and the problems ``verify_trace``
finds in the body; a run that raises prints its exception instead.  The
canonical rendering holds the records as rows, one object per round,
keeps only the columns that a ``portfolio-trace/4`` body of the run's
learner holds, and drops the ``schema`` key.  So bodies whose schemas
store the same records in other layouts, or store beside them what the
harness derives or fixes (schema 3's round, cumulative loss and one-epoch
controller fields), compare equal when they hold the same config, records
and summary.  Run it at two commits and diff the outputs: equal output
means identical trace bodies that both verifiers accept alike.

A change that may move the leader or the play in their last bits (the
leader refit's summation order, or a solve's warm start, say) changes
every body digest as soon as one value moves by an ulp.  Two options
prove such a change instead:

    python3 scripts/trace_digests.py --bodies parent_bodies > parent.json   # at the parent
    python3 scripts/trace_digests.py --against parent_bodies > change.json  # at the change

``--bodies DIR`` writes each run's body, as the run serializes it, to DIR.
``--against DIR`` adds to each run an ``against`` entry with:

- ``identical``: whether its canonical rendering is identical to that of
  the body in DIR;
- ``identical_except_leader``: whether it is once the fields that depend
  on the leader are blanked (per round ``u`` and ``alpha``; in the
  summary ``best_crp``, ``best_crp_loss`` and ``regret``);
- ``identical_controller``: for each controller column the body holds
  (``epoch``, ``beta`` and ``restart``), whether it is identical;
- ``moves``: the largest relative move of each leader field and of the
  play's ``x`` and ``loss`` (``regret`` also as an absolute move,
  ``regret_abs``).

A summary goes to standard error: how many runs are identical, identical
but for the leader, and identical in all their controller columns, and
the largest move of each field over every run.

A change to the checkers is proved on traces that fail them:

    python3 scripts/trace_digests.py --tamper > tamper.json

``--tamper`` skips the grid.  It runs ada, barrons, ons and eg on the
blowup market at n=2 and T=64, applies each of the 79 entries of
``TAMPERS`` (one field of one record, or the per-round columns, the
summary or the config) to a fresh copy of the learner's body, and prints
the full list of problems ``verify_trace`` finds in it (or the exception
it raises).  A record's field is the entry of its column.  The entries
trigger every message of the checker, of the record count, of the column
shape and of the summary comparison, and repeat the NaN, floor-tolerance,
malformed-record, boolean, extreme-integer, unexpected-column,
setting-not-taken, setting-out-of-range, boolean-setting, non-integral-size
and off-market-relatives cases of the tests.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from barrons.domain import FLOOR_TOL, ProblemDims
from barrons.harness import LEARNER_NAMES, TraceChecker, run_market, verify_trace
from barrons.markets import MARKET_KINDS, MarketSpec
from barrons.solver import SolverFailure

SEED = 3
N_VALUES = (2, 5)
T_VALUES = (64, 256)
WIDE_GRID = ((("ada", "barrons", "ons"), 10, 64), (("ada", "barrons"), 50, 64), (("ada", "barrons"), 100, 128))  # (learners, n, T)
BENCHMARK_RUNS = ("ada", "ons")  # perfbench's ada_blowup and ons_blowup: blowup, n=2, T=512

# (learner, params)
NON_DEFAULT = [
    ("ons", {"beta": 0.25}),
    ("ons", {"beta": 1.0, "mix": 0.1}),
    ("eg", {"mix": 0.1}),
    ("eg", {"g_est": 5.0}),
    ("ada", {"beta": 0.25}),
    ("ada", {"gamma": 0.02}),
    ("ada", {"eta": 1e-3}),
    ("barrons", {"eta": 1e-3}),
    ("barrons", {"beta": 0.25, "eta": 2e-3}),
    ("ogd", {"eta": 0.05}),
    ("softbayes", {"eta": 0.05}),
]


# Fields whose values depend on the leader, per round and in the summary.
LEADER_RECORD_FIELDS = ("u", "alpha")
LEADER_SUMMARY_FIELDS = ("best_crp", "best_crp_loss", "regret")
# Per-round fields of the play, whose moves --against reports beside the leader's.
PLAY_RECORD_FIELDS = ("x", "loss")
# Per-round fields of the restart controller, which --against reports as identical or not.
CONTROLLER_RECORD_FIELDS = ("epoch", "beta", "restart")


def rows(columns: dict) -> list:
    """Record columns transposed back to rows, one dict per round."""
    return [dict(zip(columns, entries)) for entries in zip(*columns.values())]


def as_rows(body: dict) -> dict:
    """A parsed body with no ``schema`` key and its records as rows of the fields a schema-4 body of its learner holds."""
    fields = TraceChecker(body["config"]).fields
    rendered = {**body, "per_round": rows({key: body["per_round"][key] for key in fields})}
    del rendered["schema"]
    return rendered


def canonical(body: dict) -> str:
    """The canonical rendering of a parsed body: records as rows of its learner's schema-4 fields, no ``schema`` key."""
    return json.dumps(as_rows(body), sort_keys=True, separators=(",", ":"))


def digest(learner: str, kind: str, n: int, t: int, params=None):
    """One run's digest entry, and its body (None when the run raised)."""
    spec = MarketSpec(kind, ProblemDims(n, t), seed=SEED)
    try:
        result = run_market(learner, spec, params=params)
    except (ValueError, SolverFailure) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}, None
    body = result.body_json()
    entry = {
        "sha256": hashlib.sha256(canonical(json.loads(body)).encode()).hexdigest(),
        "violations": len(result.summary["invariant_violations"]),
        "verify": verify_trace(json.loads(body)),
    }
    return entry, body


def _flat(value) -> list:
    """A field's value as a flat list of numbers and Nones."""
    return list(value) if isinstance(value, list) else [value]


def _without_leader(body: dict):
    """The body's canonical rendering with every leader field set to None, the values of the play and
    leader fields, and the columns of the controller fields the body holds."""
    body = as_rows(body)
    pulled = {field: [] for field in PLAY_RECORD_FIELDS + LEADER_RECORD_FIELDS + LEADER_SUMMARY_FIELDS}
    controller = {field: [rec[field] for rec in body["per_round"]]
                  for field in CONTROLLER_RECORD_FIELDS if body["per_round"] and field in body["per_round"][0]}
    for rec in body["per_round"]:
        for field in PLAY_RECORD_FIELDS + LEADER_RECORD_FIELDS:
            if field in rec:
                pulled[field] += _flat(rec[field])
                if field in LEADER_RECORD_FIELDS:
                    rec[field] = None
    for field in LEADER_SUMMARY_FIELDS:
        if field in body["summary"]:
            pulled[field] += _flat(body["summary"][field])
            body["summary"][field] = None
    return json.dumps(body, sort_keys=True, separators=(",", ":")), pulled, controller


def compare(body: str, old_body: str) -> dict:
    """How ``body`` differs from ``old_body`` in the canonical rendering: identical, identical but for the leader
    fields, whether each controller field is identical, and how far the play and leader fields moved."""
    rest, new, controller = _without_leader(json.loads(body))
    old_rest, old, old_controller = _without_leader(json.loads(old_body))
    same_shape = all(
        len(new[f]) == len(old[f]) and all((a is None) == (b is None) for a, b in zip(new[f], old[f]))
        for f in new
    )
    moves = {}
    if same_shape:
        for field in new:
            pairs = [(a, b) for a, b in zip(new[field], old[field]) if a is not None]
            moves[field] = max((abs(a - b) / abs(b) if b else abs(a - b) for a, b in pairs), default=0.0)
        moves["regret_abs"] = max((abs(a - b) for a, b in zip(new["regret"], old["regret"]) if a is not None), default=0.0)
    return {
        "identical": canonical(json.loads(body)) == canonical(json.loads(old_body)),
        "identical_except_leader": same_shape and rest == old_rest,
        "identical_controller": {
            field: controller.get(field) == old_controller.get(field) for field in controller.keys() | old_controller.keys()
        },
        "moves": moves,
    }


def grid():
    """Every run of the proof as (name, digest arguments)."""
    for learner in LEARNER_NAMES:
        for kind in MARKET_KINDS:
            for n in N_VALUES:
                for t in T_VALUES:
                    yield f"{learner}/{kind}/n={n}/T={t}", (learner, kind, n, t)
    for learner, params in NON_DEFAULT:
        setting = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
        for kind in MARKET_KINDS:
            for n in N_VALUES:
                yield f"{learner}[{setting}]/{kind}/n={n}/T=64", (learner, kind, n, 64, params)
    for learners, n, t in WIDE_GRID:
        for learner in learners:
            for kind in MARKET_KINDS:
                yield f"{learner}/{kind}/n={n}/T={t}", (learner, kind, n, t)
    for learner in BENCHMARK_RUNS:
        yield f"{learner}/blowup/n=2/T=512", (learner, "blowup", 2, 512)


def same_wealth_relatives(columns: dict, index: int) -> dict:
    """The columns with record ``index``'s relatives (1, r1) made (1.01, r1 - 0.01 x0/x1): the play's wealth is kept."""
    x, r = columns["x"][index], columns["r"][index]
    relatives = list(columns["r"])
    relatives[index] = [1.01 * r[0], r[1] - 0.01 * r[0] * x[0] / x[1]]
    return {**columns, "r": relatives}


_FLOOR = 1.0 / 128.0  # the clipped-simplex floor 1/(nT) at n=2, T=64

# (learner, name, record index or None for the trace itself, field, the new value as a function of the old one).
# Round 20 (index 19) closes the ada run's first epoch.  A record's field is the entry at the record's index of
# the field's column.
TAMPERS = [
    ("ada", "play_sum", 10, "x", lambda x: [x[0] + 1e-6, x[1]]),
    ("ada", "play_floor", 10, "x", lambda x: [-1e-3, 1.0 + 1e-3]),
    ("ada", "leader_sum", 10, "u", lambda u: [u[0] + 1e-6, u[1]]),
    ("ada", "leader_floor", 10, "u", lambda u: [1e-3, 1.0 - 1e-3]),
    ("ada", "loss", 10, "loss", lambda v: v + 1e-6),
    ("ada", "beta", 10, "beta", lambda v: v / 2.0),
    ("ada", "epoch_budget", 63, "epoch", lambda v: 99),
    ("ada", "epoch_sequence", 10, "epoch", lambda v: v + 1),
    ("ada", "ceiling_recorded", 10, "alpha", lambda v: 0.4999),
    ("ada", "ceiling_range", 10, "alpha", lambda v: 0.6),
    ("ada", "restart_flag", 19, "restart", lambda v: not v),
    ("ada", "rate_schedule", 10, "x", lambda x: [_FLOOR * (1.0 - 1e-6), 1.0 - _FLOOR * (1.0 - 1e-6)]),
    # A coordinate within FLOOR_TOL under the floor is on it for both the floor and the rate checks.
    ("ada", "play_within_floor_tol", 10, "x", lambda x: [_FLOOR - 1e-13, 1.0 - _FLOOR + 1e-13]),
    ("ada", "play_past_floor_tol", 10, "x", lambda x: [_FLOOR - 2.0 * FLOOR_TOL, 1.0 - _FLOOR + 2.0 * FLOOR_TOL]),
    ("ada", "leader_band", 10, "u", lambda u: [0.9, 0.1]),
    ("ada", "ratio_max_halves", 19, "x", lambda x: [0.99, 0.01]),
    ("ada", "ceiling_earlier", 18, "alpha", lambda v: 0.25),
    ("ada", "total_loss", None, "summary", lambda s: {**s, "total_loss": s["total_loss"] + 0.5}),
    ("ada", "rounds_played", None, "summary", lambda s: {**s, "rounds_played": 10}),
    ("ada", "invariant_violations", None, "summary", lambda s: {**s, "invariant_violations": ["x"]}),
    ("ada", "huge_best_crp_loss", None, "summary", lambda s: {**s, "best_crp_loss": 10**400}),
    # The shape of the columns.
    ("ada", "columns_not_an_object", None, "per_round", rows),
    ("ada", "missing_column", None, "per_round", lambda cols: {k: v for k, v in cols.items() if k != "loss"}),
    ("ada", "short_column", None, "per_round", lambda cols: {**cols, "x": cols["x"][:-1]}),
    ("ada", "unexpected_column", None, "per_round", lambda cols: {**cols, "t": list(range(1, 65))}),
    ("ons", "unexpected_column", None, "per_round", lambda cols: {**cols, "epoch": [1] * 64}),
    ("ada", "horizon_past_records", None, "config", lambda c: {**c, "t": 128}),
    ("ada", "aborted_complete_run", None, "summary", lambda s: {**s, "aborted": "x"}),
    ("ada", "null_best_crp", None, "summary", lambda s: {**s, "best_crp": None}),
    ("barrons", "play_band", 10, "x", lambda x: [0.6, 0.4]),
    ("ons", "weight_sum", 10, "x", lambda x: [c * (1.0 + 1e-11) for c in x]),
    ("eg", "weight_sum", 10, "x", lambda x: [c * (1.0 + 1e-11) for c in x]),
    # The NaN cases of tests/test_harness.py.
    *[(learner, "nan_play", 10, "x", lambda x: [math.nan, math.nan]) for learner in ("ada", "barrons", "ons", "eg")],
    *[(learner, "nan_loss", 10, "loss", lambda v: math.nan) for learner in ("ada", "eg")],
    *[(learner, "nan_relative", 10, "r", lambda r: [1.0, math.nan]) for learner in ("ada", "ons")],
    # The malformed-record cases of tests/test_harness.py.
    ("ons", "dead_play", 10, "x", lambda x: [-1.0, 2.0]),
    ("ons", "one_coordinate", 10, "x", lambda x: [1.0]),
    ("eg", "string_play", 10, "x", lambda x: "abc"),
    ("ada", "null_leader", 10, "u", lambda u: None),
    ("ada", "string_epoch", 10, "epoch", lambda v: "2"),
    # Booleans where a number belongs, and a restart flag that is not a boolean.
    ("eg", "true_loss", 10, "loss", lambda v: True),
    ("ada", "true_epoch", 10, "epoch", lambda v: True),
    ("ada", "null_restart", 10, "restart", lambda v: None),
    ("ada", "integer_restart", 10, "restart", lambda v: 1),
    # Extreme integers, which overflow a float.
    ("ada", "epoch_overflows_beta", 10, "epoch", lambda v: -2000),
    ("ada", "huge_epoch", 10, "epoch", lambda v: 10**400),
    ("ada", "huge_loss", 10, "loss", lambda v: 10**400),
    ("eg", "huge_loss", 10, "loss", lambda v: 10**400),
    ("ada", "huge_horizon", None, "config", lambda c: {**c, "t": 10**400}),
    # A setting the learner does not take.
    ("ada", "setting_not_taken", None, "config", lambda c: {**c, "params": {**c["params"], "mix": 0.1}}),
    ("eg", "setting_not_taken", None, "config", lambda c: {**c, "params": {**c["params"], "gamma": 0.02}}),
    # A setting outside its range (Python's json writes a NaN), and a size that is not an integral number.
    ("ons", "nan_beta", None, "config", lambda c: {**c, "params": {**c["params"], "beta": math.nan}}),
    ("eg", "negative_eta", None, "config", lambda c: {**c, "params": {**c["params"], "eta": -1}}),
    ("eg", "zero_g_est", None, "config", lambda c: {**c, "params": {**c["params"], "g_est": 0}}),
    ("ons", "fractional_n", None, "config", lambda c: {**c, "n": 2.5}),
    ("ons", "string_horizon", None, "config", lambda c: {**c, "t": "64"}),
    # A boolean setting, which would pass for the number 0 or 1.
    *[(learner, f"{value}_{key}".lower(), None, "config", lambda c, key=key, value=value: {**c, "params": {**c["params"], key: value}})
      for learner, key, value in (("eg", "eta", True), ("eg", "g_est", True), ("ons", "beta", True), ("ons", "mix", False),
                                  ("barrons", "eta", True))],
    # Relatives that are not a market round: an infinite one, a largest one that is not 1 with the play's wealth
    # kept, and a boolean in place of the 1.0.
    *[(learner, "infinite_relative", 10, "r", lambda r: [math.inf, r[1]]) for learner in ("barrons", "ons", "eg")],
    *[(learner, "same_wealth_relatives", None, "per_round", lambda cols: same_wealth_relatives(cols, 10))
      for learner in ("ons", "eg")],
    *[(learner, "true_relative", 10, "r", lambda r: [True, r[1]]) for learner in ("ada", "ons", "eg")],
    # A vector entry spelled as a string, which float() reads back to the recorded number.
    *[(learner, "string_relative", 10, "r", lambda r: [repr(r[0]), r[1]]) for learner in ("ada", "ons", "eg")],
    ("barrons", "string_play", 10, "x", lambda x: [repr(x[0]), x[1]]),
    ("ada", "string_leader", 10, "u", lambda u: [repr(u[0]), u[1]]),
]

def tampered(body: dict, index, field, change) -> dict:
    """A copy of the parsed ``body`` with one tamper applied."""
    body = copy.deepcopy(body)
    if index is None:
        body[field] = change(body[field])
    else:
        column = body["per_round"][field]
        column[index] = change(column[index])
    return body


def tamper_problems() -> dict:
    """``verify_trace``'s problems for each entry of ``TAMPERS``, keyed by learner and name."""
    bodies = {}
    out = {}
    for learner, name, index, field, change in TAMPERS:
        if learner not in bodies:
            result = run_market(learner, MarketSpec("blowup", ProblemDims(2, 64)))
            bodies[learner] = json.loads(result.body_json())
        try:
            out[f"{learner}/{name}"] = verify_trace(tampered(bodies[learner], index, field, change))
        except Exception as exc:  # a verifier that raises is a finding to print, not to stop at
            out[f"{learner}/{name}"] = {"error": f"{type(exc).__name__}: {exc}"}
    return out


def body_path(directory: Path, name: str) -> Path:
    return directory / (name.replace("/", "+") + ".json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bodies", type=Path, help="write each run's canonical trace body to this directory")
    parser.add_argument("--against", type=Path, help="compare each run's body with the one in this directory")
    parser.add_argument("--tamper", action="store_true", help="print verify's problems on tampered blowup traces instead")
    args = parser.parse_args(argv)
    if args.tamper:
        json.dump(tamper_problems(), sys.stdout, indent=1)
        sys.stdout.write("\n")
        return 0
    if args.bodies is not None:
        args.bodies.mkdir(parents=True, exist_ok=True)
    out = {}
    for name, spec in grid():
        out[name], body = digest(*spec)
        if body is None:
            continue
        if args.bodies is not None:
            body_path(args.bodies, name).write_text(body)
        if args.against is not None:
            old = body_path(args.against, name)
            out[name]["against"] = compare(body, old.read_text()) if old.exists() else {"missing": str(old)}
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    if args.against is not None:
        summarize(out)
    return 0


def summarize(out: dict):
    """Print to standard error how many runs kept their bodies and controller fields, and the largest move of each
    play and leader field."""
    against = [e["against"] for e in out.values() if "against" in e]
    compared = [a for a in against if "missing" not in a]
    largest: dict = {}
    for a in compared:
        for field, move in a["moves"].items():
            largest[field] = max(largest.get(field, 0.0), move)
    controlled = [a["identical_controller"] for a in compared if a["identical_controller"]]
    print(
        f"{len(out)} runs, {len(compared)} compared ({len(against) - len(compared)} without a body to compare), "
        f"{sum(a['identical'] for a in compared)} identical, "
        f"{sum(a['identical_except_leader'] for a in compared)} identical except the leader fields, "
        f"{sum(all(c.values()) for c in controlled)} of the {len(controlled)} with controller fields "
        f"identical in {', '.join(CONTROLLER_RECORD_FIELDS)}",
        file=sys.stderr,
    )
    for field, move in sorted(largest.items()):
        print(f"  largest move of {field}: {move:.3g}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
