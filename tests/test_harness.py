"""Experiment harness: traces, invariant checks, verification, sweeps."""

import json
import math

import numpy as np
import pytest

from barrons import harness
from barrons.adaptive import AdaConfig, EpochHistory
from barrons.domain import FLOOR_TOL, ProblemDims, loss_grad_arrays
from barrons.harness import (
    LEARNER_NAMES,
    TraceChecker,
    growth_ratios,
    load_trace,
    run_experiment,
    run_market,
    save_trace,
    sweep,
    verify_trace,
    write_sweep_csv,
    write_sweep_json,
)
from barrons.markets import MarketSpec, generate
from barrons.solver import KKT_TOL, MAX_NEWTON_ITERS, SolverFailure

DIMS = ProblemDims(2, 64)
# The columns of a schema-4 body: every learner's, and those an ada body adds.
PLAIN_COLUMNS = {"x", "r", "loss"}
ADA_COLUMNS = PLAIN_COLUMNS | {"epoch", "beta", "alpha", "u", "restart"}


@pytest.fixture(scope="module")
def blowup_result():
    return run_market("ada", MarketSpec("blowup", DIMS))


def _rows(columns: dict) -> list:
    """Record columns transposed back to rows, one dict per round."""
    return [dict(zip(columns, entries)) for entries in zip(*columns.values())]


def test_run_validation():
    rounds = generate(MarketSpec("constant", DIMS))
    with pytest.raises(ValueError, match="unknown learner"):
        run_experiment("newton", rounds, DIMS)
    with pytest.raises(ValueError, match="rounds"):
        run_experiment("eg", rounds[:10], DIMS)


def test_trace_layout_and_summary(blowup_result):
    trace = blowup_result.trace_dict()
    assert trace["schema"] == "portfolio-trace/4"
    assert trace["config"]["learner"] == "ada"
    assert trace["config"]["n"] == 2 and trace["config"]["t"] == 64
    assert trace["config"]["solver"] == {"kkt_tol": KKT_TOL, "max_newton_iters": MAX_NEWTON_ITERS}
    columns = trace["per_round"]
    assert set(columns) == ADA_COLUMNS
    assert {len(column) for column in columns.values()} == {64}
    summary = trace["summary"]
    assert summary["rounds_played"] == 64
    assert summary["restarts"] >= 1
    assert summary["epoch_count"] == summary["restarts"] + 1
    assert summary["invariant_violations"] == []
    assert summary["regret"] == pytest.approx(
        summary["total_loss"] - summary["best_crp_loss"], abs=1e-12
    )


def test_losses_match_recorded_plays(blowup_result):
    columns = blowup_result.per_round
    for x, r, loss in zip(columns["x"], columns["r"], columns["loss"]):
        assert loss == pytest.approx(-math.log(float(np.array(x) @ np.array(r))), rel=1e-12)


def test_verifier_accepts_unmodified_trace(blowup_result):
    assert verify_trace(blowup_result.trace_dict()) == []


def test_verifier_accepts_every_learner():
    dims = ProblemDims(2, 24)
    for learner in LEARNER_NAMES:
        result = run_market(learner, MarketSpec("iid_lognormal", dims, seed=2))
        assert verify_trace(result.trace_dict()) == [], learner
        assert result.summary["invariant_violations"] == []


def test_verifier_catches_tampered_loss(blowup_result):
    trace = json.loads(blowup_result.body_json())
    trace["per_round"]["loss"][5] += 1e-6
    problems = verify_trace(trace)
    assert any("loss" in p for p in problems)


def test_verifier_catches_tampered_play(blowup_result):
    trace = json.loads(blowup_result.body_json())
    plays = trace["per_round"]["x"]
    plays[8] = [plays[8][1], plays[8][0]]
    assert verify_trace(trace)


def test_verifier_catches_tampered_ceiling(blowup_result):
    trace = json.loads(blowup_result.body_json())
    trace["per_round"]["alpha"][3] = 0.4999
    problems = verify_trace(trace)
    assert any("alpha" in p or "ceiling" in p for p in problems)


def test_verifier_reports_a_play_under_the_rate_floor(blowup_result):
    trace = json.loads(blowup_result.body_json())
    plays = trace["per_round"]["x"]
    low = DIMS.floor * (1.0 - 1e-6)  # the rate exponent log_t(1/(n x)) just over 1
    plays[10] = [low, 1.0 - low] if plays[10][0] < plays[10][1] else [1.0 - low, low]
    problems = verify_trace(trace)
    assert "round 11: rate schedule left [eta, e*eta]" in problems, problems


@pytest.mark.parametrize("under, flagged", [(1e-13, False), (2.0 * FLOOR_TOL, True)])
def test_floor_and_rate_band_share_one_tolerance(blowup_result, under, flagged):
    # A coordinate within FLOOR_TOL under the floor is on it for both checks, as clipped_point accepts it
    # from the solver; one further under fails both.
    trace = json.loads(blowup_result.body_json())
    low = DIMS.floor - under
    trace["per_round"]["x"][10] = [low, 1.0 - low]
    judged = [p for p in verify_trace(trace) if p.startswith("round 11:") and ("floor" in p or "rate" in p)]
    want = [f"round 11: play coordinate {low!r} under the floor {DIMS.floor!r}", "round 11: rate schedule left [eta, e*eta]"]
    assert judged == (want if flagged else []), judged


def _rate_band_reference(plays, n, t, eta):
    # The array formula: rate exponents clipped at 0, their running max over the epoch, the schedule's largest entry.
    # A coordinate within FLOOR_TOL under the floor counts as on it.
    floor = 1.0 / (n * t)
    out, log_max = [], None
    for x in plays:
        x = np.where(x >= floor - FLOOR_TOL, np.maximum(x, floor), x)
        log_rates = np.maximum(np.log(1.0 / (n * x)) / np.log(t), 0.0)
        log_max = log_rates if log_max is None else np.maximum(log_max, log_rates)
        out.append(not (eta * np.exp(log_max)).max() <= math.e * eta * (1.0 + 1e-12))
    return out


@pytest.mark.parametrize("n", (2, 3, 5, 20))
def test_rate_band_check_matches_the_array_formula(n):
    rng = np.random.default_rng(900 + n)
    t = 64 * n
    floor = 1.0 / (n * t)
    # Sub-floor (some inside the band's slack or FLOOR_TOL), exactly-at-floor, zero, NaN and infinite coordinates.
    odd = [floor * (1.0 - 1e-6), floor * (1.0 - 1e-14), floor - 0.5 * FLOOR_TOL, floor - 2.0 * FLOOR_TOL,
           floor * 0.5, floor, 0.0, -floor, math.nan, math.inf, -math.inf]
    outcomes = set()
    for _ in range(400):
        checker = TraceChecker({"learner": "ada", "n": n, "t": t})
        plays = []
        for _ in range(int(rng.integers(1, 12))):
            x = rng.dirichlet(np.full(n, 0.3)) * (1.0 - n * floor) + floor
            for i in rng.choice(n, int(rng.integers(0, 3)), replace=False) if rng.random() < 0.3 else ():
                x[i] = odd[rng.integers(len(odd))]
            plays.append(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = _rate_band_reference(plays, n, t, checker.eta_base)
            epoch = np.array(plays)
            got = checker._rate_left(epoch, np.add.reduce(epoch, axis=1)).tolist()
        assert got == want
        outcomes.update(want)
    assert outcomes == {False, True}


@pytest.fixture(scope="module")
def blowup_results(blowup_result):
    others = ("barrons", "ons", "eg")
    return {"ada": blowup_result, **{name: run_market(name, MarketSpec("blowup", DIMS)) for name in others}}


@pytest.mark.parametrize(
    "learner, field, pick, tamper, word",
    [
        ("ons", "x", lambda columns: 10, lambda v: [c * (1.0 + 1e-11) for c in v], "weight sum"),
    ],
    ids=["ons-weight_sum"],
)
def test_verifier_catches_tampered_checked_field(blowup_results, learner, field, pick, tamper, word):
    trace = json.loads(blowup_results[learner].body_json())
    columns = trace["per_round"]
    i = pick(columns)
    columns[field][i] = tamper(columns[field][i])
    problems = verify_trace(trace)
    assert any(p.startswith(f"round {i + 1}:") and word in p for p in problems), problems


@pytest.mark.parametrize(
    "learner, field, value",
    [
        *[(learner, "x", [math.nan, math.nan]) for learner in ("ada", "barrons", "ons", "eg")],
        ("ada", "loss", math.nan),
        ("eg", "loss", math.nan),
        ("ada", "r", [1.0, math.nan]),
        ("ons", "r", [1.0, math.nan]),
    ],
    ids=["ada-nan_play", "barrons-nan_play", "ons-nan_play", "eg-nan_play",
         "ada-nan_loss", "eg-nan_loss", "ada-nan_relative", "ons-nan_relative"],
)
def test_verifier_catches_nan_in_a_record(blowup_results, learner, field, value):
    trace = json.loads(blowup_results[learner].body_json())
    trace["per_round"][field][10] = value
    problems = verify_trace(trace)
    assert any(p.startswith("round 11:") for p in problems), problems


def _spelled(vector: list) -> list:
    """The recorded vector with its first entry spelled as a string, which float() reads back to the same number."""
    return [repr(vector[0]), *vector[1:]]


@pytest.mark.parametrize(
    "learner, field, value, error",
    [
        ("ons", "x", [-1.0, 2.0], "ValueError: nonpositive round wealth"),
        ("ons", "x", [1.0], "ValueError: x does not hold 2 numbers"),
        ("eg", "x", "abc", "ValueError: could not convert string to float"),
        ("ada", "u", None, "ValueError: u does not hold 2 numbers"),
        ("ada", "epoch", "2", "TypeError: epoch must be a number"),
        # Extreme integers, which overflow a float.
        ("ada", "epoch", -2000, "OverflowError: "),
        ("ada", "epoch", 10**400, "OverflowError: "),
        ("ada", "loss", 10**400, "OverflowError: "),
        ("eg", "loss", 10**400, "OverflowError: "),
        # A boolean is not a number, and a restart flag is a boolean, although Python takes True == 1.
        ("ada", "loss", True, "TypeError: loss must be a number"),
        ("eg", "loss", True, "TypeError: loss must be a number"),
        ("ada", "epoch", True, "TypeError: epoch must be a number"),
        ("ada", "restart", None, "TypeError: restart must be true or false"),
        ("ada", "restart", 1, "TypeError: restart must be true or false"),
        # A vector column holds numbers, and a boolean is not one, in place of a relative of 1.0 or elsewhere; nor
        # is a string, even one that spells the recorded number.
        *[(learner, "r", [True, 0.03125], "TypeError: r must hold numbers") for learner in ("ada", "ons", "eg")],
        ("barrons", "x", [True, False], "TypeError: x must hold numbers"),
        ("ada", "u", [0.5, True], "TypeError: u must hold numbers"),
        *[(learner, "r", _spelled, "TypeError: r must hold numbers") for learner in ("ada", "ons", "eg")],
        ("barrons", "x", _spelled, "TypeError: x must hold numbers"),
        ("ada", "u", _spelled, "TypeError: u must hold numbers"),
    ],
    ids=["ons-dead_play", "ons-one_coordinate", "eg-string_play",
         "ada-null_leader", "ada-string_epoch",
         "ada-epoch_overflows_beta", "ada-huge_epoch", "ada-huge_loss", "eg-huge_loss",
         "ada-true_loss", "eg-true_loss", "ada-true_epoch", "ada-null_restart", "ada-integer_restart",
         "ada-true_relative", "ons-true_relative", "eg-true_relative", "barrons-boolean_play", "ada-true_leader",
         "ada-string_relative", "ons-string_relative", "eg-string_relative", "barrons-string_play", "ada-string_leader"],
)
def test_verifier_reports_a_malformed_record_by_its_round(blowup_results, learner, field, value, error):
    trace = json.loads(blowup_results[learner].body_json())
    recorded = trace["per_round"][field][10]
    trace["per_round"][field][10] = value(recorded) if callable(value) else value
    problems = verify_trace(trace)
    assert problems[-1].startswith(f"round 11: record cannot be checked ({error}"), problems


@pytest.mark.parametrize("learner", ["ada", "barrons", "ons", "eg"])
@pytest.mark.parametrize(
    "relatives",
    [
        lambda r, x: [math.inf, r[1]],
        lambda r, x: [1.01 * r[0], r[1] - 0.01 * r[0] * x[0] / x[1]],  # the play's wealth is kept
        lambda r, x: [0.5 * r[0], r[1]],
        lambda r, x: [r[0], -r[1]],
        lambda r, x: [r[0], math.nan],
        lambda r, x: [-math.inf, r[1]],
    ],
    ids=["infinite", "same_wealth", "largest_under_one", "negative", "nan", "minus_infinity"],
)
def test_verifier_reports_relatives_that_are_not_a_market_round(blowup_results, learner, relatives):
    # A market round is finite and nonnegative, and its largest relative is exactly 1, as `MarketRound` holds it.
    trace = json.loads(blowup_results[learner].body_json())
    columns = trace["per_round"]
    columns["r"][10] = relatives(columns["r"][10], columns["x"][10])
    problems = verify_trace(trace)
    assert problems[0] == (
        f"round 11: relatives {columns['r'][10]!r} are not a market round (finite, nonnegative, largest exactly 1)"
    ), problems


@pytest.mark.parametrize("learner", ["ada", "barrons", "ons", "eg"])
def test_a_finite_loss_does_not_match_one_that_is_not_finite(blowup_results, learner):
    # An infinite relative makes the recomputed loss -inf, and with it a tolerance of 1e-12 |loss| that is
    # infinite too: the loss test must still fail.
    trace = json.loads(blowup_results[learner].body_json())
    columns = trace["per_round"]
    columns["r"][10] = [math.inf, columns["r"][10][1]]
    assert f"round 11: recorded loss {columns['loss'][10]!r} != recomputed -inf" in verify_trace(trace)


@pytest.mark.parametrize("key, value", [
    ("t", 10**400), ("n", None), ("learner", "newton"), ("n", 2.5), ("n", "2"), ("n", True), ("t", "64"),
])
def test_verifier_reports_an_unusable_config(blowup_result, key, value):
    trace = json.loads(blowup_result.body_json())
    trace["config"][key] = value
    problems = verify_trace(trace)
    assert len(problems) == 1 and problems[0].startswith("config: unusable"), problems


def test_verifier_reads_an_integral_float_size_as_that_integer(blowup_result):
    trace = json.loads(blowup_result.body_json())
    trace["config"]["n"], trace["config"]["t"] = 2.0, float(trace["config"]["t"])
    assert verify_trace(trace) == []


@pytest.mark.parametrize(
    "key, tamper",
    [
        ("rounds_played", lambda v: 10),
        ("invariant_violations", lambda v: ["x"]),
        ("epoch_count", lambda v: v + 1),
        ("restarts", lambda v: v - 1),
    ],
    ids=["rounds_played", "invariant_violations", "epoch_count", "restarts"],
)
def test_verifier_catches_a_summary_field_the_records_contradict(blowup_result, key, tamper):
    trace = json.loads(blowup_result.body_json())
    trace["summary"][key] = tamper(trace["summary"][key])
    assert verify_trace(trace) == [f"summary: {key} disagrees with the records"]


@pytest.mark.parametrize("learner", ["barrons", "ons", "eg"])
@pytest.mark.parametrize(
    "field, value", [("beta", 0.123), ("epoch", 0), ("alpha", 0.3), ("u", [0.5, 0.5])], ids=["beta", "epoch", "alpha", "u"],
)
def test_verifier_checks_the_controller_fields_of_a_one_epoch_run(blowup_results, learner, field, value):
    # A run of one epoch with no leader has no controller, so its body holds none of the controller's columns.
    trace = json.loads(blowup_results[learner].body_json())
    trace["per_round"][field] = [value] * DIMS.t
    assert verify_trace(trace) == [f"per_round: unexpected {field} column"]


@pytest.mark.parametrize(
    "part, tamper, problem",
    [
        ("config", lambda c: {**c, "t": 128}, "per_round: 64 records but config.t is 128"),
        ("summary", lambda s: {**s, "aborted": "x"}, "summary: an aborted run has a best_crp"),
        ("summary", lambda s: {**s, "best_crp": None}, "summary: a complete run has no best_crp"),
        # A record's round is its position: a body holds no round numbers to put out of order.
        ("per_round", lambda cols: {**cols, "t": [1, 2, 3, 4, 50, *range(6, 65)]}, "per_round: unexpected t column"),
    ],
    ids=["horizon_past_records", "aborted_complete_run", "null_best_crp", "record_out_of_order"],
)
def test_verifier_checks_the_record_count_and_order(blowup_result, part, tamper, problem):
    trace = json.loads(blowup_result.body_json())
    trace[part] = tamper(trace[part])
    assert problem in verify_trace(trace)


def test_verifier_reports_a_summary_it_cannot_rebuild(blowup_result):
    trace = json.loads(blowup_result.body_json())
    trace["summary"]["best_crp_loss"] = 10**400
    problems = verify_trace(trace)
    assert len(problems) == 1 and problems[0].startswith("summary: cannot be checked"), problems


@pytest.mark.parametrize("key", ("total_loss", "max_grad_inf_norm"))
@pytest.mark.parametrize("missing", (True, False), ids=("missing", "nan"))
def test_verifier_catches_missing_or_nan_summary_fields(blowup_result, key, missing):
    trace = json.loads(blowup_result.body_json())
    if missing:
        del trace["summary"][key]
    else:
        trace["summary"][key] = math.nan
    problems = verify_trace(trace)
    assert any(p.startswith("summary:") and (key in p or "max gradient" in p) for p in problems), problems


def test_verifier_recomputes_the_largest_gradient_norm(blowup_result):
    # The summary's gradient norm is rebuilt from the plays, not from a figure the records carry.
    trace = json.loads(blowup_result.body_json())
    columns = trace["per_round"]
    r = np.array(columns["r"][10])
    x = np.full(2, DIMS.floor)
    x[np.argmin(r)] = 1.0 - DIMS.floor  # the play backs the asset that crashed
    columns["x"][10] = x.tolist()
    assert np.abs(r / (x @ r)).max() > trace["summary"]["max_grad_inf_norm"]
    assert "summary: max_grad_inf_norm disagrees with the records" in verify_trace(trace)


def test_checker_records_a_violation_by_its_round(blowup_result):
    columns = json.loads(blowup_result.body_json())["per_round"]
    restart = columns["restart"]
    # A round whose ceiling no later check reads: neither it nor the next round restarts.
    bad = next(i for i in range(1, len(restart) - 1) if not (restart[i] or restart[i + 1]))
    columns["alpha"][bad] = 0.4999

    checked = TraceChecker(blowup_result.config).check_columns(columns)
    assert len(checked.problems) == 1 and checked.problems[0].startswith(f"round {bad + 1}: recorded ceiling")


@pytest.mark.parametrize("n, t", [(2, 512), (5, 256), (20, 256), (50, 256)])
def test_checker_ceiling_is_bitwise_the_controllers(n, t):
    # Each round's ceiling is one matrix-vector product over its epoch so far, as the controller takes
    # it; one matrix product per epoch would move some ceilings in their last bits.  The 432-round
    # epoch at (2, 512) spans three of the checker's blocks.
    result = run_market("ada", MarketSpec("blowup", ProblemDims(n, t)))
    assert result.summary["restarts"] >= 2
    ceilings = TraceChecker(result.config).check_columns(result.trace_dict()["per_round"]).ceilings
    history = EpochHistory(t, n)
    columns = result.per_round
    for k, ceiling in enumerate(ceilings):
        x, r = np.array(columns["x"][k]), np.array(columns["r"][k])
        history.append(r, x, loss_grad_arrays(x, r)[1])
        want = history.ceiling(np.array(columns["u"][k]))
        assert np.float64(ceiling).tobytes() == np.float64(want).tobytes() == np.float64(columns["alpha"][k]).tobytes(), k + 1
        if columns["restart"][k]:
            history.clear()


def test_runner_checks_its_records_after_the_last_round(monkeypatch, blowup_result):
    columns = blowup_result.per_round
    restart = columns["restart"]
    # A round whose ceiling no later check reads: neither it nor the next round restarts.
    bad = next(i for i in range(1, len(restart) - 1) if not (restart[i] or restart[i + 1]))
    k = bad + 1
    step = harness._AdaRun.step

    def step_recording_a_wrong_ceiling_on_round_k(self, rnd):
        out = step(self, rnd)
        self.round = getattr(self, "round", 0) + 1
        if self.round == k:
            self.fields["alpha"] = 0.4999
        return out

    monkeypatch.setattr(harness._AdaRun, "step", step_recording_a_wrong_ceiling_on_round_k)
    result = run_market("ada", MarketSpec("blowup", DIMS))
    assert result.summary["invariant_violations"] == [
        f"round {k}: recorded ceiling 0.4999 != recomputed {columns['alpha'][bad]!r}"
    ]


def test_verifier_catches_tampered_restart_flag(blowup_result):
    trace = json.loads(blowup_result.body_json())
    restarts = trace["per_round"]["restart"]
    restarts[restarts.index(True)] = False
    assert verify_trace(trace)


def test_verifier_catches_tampered_summary(blowup_result):
    trace = json.loads(blowup_result.body_json())
    trace["summary"]["total_loss"] += 0.5
    problems = verify_trace(trace)
    assert any("total" in p or "summary" in p for p in problems)


def test_save_and_load_roundtrip(tmp_path, blowup_result):
    path = tmp_path / "trace.json"
    save_trace(blowup_result, path)
    loaded = load_trace(path)
    assert loaded == json.loads(blowup_result.body_json())
    doc = json.loads(path.read_text())
    assert "created_at" in doc["meta"]


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"hello": 1}))
    with pytest.raises(ValueError, match="trace"):
        load_trace(path)


def test_a_schema_4_body_holds_the_learners_columns(blowup_results):
    # What the harness derives or fixes is not stored: the round, the cumulative loss, a one-epoch run's controller.
    for learner, result in blowup_results.items():
        trace = json.loads(result.body_json())
        assert trace["schema"] == "portfolio-trace/4", learner
        assert trace["per_round"] == result.per_round, learner
        assert set(trace["per_round"]) == (ADA_COLUMNS if learner == "ada" else PLAIN_COLUMNS), learner


def test_total_loss_adds_the_losses_from_the_first_round_on():
    # On this run a compensated sum (math.fsum, or sum() from Python 3.12) rounds differently.
    result = run_market("eg", MarketSpec("iid_lognormal", ProblemDims(3, 256), seed=1))
    losses = result.per_round["loss"]
    total = 0.0
    for loss in losses:
        total += loss
    assert math.fsum(losses) != total
    assert np.float64(result.summary["total_loss"]).tobytes() == np.float64(total).tobytes()


@pytest.mark.parametrize(
    "reshape, problem",
    [
        (_rows, "per_round: not an object"),
        (lambda cols: {k: v for k, v in cols.items() if k != "loss"}, "per_round: no loss column"),
        (lambda cols: {**cols, "x": cols["x"][:-1]}, "per_round: the r column holds 64 entries and the x column 63"),
        (lambda cols: {**cols, "cum_loss": cols["loss"]}, "per_round: unexpected cum_loss column"),
    ],
    ids=["rows", "missing_column", "short_column", "unexpected_column"],
)
def test_verifier_reports_columns_of_the_wrong_shape(blowup_result, reshape, problem):
    trace = json.loads(blowup_result.body_json())
    trace["per_round"] = reshape(trace["per_round"])
    assert verify_trace(trace) == [problem]


def test_trace_bodies_are_deterministic():
    spec = MarketSpec("iid_lognormal", ProblemDims(2, 32), seed=9)
    a = run_market("ada", spec).body_json()
    b = run_market("ada", spec).body_json()
    assert a == b


def test_regret_matches_wealth_ratio():
    # Regret equals the log of the wealth ratio between the best CRP and
    # the learner, so exponentiating recovers the ratio of final wealths.
    dims = ProblemDims(2, 128)
    for learner in ("ada", "eg"):
        result = run_market(learner, MarketSpec("iid_lognormal", dims, seed=4))
        wealth = 1.0
        for x, r in zip(result.per_round["x"], result.per_round["r"]):
            wealth *= float(np.array(x) @ np.array(r))
        crp_wealth = math.exp(-result.summary["best_crp_loss"])
        want = math.log(crp_wealth / wealth)
        assert result.summary["regret"] == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_partial_trace_persisted_on_solver_failure(tmp_path, starved_solver):
    out = tmp_path / "aborted.json"
    with pytest.raises(SolverFailure):
        run_market("ada", MarketSpec("blowup", ProblemDims(2, 16)), out_path=out)
    trace = load_trace(out)
    assert trace["summary"]["aborted"]
    assert trace["summary"]["best_crp_loss"] is None
    columns = trace["per_round"]
    derived = {"grad_inf", "x_ratio", "u_ratio", "ratio_max", "ratio_max_prev"}
    assert columns["x"] and not derived & columns.keys()
    assert verify_trace(trace) == []


@pytest.mark.parametrize("learner, setting", [("ada", "mix"), ("eg", "gamma"), ("barrons", "gamma"), ("ons", "eta")])
def test_verify_reports_a_setting_the_learner_does_not_take(learner, setting):
    trace = json.loads(run_market(learner, MarketSpec("blowup", DIMS)).body_json())
    trace["config"]["params"][setting] = 0.02
    (problem,) = verify_trace(trace)
    assert problem.startswith(f"config: unusable ({learner} takes no setting {setting!r}; it takes ")


@pytest.mark.parametrize("value", (True, False))
@pytest.mark.parametrize(
    "learner, setting",
    [("eg", "eta"), ("eg", "g_est"), ("eg", "mix"), ("ons", "beta"), ("ons", "mix"), ("barrons", "eta"), ("barrons", "beta"),
     ("softbayes", "eta"), ("ogd", "eta"), ("up-grid", "resolution"), ("ada", "beta"), ("ada", "eta"), ("ada", "gamma")],
)
def test_a_boolean_setting_is_rejected_by_its_name(learner, setting, value):
    # JSON's true and false would pass for the numbers 1 and 0.  The run refuses them, and verify reports
    # the config unusable.
    message = f"{learner} setting {setting!r} must be a number, got {value!r}"
    with pytest.raises(ValueError) as raised:
        run_market(learner, MarketSpec("blowup", DIMS), params={setting: value})
    assert str(raised.value) == message
    trace = json.loads(run_market(learner, MarketSpec("blowup", DIMS)).body_json())
    trace["config"]["params"][setting] = value
    assert verify_trace(trace) == [f"config: unusable ({message})"]


def test_bad_learner_params_propagate():
    with pytest.raises(ValueError, match="beta"):
        run_market("ada", MarketSpec("constant", ProblemDims(2, 8)), params={"beta": 0.7})


@pytest.mark.parametrize("params", [{}, {"beta": 0.25}, {"eta": 1e-3, "gamma": 0.02}])
def test_checker_bands_come_from_the_resolved_config(params):
    dims = ProblemDims(3, 32)
    config = run_market("ada", MarketSpec("constant", dims), params=params).config
    checker = TraceChecker(config)
    cfg = AdaConfig(**params).resolve(dims)
    assert checker.beta_init == cfg.beta
    assert checker.eta_base == cfg.eta
    assert checker.u_band == math.sqrt(cfg.gamma) / 2.0 + harness._U_BAND_SLACK


@pytest.mark.parametrize("params", [{}, {"beta": 0.25, "eta": 0.01}])
def test_checker_base_rate_is_the_fixed_rate_learners(params):
    dims = ProblemDims(3, 32)
    config = run_market("barrons", MarketSpec("constant", dims), params=params).config
    learner = harness._build("barrons", params).start(dims)
    assert TraceChecker(config).eta_base == learner.state.eta_base
    assert learner.state.beta == params.get("beta", AdaConfig().beta)


def test_sweep_rows_and_csv(tmp_path):
    rows = sweep("eg", "iid_lognormal", 2, [16, 32], reps=2, seed=5)
    assert len(rows) == 4
    seeds = [row["seed"] for row in rows]
    assert seeds == [5, 6, 5, 6]
    for row in rows:
        assert row["error"] == ""
        assert row["regret"] is not None
        assert row["violations"] == 0
        assert row["runtime_ms"] >= 0.0
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    header = path.read_text().splitlines()[0]
    assert header == "learner,market,N,T,seed,regret,epochs,G,violations,runtime_ms,error"
    assert len(path.read_text().splitlines()) == 5


def test_sweep_records_failures_and_continues():
    rows = sweep("ada", "blowup", 2, [2, 16], seed=0)
    assert len(rows) == 2
    assert "horizon must exceed" in rows[0]["error"]
    assert rows[0]["regret"] is None
    assert rows[1]["error"] == ""


def test_sweep_needs_horizons():
    with pytest.raises(ValueError, match="at least one horizon"):
        sweep("eg", "constant", 2, [])


@pytest.mark.parametrize("reps", [0, -1])
def test_sweep_needs_a_repetition(reps):
    with pytest.raises(ValueError, match="at least one repetition"):
        sweep("eg", "constant", 2, [8], reps=reps)


def test_growth_ratios_pair_consecutive_horizons():
    rows = [
        {"learner": "eg", "market": "blowup", "N": 2, "T": 16, "seed": 0, "regret": 2.0, "error": ""},
        {"learner": "eg", "market": "blowup", "N": 2, "T": 64, "seed": 0, "regret": 3.0, "error": ""},
        {"learner": "eg", "market": "blowup", "N": 2, "T": 32, "seed": 0, "regret": 0.0, "error": ""},
        {"learner": "eg", "market": "blowup", "N": 2, "T": 128, "seed": 0, "regret": None, "error": "boom"},
    ]
    ratios = growth_ratios(rows)
    steps = ratios["eg|blowup|N=2|seed=0"]
    assert [(s["t_from"], s["t_to"]) for s in steps] == [(16, 32), (32, 64)]
    assert steps[0]["ratio"] == 0.0
    assert steps[1]["ratio"] is None


def test_sweep_json_carries_rows_and_ratios(tmp_path):
    rows = sweep("softbayes", "cover_alternating", 2, [16, 32], seed=1)
    path = write_sweep_json(rows, tmp_path / "sweep.json")
    doc = json.loads(path.read_text())
    assert len(doc["rows"]) == 2
    steps = doc["growth_ratios"]["softbayes|cover_alternating|N=2|seed=1"]
    assert len(steps) == 1 and steps[0]["t_from"] == 16 and steps[0]["t_to"] == 32
