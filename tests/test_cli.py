"""Command line entry points and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import barrons
from barrons import harness
from barrons.cli import EXIT_BAD_INPUT, EXIT_OK, EXIT_SOLVER, EXIT_VERIFY, main
from barrons.harness import load_trace
from barrons.markets import generate


def test_run_writes_a_verifiable_trace(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = main([
        "run", "--learner", "ada", "--market", "blowup",
        "--n", "2", "--t-horizon", "32", "--out", str(out),
    ])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "regret=" in printed and "restarts=" in printed
    assert main(["verify", str(out)]) == EXIT_OK
    assert "ok" in capsys.readouterr().out


def test_run_twice_produces_identical_bodies(tmp_path):
    args = [
        "run", "--learner", "ons", "--market", "iid_lognormal",
        "--n", "3", "--t-horizon", "24", "--seed", "6",
    ]
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main(args + ["--out", str(path)]) == EXIT_OK
    bodies = [json.dumps(load_trace(p), sort_keys=True) for p in paths]
    assert bodies[0] == bodies[1]


def test_verify_flags_a_tampered_trace(tmp_path, capsys):
    out = tmp_path / "trace.json"
    main([
        "run", "--learner", "eg", "--market", "cover_alternating",
        "--n", "2", "--t-horizon", "16", "--out", str(out),
    ])
    doc = json.loads(out.read_text())
    doc["trace"]["per_round"]["loss"][4] += 1e-5
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) == EXIT_VERIFY
    assert "problems" in capsys.readouterr().err


def test_verify_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{}")
    assert main(["verify", str(path)]) == EXIT_BAD_INPUT


@pytest.fixture
def saved_trace(tmp_path):
    out = tmp_path / "trace.json"
    assert main([
        "run", "--learner", "ada", "--market", "blowup",
        "--n", "2", "--t-horizon", "16", "--out", str(out),
    ]) == EXIT_OK
    return out


@pytest.mark.parametrize(
    "reshape, code, message",
    [
        (lambda doc: [doc], EXIT_BAD_INPUT, "the document is not a JSON object"),
        (lambda doc: {**doc, "trace": [doc["trace"]]}, EXIT_BAD_INPUT, "its trace is not a JSON object"),
        (lambda doc: {**doc, "trace": {**doc["trace"], "summary": [doc["trace"]["summary"]]}}, EXIT_VERIFY, "summary: not an object"),
        (lambda doc: {**doc, "trace": {**doc["trace"], "per_round": 5}}, EXIT_VERIFY, "per_round: not an object"),
    ],
    ids=["document", "trace", "summary", "per_round"],
)
def test_verify_reports_a_part_that_is_not_an_object(saved_trace, capsys, reshape, code, message):
    saved_trace.write_text(json.dumps(reshape(json.loads(saved_trace.read_text()))))
    capsys.readouterr()
    assert main(["verify", str(saved_trace)]) == code
    assert message in capsys.readouterr().err


def test_verify_rejects_an_older_schema(saved_trace, capsys):
    doc = json.loads(saved_trace.read_text())
    for schema in ("portfolio-trace/2", "portfolio-trace/3"):
        doc["trace"]["schema"] = schema
        saved_trace.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(saved_trace)]) == EXIT_BAD_INPUT
        assert f"its schema is {schema!r}" in capsys.readouterr().err


def test_bad_configuration_exits_one(tmp_path):
    assert main([
        "run", "--learner", "eg", "--market", "constant", "--n", "1", "--t-horizon", "8",
    ]) == EXIT_BAD_INPUT
    assert main([
        "run", "--learner", "eg", "--market", "constant", "--n", "2",
    ]) == EXIT_BAD_INPUT


@pytest.mark.parametrize("flags, message", [
    (["--market", "constant", "--t-horizon", "8", "--bogus"], "unrecognized arguments: --bogus"),
    (["--t-horizon", "8"], "one of the arguments --market --csv is required"),
    (["--market", "constant", "--t-horizon", "8", "--solver-tol", "1e-8"], "unrecognized arguments: --solver-tol 1e-8"),
], ids=["unknown_flag", "missing_market", "solver_tol"])
def test_usage_errors_exit_one_with_argparses_message(capsys, flags, message):
    # argparse's own code for a usage error is 2, which would read as a solver failure.
    with pytest.raises(SystemExit) as info:
        main(["run", "--learner", "eg", "--n", "2", *flags])
    assert info.value.code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("usage: barrons") and f"error: {message}" in err
    with pytest.raises(SystemExit) as info:
        main(["run", "--help"])
    assert info.value.code == EXIT_OK


def test_solver_failure_exits_two(tmp_path, starved_solver):
    assert main([
        "run", "--learner", "ada", "--market", "blowup", "--n", "2",
        "--t-horizon", "16",
    ]) == EXIT_SOLVER


def test_gen_then_run_from_csv(tmp_path):
    csv_path = tmp_path / "market.csv"
    assert main([
        "gen", "--market", "cover_alternating", "--n", "2",
        "--t-horizon", "12", "--out", str(csv_path),
    ]) == EXIT_OK
    assert csv_path.exists()
    out = tmp_path / "trace.json"
    assert main([
        "run", "--learner", "softbayes", "--csv", str(csv_path),
        "--n", "2", "--out", str(out),
    ]) == EXIT_OK
    trace = load_trace(out)
    assert trace["config"]["t"] == 12
    assert trace["config"]["market"].startswith("csv:")


def test_csv_market_with_a_bankrupt_asset_runs_strict_and_verifies(tmp_path):
    # Asset 0 is worth nothing in every round: the clipped-simplex learners
    # keep it at the floor and every invariant holds (run exits 0 only then).
    n = 3
    rows = np.exp(0.3 * np.random.default_rng(5).standard_normal((64, n)))
    rows[:, 0] = 0.0
    csv_path = tmp_path / "bankrupt.csv"
    np.savetxt(csv_path, rows, delimiter=",")
    for learner in ("ada", "barrons", "ons"):
        out = tmp_path / f"{learner}.json"
        assert main([
            "run", "--learner", learner, "--csv", str(csv_path),
            "--n", str(n), "--out", str(out),
        ]) == EXIT_OK, learner
        assert main(["verify", str(out)]) == EXIT_OK, learner


def _record_a_wrong_ceiling_on_round(monkeypatch, k):
    step = harness._AdaRun.step

    def step_recording_a_wrong_ceiling_on_round_k(self, rnd):
        out = step(self, rnd)
        self.round = getattr(self, "round", 0) + 1
        if self.round == k:
            self.fields["alpha"] = 0.4999
        return out

    monkeypatch.setattr(harness._AdaRun, "step", step_recording_a_wrong_ceiling_on_round_k)


def test_run_with_a_violation_writes_its_trace_and_exits_3(tmp_path, monkeypatch, capsys):
    k = 10  # round 10 of ada on blowup n=2 T=64 neither restarts nor precedes a restart
    _record_a_wrong_ceiling_on_round(monkeypatch, k)
    out = tmp_path / "trace.json"
    assert main([
        "run", "--learner", "ada", "--market", "blowup",
        "--n", "2", "--t-horizon", "64", "--out", str(out),
    ]) == EXIT_VERIFY
    assert f"round {k}: recorded ceiling 0.4999" in capsys.readouterr().err
    (violation,) = load_trace(out)["summary"]["invariant_violations"]
    assert violation.startswith(f"round {k}: recorded ceiling 0.4999")
    assert main(["verify", str(out)]) == EXIT_VERIFY
    assert f"round {k}: recorded ceiling 0.4999" in capsys.readouterr().err


def barrons_cli(flags, *args, **env):
    """``python [flags] -m barrons.cli args`` in a fresh interpreter of this package, with ``env`` added."""
    env = {**os.environ, "PYTHONPATH": str(Path(barrons.__file__).resolve().parent.parent), **env}
    return subprocess.run([sys.executable, *flags, "-m", "barrons.cli", *args], env=env, capture_output=True, text=True)


def test_trace_body_does_not_depend_on_python_optimize(tmp_path):
    # Under -O the run writes the same body, and verify still accepts it and still catches a moved loss.
    bodies = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"trace{len(flags)}.json"
        ran = barrons_cli(flags, "run", "--learner", "ada", "--market", "blowup", "--n", "2", "--t-horizon", "64", "--out", str(out))
        assert ran.returncode == EXIT_OK, ran.stderr
        bodies.append(json.dumps(load_trace(out), sort_keys=True, separators=(",", ":")))
    assert bodies[0] == bodies[1]
    assert barrons_cli(["-O"], "verify", str(out)).returncode == EXIT_OK
    doc = json.loads(out.read_text())
    doc["trace"]["per_round"]["loss"][4] += 1e-5
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    verified = barrons_cli(["-O"], "verify", str(tampered))
    assert verified.returncode == EXIT_VERIFY and "round 5: recorded loss" in verified.stderr, verified.stderr


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for two BLAS threads")
def test_trace_body_does_not_depend_on_the_blas_thread_count(tmp_path):
    # ada on iid_lognormal at n=100, T=512, seed 0: the body with one OpenBLAS thread and with two.
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"trace{threads}.json"
        ran = barrons_cli([], "run", "--learner", "ada", "--market", "iid_lognormal", "--n", "100", "--t-horizon", "512",
                          "--seed", "0", "--out", str(out), OPENBLAS_NUM_THREADS=threads)
        assert ran.returncode == EXIT_OK, ran.stderr
        body = json.dumps(load_trace(out), sort_keys=True, separators=(",", ":"))
        digests.append(hashlib.sha256(body.encode()).hexdigest())
    assert digests[0] == digests[1]


def test_sweep_writes_table(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main([
        "sweep", "--learner", "ogd", "--market", "iid_lognormal", "--n", "2",
        "--t-values", "16,24", "--reps", "2", "--out", str(out),
    ])
    assert code == EXIT_OK
    assert "4 runs, 0 failed" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[:5] == ["learner", "market", "N", "T", "seed"]
    assert len(lines) == 5
    doc = json.loads((tmp_path / "rows.json").read_text())
    assert len(doc["rows"]) == 4
    assert "growth_ratios" in doc


def test_sweep_with_a_violation_writes_its_tables_and_exits_3(tmp_path, monkeypatch, capsys):
    _record_a_wrong_ceiling_on_round(monkeypatch, 10)  # in every run: each starts a fresh learner
    out = tmp_path / "rows.csv"
    assert main([
        "sweep", "--learner", "ada", "--market", "blowup", "--n", "2",
        "--t-values", "64", "--reps", "2", "--out", str(out),
    ]) == EXIT_VERIFY
    err = capsys.readouterr().err
    assert "runs with invariant violations: 2" in err
    assert "T=64 seed=0: violations=1" in err and "T=64 seed=1: violations=1" in err
    lines = out.read_text().splitlines()
    column = lines[0].split(",").index("violations")
    assert [line.split(",")[column] for line in lines[1:]] == ["1", "1"]
    doc = json.loads((tmp_path / "rows.json").read_text())
    assert [row["violations"] for row in doc["rows"]] == [1, 1]


@pytest.mark.parametrize("flags, message", [
    (["--learner", "ada", "--market", "iid_lognormal", "--eps", "0.1"], "params ['epsilon'] not understood by 'iid_lognormal'"),
    (["--learner", "ada", "--market", "blowup", "--beta", "0.9"], "beta must lie in (0, 1/2], got 0.9"),
], ids=["market_param", "learner_setting"])
def test_sweep_in_which_no_run_ran_writes_its_tables_and_exits_1(tmp_path, capsys, flags, message):
    out = tmp_path / "rows.csv"
    assert main(["sweep", *flags, "--n", "2", "--t-values", "16,32", "--out", str(out)]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert "2 runs, 2 failed" in captured.out
    assert f"T=16 seed=0: {message}" in captured.err and f"T=32 seed=0: {message}" in captured.err
    assert len(out.read_text().splitlines()) == 3
    assert len(json.loads((tmp_path / "rows.json").read_text())["rows"]) == 2


def test_sweep_in_which_every_run_failed_in_the_solver_exits_2(tmp_path, starved_solver, capsys):
    out = tmp_path / "rows.csv"
    assert main([
        "sweep", "--learner", "ada", "--market", "blowup", "--n", "2", "--t-values", "16,32", "--out", str(out),
    ]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert "2 runs, 2 failed" in captured.out
    assert captured.err.count("newton iteration budget exhausted") == 2
    assert len(out.read_text().splitlines()) == 3


def test_sweep_in_which_some_runs_ran_exits_0(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main([
        "sweep", "--learner", "ada", "--market", "blowup", "--n", "2", "--t-values", "2,16", "--out", str(out),
    ]) == EXIT_OK
    assert "2 runs, 1 failed" in capsys.readouterr().out


@pytest.mark.parametrize("learner, flag", [
    ("eg", "--gamma"), ("barrons", "--gamma"), ("ada", "--mix"), ("ons", "--eta"), ("up-grid", "--beta"),
])
def test_a_learner_flag_the_learner_does_not_take_exits_1(tmp_path, capsys, learner, flag):
    out = tmp_path / "trace.json"
    assert main([
        "run", "--learner", learner, flag, "0.02", "--market", "blowup", "--n", "2", "--t-horizon", "16",
        "--out", str(out),
    ]) == EXIT_BAD_INPUT
    assert f"error: {learner} takes no setting {flag[2:]!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("learner, flag, value, message", [
    ("ons", "--beta", "nan", "beta must be finite and positive, got nan"),
    ("ons", "--beta", "inf", "beta must be finite and positive, got inf"),
    ("softbayes", "--eta", "2", "eta must lie in (0, 1], or be None, got 2.0"),
    ("eg", "--g-est", "0", "g_est must be finite and positive, or None, got 0.0"),
    ("eg", "--g-est", "-1", "g_est must be finite and positive, or None, got -1.0"),
    ("eg", "--eta", "-1", "eta must be finite and positive, or None, got -1.0"),
    ("ogd", "--eta", "-0.5", "eta must be finite and positive, or None, got -0.5"),
], ids=["ons-beta-nan", "ons-beta-inf", "softbayes-eta-2", "eg-g_est-0", "eg-g_est-neg", "eg-eta-neg", "ogd-eta-neg"])
def test_a_learner_setting_outside_its_range_exits_1(tmp_path, capsys, learner, flag, value, message):
    out = tmp_path / "trace.json"
    assert main([
        "run", "--learner", learner, flag, value, "--market", "blowup", "--n", "2", "--t-horizon", "64",
        "--out", str(out),
    ]) == EXIT_BAD_INPUT
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--t-horizon", "10"), ("--eps", "0.125"), ("--flip-period", "4"), ("--sigma", "5"), ("--seed", "5"),
])
def test_market_flags_are_rejected_with_a_csv_market(tmp_path, capsys, flag, value):
    csv_path = tmp_path / "market.csv"
    assert main([
        "gen", "--market", "cover_alternating", "--n", "2", "--t-horizon", "12", "--out", str(csv_path),
    ]) == EXIT_OK
    capsys.readouterr()
    assert main(["run", "--learner", "eg", "--csv", str(csv_path), "--n", "2", flag, value]) == EXIT_BAD_INPUT
    assert f"error: {flag} " in capsys.readouterr().err


@pytest.mark.parametrize("command, horizon", [
    ("run", ["--learner", "eg", "--t-horizon", "16"]),
    ("sweep", ["--learner", "eg", "--t-values", "16"]),
    ("gen", ["--t-horizon", "16"]),
], ids=["run", "sweep", "gen"])
def test_market_flags_reach_the_generator(tmp_path, monkeypatch, command, horizon):
    specs = []

    def spy(spec):
        specs.append(spec)
        return generate(spec)

    monkeypatch.setattr("barrons.harness.generate", spy)
    monkeypatch.setattr("barrons.cli.generate", spy)
    assert main([
        command, "--market", "blowup", "--n", "2", *horizon,
        "--eps", "0.125", "--flip-period", "4", "--out", str(tmp_path / "out"),
    ]) == EXIT_OK
    (spec,) = specs
    rounds = generate(spec)
    assert rounds[0].r.tolist() == [1.0, 0.125]
    assert rounds[4].r.tolist() == [0.125, 1.0]
