"""Command line front end.

Exit codes: 0 on success, 1 for bad inputs or configuration (usage errors
included, with argparse's message, and a sweep none of whose runs ran), 2
when the inner solver fails (also in every run of a sweep none of whose
runs ran), 3 when a trace fails verification or a run (or any run of a
sweep) records an invariant violation.  ``run`` writes its
trace (``--out``), and ``sweep`` its tables, before it exits, whatever the
code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .domain import ProblemDims
from .harness import (
    LEARNER_NAMES,
    load_trace,
    run_experiment,
    run_market,
    sweep,
    verify_trace,
    write_sweep_csv,
    write_sweep_json,
)
from .markets import MARKET_KINDS, MarketSpec, generate, load_csv, write_csv
from .solver import SolverFailure

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3

# Each learner flag: the setting it gives the learner, and its help.
_LEARNER_FLAGS = {
    "--beta": ("beta", "inverse curvature weight"),
    "--eta": ("eta", "base learning rate"),
    "--gamma": ("gamma", "leader barrier weight"),
    "--mix": ("mix", "uniform mixing weight"),
    "--g-est": ("g_est", "gradient bound estimate for eg"),
    "--resolution": ("resolution", "grid pitch for up-grid"),
}
# Each flag of a built-in market's params: the param it sets, its type and its help.
_MARKET_FLAGS = {
    "--eps": ("epsilon", float, "small price relative for the blowup market"),
    "--flip-period": ("flip_period", int, "rounds between blowup regime flips"),
    "--sigma": ("sigma", float, "log-volatility for the iid market"),
}


def _add_market_args(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--market", choices=MARKET_KINDS, help="built-in market family")
    group.add_argument("--csv", type=Path, help="CSV of raw price relatives, one round per row")
    parser.add_argument("--t-horizon", type=int, help="number of rounds (built-in markets)")
    _add_market_flags(parser)


def _add_market_flags(parser):
    """The flags run, sweep and gen share: the asset count, the market seed and the market parameters."""
    parser.add_argument("--n", type=int, required=True, help="number of assets")
    parser.add_argument("--seed", type=int, help="market seed (built-in markets; default 0)")
    for flag, (param, kind, text) in _MARKET_FLAGS.items():
        parser.add_argument(flag, dest=param, type=kind, help=text)


def _add_learner_args(parser):
    parser.add_argument("--learner", choices=LEARNER_NAMES, required=True)
    for flag, (setting, text) in _LEARNER_FLAGS.items():
        parser.add_argument(flag, dest=setting, type=float, help=text)


def _flag_values(args, flags: dict) -> dict:
    """The flags of ``flags`` that were given, by the name each one sets, with their values."""
    return {name: getattr(args, name) for name, *_ in flags.values() if getattr(args, name) is not None}


def _seed(args) -> int:
    return 0 if args.seed is None else args.seed


def _market_spec(args) -> MarketSpec:
    if args.t_horizon is None:
        raise ValueError("--t-horizon is required with --market")
    return MarketSpec(
        args.market,
        ProblemDims(args.n, args.t_horizon),
        seed=_seed(args),
        params=_flag_values(args, _MARKET_FLAGS),
    )


def _cmd_run(args) -> int:
    params = _flag_values(args, _LEARNER_FLAGS)
    if args.csv is not None:
        built_in = {"--t-horizon": args.t_horizon, "--seed": args.seed}
        built_in.update((flag, getattr(args, param)) for flag, (param, *_) in _MARKET_FLAGS.items())
        for flag, value in built_in.items():
            if value is not None:
                raise ValueError(f"{flag} applies to a built-in market, not to --csv")
        rounds, dims = load_csv(args.csv, args.n)
        result = run_experiment(
            args.learner,
            rounds,
            dims,
            params=params,
            market_desc=f"csv:{args.csv.name}",
            seed=None,
            out_path=args.out,
        )
    else:
        result = run_market(
            args.learner,
            _market_spec(args),
            params=params,
            out_path=args.out,
        )
    summary = result.summary
    print(f"learner={args.learner} rounds={summary['rounds_played']} total_loss={summary['total_loss']:.6f}")
    print(f"best_crp_loss={summary['best_crp_loss']:.6f} regret={summary['regret']:.6f}")
    print(f"epochs={summary['epoch_count']} restarts={summary['restarts']} max_grad={summary['max_grad_inf_norm']:.3f}")
    violations = summary["invariant_violations"]
    if violations:
        print(f"invariant violations: {len(violations)}", file=sys.stderr)
        for line in violations[:10]:
            print(f"  {line}", file=sys.stderr)
    if args.out is not None:
        print(f"trace written to {args.out}")
    return EXIT_VERIFY if violations else EXIT_OK


def _cmd_sweep(args) -> int:
    t_values = [int(v) for v in args.t_values.split(",") if v.strip()]
    errors: list = []
    rows = sweep(
        args.learner,
        args.market,
        args.n,
        t_values,
        reps=args.reps,
        seed=_seed(args),
        params=_flag_values(args, _LEARNER_FLAGS),
        market_params=_flag_values(args, _MARKET_FLAGS),
        errors=errors,
    )
    write_sweep_csv(rows, args.out)
    json_path = args.out.with_suffix(".json")
    write_sweep_json(rows, json_path)
    failures = [row for row in rows if row["error"]]
    violated = [row for row in rows if row["violations"]]
    print(
        f"{len(rows)} runs, {len(failures)} failed, "
        f"table written to {args.out} and {json_path}"
    )
    for row in failures[:10]:
        print(f"  T={row['T']} seed={row['seed']}: {row['error']}", file=sys.stderr)
    if violated:
        print(f"runs with invariant violations: {len(violated)}", file=sys.stderr)
        for row in violated[:10]:
            print(f"  T={row['T']} seed={row['seed']}: violations={row['violations']}", file=sys.stderr)
    if len(failures) == len(rows):  # no run ran
        return EXIT_SOLVER if all(isinstance(exc, SolverFailure) for exc in errors) else EXIT_BAD_INPUT
    return EXIT_VERIFY if violated else EXIT_OK


def _cmd_verify(args) -> int:
    trace = load_trace(args.trace)
    # The run's own violations are among the problems: the checker finds them again.
    problems = verify_trace(trace)
    if problems:
        print(f"{args.trace}: {len(problems)} problems", file=sys.stderr)
        for line in problems[:20]:
            print(f"  {line}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"{args.trace}: ok")
    return EXIT_OK


def _cmd_gen(args) -> int:
    rounds = generate(_market_spec(args))
    write_csv(rounds, args.out)
    print(f"{len(rounds)} rounds written to {args.out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with ``EXIT_BAD_INPUT``; argparse's 2 is ``EXIT_SOLVER``."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="barrons",
        description="Online portfolio selection with barrier-regularized Newton steps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one learner over one market")
    _add_learner_args(p_run)
    _add_market_args(p_run)
    p_run.add_argument("--out", type=Path, help="write the JSON trace here")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid of runs over horizons and seeds")
    _add_learner_args(p_sweep)
    p_sweep.add_argument("--market", choices=MARKET_KINDS, required=True)
    p_sweep.add_argument("--t-values", required=True, help="comma separated horizons")
    p_sweep.add_argument("--reps", type=int, default=1)
    _add_market_flags(p_sweep)
    p_sweep.add_argument("--out", type=Path, required=True, help="CSV results table")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="recheck a persisted trace")
    p_verify.add_argument("trace", type=Path)
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("gen", help="write a built-in market to CSV")
    p_gen.add_argument("--market", choices=MARKET_KINDS, required=True)
    p_gen.add_argument("--t-horizon", type=int, required=True)
    _add_market_flags(p_gen)
    p_gen.add_argument("--out", type=Path, required=True)
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SolverFailure as failure:
        print(f"solver failure: {failure}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
