"""Acceptance suite: one test per shipped guarantee, one report line each.

Every test here checks an end-to-end property of the system at its working
scale: solver-versus-oracle equivalence, the stability bands the adaptive
restart scheme relies on, restart bookkeeping, regret growth, the
separation in gradient scale, comparator smoothing, degenerate-market
identities, and trace determinism.  Tolerances are pinned next to each
assertion.
"""

import json
import math
import time

import numpy as np
import pytest

from barrons.adaptive import default_eta, epoch_budget, leader_objective
from barrons.cli import EXIT_OK, main
from barrons.core import omd_step_objective
from barrons.domain import ProblemDims, nudge_interior, uniform_portfolio
from barrons.harness import load_trace, run_market, save_trace
from barrons.markets import MarketSpec, generate
from barrons.baselines import best_crp
from barrons.solver import minimize_over_clipped_simplex
from grid_oracle import grid_search_oracle, leader_values, step_values

MARKET_KINDS = ("constant", "cover_alternating", "blowup", "iid_lognormal")
STABILITY_GRID = [
    (kind, n, t) for kind in MARKET_KINDS for n in (2, 5) for t in (256, 1024)
]


@pytest.fixture(scope="session")
def stability_runs():
    """Full adaptive runs over every market family at both scales."""
    runs = {}
    for kind, n, t in STABILITY_GRID:
        spec = MarketSpec(kind, ProblemDims(n, t), seed=0)
        runs[(kind, n, t)] = run_market("ada", spec)
    return runs


@pytest.fixture(scope="session")
def growth_runs():
    """Adaptive runs across horizons for the regret growth criterion."""
    runs = {}
    elapsed = {}
    for kind in ("cover_alternating", "blowup"):
        for t in (256, 1024, 4096):
            spec = MarketSpec(kind, ProblemDims(2, t), seed=0)
            tick = time.perf_counter()
            runs[(kind, t)] = run_market("ada", spec)
            elapsed[(kind, t)] = time.perf_counter() - tick
    return runs, elapsed


def sample_portfolio(rng, dims: ProblemDims) -> np.ndarray:
    w = 3.0 * dims.n * dims.floor
    x = (1.0 - w) * rng.dirichlet(np.full(dims.n, 2.0)) + w / dims.n
    return x / x.sum()


def sample_round(rng, n: int) -> np.ndarray:
    r = rng.uniform(0.05, 1.0, n)
    r[rng.integers(n)] = 1.0
    return r


def test_solver_matches_grid_oracle(acceptance):
    # 50 one-step objectives and 50 leader objectives, split over two and
    # three assets; the interior-point answer must sit within 1e-4 in sup
    # norm of an independent grid sweep at resolution 1e-5.
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst = 0.0
    for n in (2, 3):
        dims = ProblemDims(n, 16)
        for _ in range(25):
            x_prev = sample_portfolio(rng, dims)
            r = sample_round(rng, n)
            grad = -r / float(x_prev @ r)
            cov = float(n) * np.eye(n) + np.outer(grad, grad)
            eta = default_eta(dims) * np.exp(rng.uniform(0.0, 1.0, n))
            obj = omd_step_objective(grad, cov, x_prev, 0.5, eta)
            got = minimize_over_clipped_simplex(
                obj, nudge_interior(x_prev, dims), dims
            )
            want = grid_search_oracle(step_values(grad, cov, x_prev, 0.5, eta), dims, 1e-5)
            worst = max(worst, float(np.abs(got - want).max()))
        for _ in range(25):
            m = int(rng.integers(2, 17))
            r_mat = np.stack([sample_round(rng, n) for _ in range(m)])
            obj = leader_objective(r_mat, 1.0 / 25.0)
            got = minimize_over_clipped_simplex(obj, uniform_portfolio(dims), dims)
            want = grid_search_oracle(leader_values(r_mat, 1.0 / 25.0), dims, 1e-5)
            worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - started
    acceptance(
        worst <= 1e-4 and elapsed < 300.0,
        f"100 instances, worst gap {worst:.3e}, {elapsed:.1f}s",
    )


def test_iterate_stability_band(acceptance, stability_runs):
    # Consecutive plays inside one epoch move by at most sqrt(3 eta)/2 per
    # coordinate in relative terms.
    worst = 0.0
    checked = 0
    ok = True
    for (kind, n, t), result in stability_runs.items():
        band = math.sqrt(3.0 * default_eta(ProblemDims(n, t))) / 2.0 + 1e-8
        epochs, plays = result.per_round["epoch"], result.per_round["x"]
        for k in range(1, len(epochs)):
            if epochs[k - 1] != epochs[k]:
                continue
            dev = float(
                np.abs(np.array(plays[k]) / np.array(plays[k - 1]) - 1.0).max()
            )
            worst = max(worst, dev / band)
            checked += 1
            ok = ok and dev <= band
    acceptance(ok and checked > 0, f"{checked} steps, worst dev {worst:.3f} of band")


def test_leader_stability_band(acceptance, stability_runs):
    # Consecutive leaders inside one epoch move by at most sqrt(gamma)/2.
    band = math.sqrt(1.0 / 25.0) / 2.0 + 1e-8
    worst = 0.0
    checked = 0
    ok = True
    for result in stability_runs.values():
        epochs, leaders = result.per_round["epoch"], result.per_round["u"]
        for k in range(1, len(epochs)):
            if epochs[k - 1] != epochs[k]:
                continue
            dev = float(np.abs(np.array(leaders[k]) / np.array(leaders[k - 1]) - 1.0).max())
            worst = max(worst, dev / band)
            checked += 1
            ok = ok and dev <= band
    acceptance(ok and checked > 0, f"{checked} steps, worst dev {worst:.3f} of band")


def test_ratio_max_halves_at_restarts(acceptance, stability_runs):
    # At a restart round t the leader-to-play ratio maximum a_t can exceed
    # the previous round's a_{t-1} by at most a factor of two, recomputed
    # here from the raw plays and leaders.
    restarts = 0
    ok = True
    for result in stability_runs.values():
        columns = result.per_round
        epoch_xs: list = []
        prev = None  # the previous round's leader within the epoch
        for x, u, restart in zip(columns["x"], columns["u"], columns["restart"]):
            epoch_xs.append(np.array(x))
            if restart and prev is not None and len(epoch_xs) >= 2:
                a_t = float((np.array(u) / np.stack(epoch_xs)).max())
                a_prev = float(
                    (np.array(prev) / np.stack(epoch_xs[:-1])).max()
                )
                ok = ok and a_prev >= 0.5 * a_t * (1.0 - 1e-12)
                restarts += 1
            if restart:
                epoch_xs = []
                prev = None
            else:
                prev = u
    acceptance(ok and restarts >= 1, f"{restarts} restarts checked")


def test_epoch_count_budget(acceptance, stability_runs):
    worst = ""
    ok = True
    for (kind, n, t), result in stability_runs.items():
        budget = epoch_budget(ProblemDims(n, t))
        count = result.summary["epoch_count"]
        if count > budget:
            ok = False
            worst = f"{kind} n={n} t={t}: {count} > {budget}"
    detail = worst or "all 16 runs within ceil(log2(32nt)) + 1"
    acceptance(ok, detail)


def test_restart_ceiling_range(acceptance, stability_runs):
    # The curvature ceiling stays within [1/(16nt), 1/2] at every round.
    ok = True
    lo_seen = 1.0
    for (kind, n, t), result in stability_runs.items():
        lo = 1.0 / (16.0 * n * t)
        for a in result.per_round["alpha"]:
            ok = ok and (lo - 1e-15 <= a <= 0.5)
            lo_seen = min(lo_seen, a / lo)
    acceptance(ok, f"smallest ceiling at {lo_seen:.2f}x its floor")


def test_regret_polylog_growth(acceptance, growth_runs):
    # (a) Regret stays under 4 n^2 (ln T)^4 at every horizon; (b) the step
    # from T=1024 to T=4096 grows by no more than the (ln T)^4 ratio with
    # ten percent slack.  A nonpositive regret at 1024 means there is no
    # growth to extrapolate, so the allowance floors at zero.
    runs, elapsed = growth_runs
    parts = []
    ok = True
    for kind in ("cover_alternating", "blowup"):
        regs = {t: runs[(kind, t)].summary["regret"] for t in (256, 1024, 4096)}
        for t, reg in regs.items():
            bound = 4.0 * 4.0 * math.log(t) ** 4
            ok = ok and reg <= bound
        ratio = (math.log(4096.0) / math.log(1024.0)) ** 4
        allowance = max(regs[1024], 0.0) * ratio * 1.1
        ok = ok and (regs[4096] - regs[1024] <= allowance)
        parts.append(f"{kind}: " + ", ".join(f"T={t} {regs[t]:+.4f}" for t in regs))
    slowest = max(elapsed[(k, 4096)] for k in ("cover_alternating", "blowup"))
    ok = ok and slowest <= 1800.0
    acceptance(ok, "; ".join(parts) + f"; slowest T=4096 run {slowest:.0f}s")


def test_gradient_blowup_separation(acceptance, tmp_path_factory):
    # The fixed-rate Newton baseline chases the pre-flip corner and eats
    # the regime flip; the adaptive scheme is meant to come out ahead.
    # Both traces are persisted beside the test run for inspection.
    dims = ProblemDims(2, 4096)
    spec = MarketSpec("blowup", dims, params={"epsilon": 1.0 / 32.0})
    out_dir = tmp_path_factory.mktemp("blowup-separation")
    ada = run_market("ada", spec)
    ons = run_market("ons", spec, params={"beta": 0.5, "mix": 0.0})
    ada_path = save_trace(ada, out_dir / "ada.json")
    ons_path = save_trace(ons, out_dir / "ons.json")
    ada_reg = ada.summary["regret"]
    ons_reg = ons.summary["regret"]
    acceptance(
        ada_reg < ons_reg,
        f"ada regret {ada_reg:+.4f}, ons regret {ons_reg:+.4f}, "
        f"traces at {ada_path} and {ons_path}",
    )


def test_gradient_scale_separation(acceptance):
    # The paper's separation: ONS regret grows with the inverse of the smallest price relative,
    # and the adaptive scheme's does not.  On blowup (n=2, T=1024, a flip every 64 rounds) with
    # epsilon from 1/32 to 1/2048, ada stays within 0.01 nats of the best CRP at every epsilon
    # (far inside the 4 n^2 (ln T)^4 band, about 3.7e4) and moves by at most 0.01 nats between
    # the ends, while ONS (beta 0.5, no mixing) loses at least 50 times more at the smallest
    # epsilon than at the largest.  The thresholds were fixed before the first run.
    dims = ProblemDims(2, 1024)
    epsilons = (1.0 / 32.0, 1.0 / 256.0, 1.0 / 2048.0)
    ada, ons = [], []
    for eps in epsilons:
        spec = MarketSpec("blowup", dims, params={"epsilon": eps, "flip_period": 64})
        ada.append(run_market("ada", spec).summary["regret"])
        ons.append(run_market("ons", spec, params={"beta": 0.5, "mix": 0.0}).summary["regret"])
    ok = max(ada) <= 0.01 and ada[-1] - ada[0] <= 0.01 and ons[0] > 0.0 and ons[-1] >= 50.0 * ons[0]
    table = ", ".join(f"1/{round(1.0 / eps)}: ada {a:+.4f} ons {o:+.2f}" for eps, a, o in zip(epsilons, ada, ons))
    acceptance(ok, f"{table}; ons grew {ons[-1] / ons[0]:.0f}x")


def test_smoothing_inflation_bound(acceptance):
    # Pulling any comparator into the clipped simplex costs at most 2 nats
    # of cumulative loss, over 100 markets times 100 comparators each
    # (vertices included).
    dims = ProblemDims(3, 50)
    shrink = 1.0 - 1.0 / dims.t
    worst = -np.inf
    for seed in range(100):
        rounds = generate(MarketSpec("iid_lognormal", dims, seed=seed))
        r_mat = np.stack([r.r for r in rounds])
        rng = np.random.default_rng(10_000 + seed)
        comparators = np.vstack([np.eye(3), rng.dirichlet(np.ones(3), size=97)])
        smoothed = shrink * comparators + dims.floor
        with np.errstate(divide="ignore"):
            raw_losses = -np.log(r_mat @ comparators.T).sum(axis=0)
        smooth_losses = -np.log(r_mat @ smoothed.T).sum(axis=0)
        worst = max(worst, float((smooth_losses - raw_losses).max()))
    acceptance(worst <= 2.0 + 1e-9, f"10000 pairs, worst inflation {worst:.6f} nats")


def test_constant_market_identities(acceptance):
    # A flat market moves nothing: zero regret, zero restarts, uniform
    # plays for every learner that starts uniform.
    dims = ProblemDims(2, 16)
    spec = MarketSpec("constant", dims)
    ok = True
    worst_reg = 0.0
    worst_dev = 0.0
    for learner in ("ada", "barrons", "ons", "eg", "ogd", "softbayes", "up-grid"):
        result = run_market(learner, spec)
        reg = abs(result.summary["regret"])
        dev = max(
            float(np.abs(np.array(x) - 0.5).max()) for x in result.per_round["x"]
        )
        worst_reg = max(worst_reg, reg)
        worst_dev = max(worst_dev, dev)
        ok = ok and reg <= 1e-9 and dev <= 1e-9
        ok = ok and result.summary["restarts"] == 0
    acceptance(ok, f"worst |regret| {worst_reg:.2e}, worst play deviation {worst_dev:.2e}")


def test_cover_market_best_crp(acceptance):
    # Alternating (1, 1/2) / (1/2, 1) rounds: even money is optimal, and
    # in raw (pre-normalization) terms its wealth compounds at 9/8 per
    # pair; the generator scales even rounds by 1/2, so the identity adds
    # (T/2) log 2 back.
    dims = ProblemDims(2, 16)
    rounds = generate(MarketSpec("cover_alternating", dims))
    crp, total_loss = best_crp(rounds, dims)
    weight_gap = float(np.abs(crp - 0.5).max())
    want_log_wealth = (dims.t / 2.0) * math.log(9.0 / 8.0)
    got_log_wealth = -total_loss + (dims.t / 2.0) * math.log(2.0)
    rel = abs(got_log_wealth - want_log_wealth) / want_log_wealth
    acceptance(
        weight_gap <= 1e-5 and rel <= 1e-6,
        f"weights off by {weight_gap:.2e}, log-wealth off by {rel:.2e} relative",
    )


def test_trace_determinism(acceptance, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("determinism")
    args = [
        "run", "--learner", "ada", "--market", "iid_lognormal",
        "--n", "3", "--t-horizon", "64", "--seed", "12",
    ]
    bodies = []
    for name in ("first.json", "second.json"):
        path = out_dir / name
        assert main(args + ["--out", str(path)]) == EXIT_OK
        bodies.append(
            json.dumps(load_trace(path), sort_keys=True, separators=(",", ":")).encode()
        )
    acceptance(
        bodies[0] == bodies[1],
        f"{len(bodies[0])} byte bodies identical across invocations",
    )
