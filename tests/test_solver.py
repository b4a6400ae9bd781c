"""Newton solver over the clipped simplex, checked against the grid-search oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barrons.adaptive import default_eta, leader_objective
from barrons.core import omd_step_objective
from barrons.domain import ProblemDims, nudge_interior, uniform_portfolio
from barrons.solver import (
    KKT_TOL,
    Objective,
    SolveDiagnostics,
    SolverFailure,
    _barrier_path,
    _boundary_step,
    _cuts_a_slack,
    _float_pin,
    _kkt_violation,
    _lapack_solve,
    _null_basis,
    _reduced_system,
    _stage_residual,
    minimize_over_clipped_simplex,
)
from grid_oracle import grid_search_oracle, leader_values, step_values

DIMS2 = ProblemDims(2, 16)
DIMS3 = ProblemDims(3, 16)


def quadratic_objective(target: np.ndarray) -> Objective:
    target = np.asarray(target, dtype=float)

    def value(x):
        return 0.5 * float(((x - target) ** 2).sum())

    def gradient(x):
        return x - target

    def hessian(x):
        return np.eye(target.size)

    return Objective(value, gradient, hessian)


def quadratic_values(target):
    """Values of ``quadratic_objective(target)`` at (m, n) points, for the grid oracle."""
    target = np.asarray(target, dtype=float)
    return lambda pts: 0.5 * ((pts - target) ** 2).sum(axis=1)


def random_omd_data(rng, dims: ProblemDims):
    """``(grad, cov, x_prev, eta)`` of a random one-step objective with beta 1/2."""
    # Mixing weight keeps every coordinate at least 3*floor, well clear of
    # the wall, matching what the learner actually feeds the solver.
    w = 3.0 * dims.n * dims.floor
    x_prev = (1.0 - w) * rng.dirichlet(np.full(dims.n, 2.0)) + w / dims.n
    x_prev /= x_prev.sum()
    r = rng.uniform(0.05, 1.0, dims.n)
    r[rng.integers(dims.n)] = 1.0
    grad = -r / float(x_prev @ r)
    cov = float(dims.n) * np.eye(dims.n) + np.outer(grad, grad)
    eta = default_eta(dims) * np.exp(rng.uniform(0.0, 1.0, dims.n))
    return grad, cov, x_prev, eta


def random_omd_objective(rng, dims: ProblemDims):
    grad, cov, x_prev, eta = random_omd_data(rng, dims)
    return omd_step_objective(grad, cov, x_prev, 0.5, eta), x_prev


def random_rounds(rng, dims: ProblemDims):
    m = rng.integers(2, 9)
    r_mat = rng.uniform(0.05, 1.0, (m, dims.n))
    r_mat[np.arange(m), rng.integers(0, dims.n, m)] = 1.0
    return r_mat


def random_leader_objective(rng, dims: ProblemDims):
    return leader_objective(random_rounds(rng, dims), 1.0 / 25.0)


def kkt_certified(obj, x, dims: ProblemDims, tol: float) -> bool:
    """Whether `x` meets the solver's first-order conditions for `obj` to within `tol`."""
    return _kkt_violation(obj.gradient(x), x, dims.floor) <= tol


def test_euclidean_projection_hits_the_floor():
    obj = quadratic_objective([1.2, -0.2])
    warm = uniform_portfolio(DIMS2)
    out = minimize_over_clipped_simplex(obj, warm, DIMS2)
    np.testing.assert_allclose(out, [31.0 / 32.0, 1.0 / 32.0], atol=1e-9)
    assert not out.flags.writeable


def test_euclidean_projection_interior_point_is_fixed():
    obj = quadratic_objective([0.3, 0.7])
    out = minimize_over_clipped_simplex(obj, uniform_portfolio(DIMS2), DIMS2)
    np.testing.assert_allclose(out, [0.3, 0.7], atol=1e-9)
    assert not out.flags.writeable


def test_warm_start_validation():
    obj = quadratic_objective([0.3, 0.7])
    with pytest.raises(ValueError, match="coordinates"):
        minimize_over_clipped_simplex(obj, np.array([0.3, 0.3, 0.4]), DIMS2)
    with pytest.raises(ValueError, match="sums to"):
        minimize_over_clipped_simplex(obj, np.array([0.6, 0.6]), DIMS2)
    with pytest.raises(ValueError, match="strictly above"):
        minimize_over_clipped_simplex(obj, np.array([1.0 - DIMS2.floor, DIMS2.floor]), DIMS2)


@pytest.mark.parametrize("warm", ([np.nan, np.nan], [np.nan, 0.5], [np.inf, -np.inf]))
def test_warm_start_rejects_non_finite_weights(warm):
    obj = quadratic_objective([0.3, 0.7])
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        minimize_over_clipped_simplex(obj, np.array(warm), DIMS2)


def test_oracle_exact_on_anchored_lattice_two_assets():
    # The two-asset sweep is anchored at the floor, so a minimizer placed on
    # a lattice point is recovered without discretization error.
    target = np.array([DIMS2.floor + 0.368, 1.0 - DIMS2.floor - 0.368])
    out = grid_search_oracle(quadratic_values(target), DIMS2, 1e-3)
    np.testing.assert_allclose(out, target, atol=1e-12)


def test_oracle_input_validation():
    values = quadratic_values([0.5, 0.5])
    with pytest.raises(ValueError, match="positive"):
        grid_search_oracle(values, DIMS2, 0.0)
    with pytest.raises(ValueError, match="2 or 3 assets"):
        grid_search_oracle(quadratic_values([0.25] * 4), ProblemDims(4, 16), 1e-3)


def test_oracle_refinement_three_assets():
    target = np.array([0.2, 0.3, 0.5])
    out = grid_search_oracle(quadratic_values(target), DIMS3, 1e-5)
    assert np.abs(out - target).max() <= 2e-5


def test_solver_matches_oracle_single_omd_instance():
    rng = np.random.default_rng(0)
    grad, cov, x_prev, eta = random_omd_data(rng, DIMS2)
    obj = omd_step_objective(grad, cov, x_prev, 0.5, eta)
    got = minimize_over_clipped_simplex(obj, nudge_interior(x_prev, DIMS2), DIMS2)
    want = grid_search_oracle(step_values(grad, cov, x_prev, 0.5, eta), DIMS2, 1e-5)
    assert np.abs(got - want).max() <= 1e-4


def test_solver_matches_oracle_single_leader_instance():
    rng = np.random.default_rng(1)
    r_mat = random_rounds(rng, DIMS3)
    got = minimize_over_clipped_simplex(leader_objective(r_mat, 1.0 / 25.0), uniform_portfolio(DIMS3), DIMS3)
    want = grid_search_oracle(leader_values(r_mat, 1.0 / 25.0), DIMS3, 1e-5)
    assert np.abs(got - want).max() <= 1e-4


def test_penalized_value_descends_within_stages():
    # Within any one barrier stage each accepted Newton step lowers the
    # penalized value, up to comparison noise at the scale of the value.
    rng = np.random.default_rng(5)
    for trial in range(10):
        obj, x_prev = random_omd_objective(rng, DIMS3)
        diag = SolveDiagnostics()
        minimize_over_clipped_simplex(
            obj, nudge_interior(x_prev, DIMS3), DIMS3, diagnostics=diag
        )
        assert diag.stages, "solver reported no stages"
        for stage in diag.stages:
            phi = stage["phi"]
            for a, b in zip(phi, phi[1:]):
                assert b <= a + 1e-12 * (1.0 + abs(a))


def reconstructed_kkt_gap(obj, x: np.ndarray, dims: ProblemDims):
    # Reconstruct the equality multiplier from the inactive coordinates and
    # the bound multipliers from the active ones; feasible first-order
    # points make both residuals small and the bound multipliers
    # nonnegative.
    g = obj.gradient(x)
    active = (x - dims.floor) <= 1e-7
    if active.all():
        active = np.zeros_like(active)
    c = float(g[~active].mean())
    stationarity = float(np.linalg.norm(g[~active] - c))
    lam_min = float((g[active] - c).min()) if active.any() else 0.0
    return stationarity, lam_min


def test_first_order_conditions_at_the_answer():
    rng = np.random.default_rng(9)
    cases = []
    for _ in range(5):
        obj, x_prev = random_omd_objective(rng, DIMS2)
        cases.append((obj, nudge_interior(x_prev, DIMS2), DIMS2))
        cases.append((random_leader_objective(rng, DIMS3), uniform_portfolio(DIMS3), DIMS3))
    cases.append((quadratic_objective([1.2, -0.2]), uniform_portfolio(DIMS2), DIMS2))
    for obj, warm, dims in cases:
        out = minimize_over_clipped_simplex(obj, warm, dims)
        stationarity, lam_min = reconstructed_kkt_gap(obj, out, dims)
        assert stationarity <= 10.0 * KKT_TOL
        assert lam_min >= -10.0 * KKT_TOL


def test_resolve_from_answer_takes_few_steps():
    # A warm start at the returned optimum satisfies complementarity, so
    # the barrier path collapses to its final stage.
    rng = np.random.default_rng(13)
    for _ in range(5):
        obj, x_prev = random_omd_objective(rng, DIMS3)
        first = minimize_over_clipped_simplex(
            obj, nudge_interior(x_prev, DIMS3), DIMS3
        )
        assert first.min() > DIMS3.floor
        diag = SolveDiagnostics()
        again = minimize_over_clipped_simplex(obj, first, DIMS3, diagnostics=diag)
        assert diag.newton_iters <= 3
        assert np.abs(again - first).max() <= 1e-8


def test_budget_exhaustion_raises_with_context(monkeypatch):
    monkeypatch.setattr("barrons.solver.MAX_NEWTON_ITERS", 1)
    obj = quadratic_objective([1.2, -0.2])
    with pytest.raises(SolverFailure) as info:
        minimize_over_clipped_simplex(obj, uniform_portfolio(DIMS2), DIMS2)
    failure = info.value
    assert failure.last_iterate.shape == (2,)
    assert failure.residual > 0.0
    assert failure.mu > 0.0
    assert "mu=" in str(failure)


def test_solutions_respect_floor_and_sum():
    rng = np.random.default_rng(21)
    for _ in range(20):
        target = rng.normal(0.0, 1.0, 3)
        target = target - target.mean() + 1.0 / 3.0
        out = minimize_over_clipped_simplex(
            quadratic_objective(target), uniform_portfolio(DIMS3), DIMS3
        )
        assert abs(out.sum() - 1.0) <= 1e-12
        assert out.min() >= DIMS3.floor - 1e-12


def test_interior_optimum_takes_the_affine_phase_alone():
    rng = np.random.default_rng(31)
    obj, x_prev = random_omd_objective(rng, DIMS3)
    diag = SolveDiagnostics()
    first = minimize_over_clipped_simplex(
        obj, nudge_interior(x_prev, DIMS3), DIMS3, diagnostics=diag
    )
    assert not diag.fell_back
    assert [stage["mu"] for stage in diag.stages] == [0.0]
    assert diag.newton_iters == diag.stages[0]["iters"] >= 1
    again = SolveDiagnostics()
    minimize_over_clipped_simplex(obj, first, DIMS3, diagnostics=again)
    assert not again.fell_back and len(again.stages) == 1
    assert again.newton_iters <= 3


def test_floor_active_quadratic_falls_back_to_the_barrier_path():
    diag = SolveDiagnostics()
    out = minimize_over_clipped_simplex(
        quadratic_objective([1.2, -0.2]), uniform_portfolio(DIMS2), DIMS2, diagnostics=diag
    )
    assert diag.fell_back
    assert diag.stages[0]["mu"] == 0.0
    barrier = diag.stages[1:]
    assert barrier and all(stage["mu"] > 0.0 for stage in barrier)
    assert diag.newton_iters == sum(stage["iters"] for stage in diag.stages)
    np.testing.assert_allclose(out, [31.0 / 32.0, 1.0 / 32.0], atol=1e-9)


def test_kkt_certificate_accepts_optima_and_rejects_other_points():
    interior = quadratic_objective([0.3, 0.7])
    assert kkt_certified(interior, np.array([0.3, 0.7]), DIMS2, 1e-12)
    assert not kkt_certified(interior, np.array([0.5, 0.5]), DIMS2, 1e-3)
    # On the floor the multiplier must push into the wall, not away from it.
    pushed = quadratic_objective([1.2, -0.2])
    at_floor = np.array([1.0 - DIMS2.floor, DIMS2.floor])
    assert kkt_certified(pushed, at_floor, DIMS2, 1e-12)
    pulled = quadratic_objective([0.9, 0.1])
    assert not kkt_certified(pulled, at_floor, DIMS2, 1e-3)


# Property tests over any n: the affine-first solve and the barrier path
# alone must agree and both pass the KKT certificate.  Step and ONS
# objectives are built around a chosen optimum x* (some coordinates on the
# floor with multipliers in [0.1, 10], the rest well inside), so they are
# also checked against x*.  Leaders are fitted as the controller fits them
# (gamma <= 1/25, at most t rows); their barrier keeps them off the floor,
# which would take more than 25*n*t rows to reach.


def _chosen_optimum(rng, dims, floor_active):
    n = dims.n
    on = np.zeros(n, dtype=bool)
    if floor_active:
        on[rng.choice(n, int(rng.integers(1, n)), replace=False)] = True
    w = np.where(on, 0.0, rng.uniform(0.5, 1.5, n))
    x_star = dims.floor + (1.0 - n * dims.floor) * w / w.sum()
    multipliers = rng.normal() + np.where(on, rng.uniform(0.1, 10.0, n), 0.0)
    return x_star, multipliers


def _nearby_point(rng, dims, x_star, lo, hi):
    y = dims.floor + (1.0 - dims.n * dims.floor) * rng.dirichlet(np.ones(dims.n))
    w = 10.0 ** rng.uniform(lo, hi)
    return (1.0 - w) * x_star + w * y


def _random_cov(rng, n):
    gs = rng.normal(0.0, 3.0, (3, n))
    return n * np.eye(n) + gs.T @ gs


def _step_case(rng, dims, floor_active):
    x_star, multipliers = _chosen_optimum(rng, dims, floor_active)
    x_prev = _nearby_point(rng, dims, x_star, -4.0, -2.0)
    cov = _random_cov(rng, dims.n)
    eta = default_eta(dims) * np.exp(rng.uniform(0.0, 1.0, dims.n))
    d = x_star - x_prev
    grad = multipliers - 0.5 * (cov @ d) - d / (eta * x_star * x_prev)
    return omd_step_objective(grad, cov, x_prev, 0.5, eta), x_prev, x_star


def _ons_case(rng, dims, floor_active):
    x_star, multipliers = _chosen_optimum(rng, dims, floor_active)
    x_prev = _nearby_point(rng, dims, x_star, -3.0, 0.0)
    cov = _random_cov(rng, dims.n)
    grad = multipliers - 0.5 * (cov @ (x_star - x_prev))
    return omd_step_objective(grad, cov, x_prev, 0.5), x_prev, x_star


def _leader_case(rng, dims, floor_active):
    m = int(rng.integers(1, dims.t + 1))
    r_mat = rng.uniform(0.05, 1.0, (m, dims.n))
    r_mat[np.arange(m), rng.integers(0, dims.n, m)] = 1.0
    gamma = 10.0 ** rng.uniform(-3.0, np.log10(1.0 / 25.0))
    return leader_objective(r_mat, gamma), uniform_portfolio(dims), None


def _certificate_tol(obj, x):
    # Ten times the residual doubles can resolve at x (the solver's float pin).
    pin = float(np.max(np.abs(np.diagonal(obj.hessian(x))) * np.spacing(x)))
    return 10.0 * max(KKT_TOL, pin)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from((_step_case, _ons_case, _leader_case)),
    n=st.sampled_from((2, 5, 10, 20)),
    floor_active=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_affine_first_agrees_with_barrier_path(family, n, floor_active, seed):
    dims = ProblemDims(n, 64)
    obj, x_prev, x_star = family(np.random.default_rng(seed), dims, floor_active)
    warm = nudge_interior(x_prev, dims)
    diag = SolveDiagnostics()
    got = minimize_over_clipped_simplex(obj, warm, dims, diagnostics=diag)
    start = warm - dims.floor
    s = _barrier_path(obj, start, obj.gradient(dims.floor + start), dims, _null_basis(n), None)
    barrier = (dims.floor + s) / (dims.floor + s).sum()

    assert np.abs(got - barrier).max() <= 1e-9
    for x in (got, barrier):
        assert kkt_certified(obj, x, dims, _certificate_tol(obj, x))
        if x_star is not None:
            assert np.abs(x - x_star).max() <= 1e-9
    assert diag.fell_back == (x_star is not None and floor_active)


@pytest.mark.parametrize("n", (2, 3, 5, 20))
def test_sliced_reduced_system_is_bitwise_the_matrix_products(n):
    basis = _null_basis(n)
    rng = np.random.default_rng(n)
    for _ in range(20):
        a = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 3.0), (n + 2, n))
        h = a.T @ a + 1e-3 * np.eye(n)  # random symmetric positive definite
        g = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 3.0), n)
        hz, rhs = _reduced_system(h, g)
        assert np.array_equal(hz, basis.T @ h @ basis)
        assert np.array_equal(rhs, -(basis.T @ g))


def _masked_kkt_violation(g, x, floor):
    # The violation with the floor mask always applied.
    on_floor = x - floor <= 1e-9
    dev = g - g[~on_floor].mean()
    return max(float(np.abs(dev[~on_floor]).max()), float(np.max(-dev[on_floor], initial=0.0)))


def _bits(v) -> bytes:
    # Equal bits: NaN matches NaN, and 0.0 does not match -0.0.
    return np.asarray(v, dtype=float).tobytes()


def _outcome(fn, *args):
    """The bits of ``fn(*args)``, or the exception it raises; numpy's warnings are silenced."""
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return _bits(fn(*args))
    except (ValueError, np.linalg.LinAlgError) as exc:
        return f"{type(exc).__name__}: {exc}"


_NON_FINITE = (np.nan, np.inf, -np.inf)


@pytest.mark.parametrize("n", (2, 3, 5, 20))
def test_kkt_violation_fast_path_is_bitwise_the_masked_formula(n):
    dims = ProblemDims(n, 64)
    rng = np.random.default_rng(100 + n)
    for trial in range(60):
        x = rng.dirichlet(np.ones(n)) * (1.0 - n * dims.floor) + dims.floor
        if trial % 2:  # push some coordinates onto the floor, within 1e-9 of it
            on = rng.random(n) < 0.5
            on[rng.integers(n)] = False
            x[on] = dims.floor + rng.uniform(0.0, 1e-9, on.sum())
        g = rng.normal(0.0, 10.0 ** rng.uniform(-6.0, 2.0), n)
        if trial >= 40:  # a NaN or infinite gradient entry or coordinate
            target = g if trial % 4 < 2 else x
            target[rng.integers(n)] = _NON_FINITE[trial % 3]
        assert _outcome(_kkt_violation, g, x, dims.floor) == _outcome(_masked_kkt_violation, g, x, dims.floor)


def _numpy_float_pin(h_obj, x, s, barrier_curv=None):
    pin = np.abs(h_obj.diagonal()) * np.spacing(x)
    if barrier_curv is not None:
        pin = pin + barrier_curv * np.spacing(s)
    return float(pin.max())


@pytest.mark.parametrize("n", (2, 3, 5, 20))
def test_float_pin_is_bitwise_the_numpy_formula(n):
    dims = ProblemDims(n, 64)
    rng = np.random.default_rng(200 + n)
    for trial in range(60):
        a = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 3.0), (n + 2, n))
        h = a.T @ a + 1e-3 * np.eye(n)
        x = rng.dirichlet(np.ones(n)) * (1.0 - n * dims.floor) + dims.floor
        x[rng.random(n) < 0.3] = dims.floor * (1.0 + 10.0 ** rng.uniform(-12.0, 0.0))
        s = x - dims.floor
        curv = None if trial % 2 else 10.0 ** rng.uniform(-12.0, 0.0) / s**2
        if trial >= 40:  # a NaN or infinite curvature, coordinate or slack
            i, bad = rng.integers(n), _NON_FINITE[trial % 3]
            if trial % 4 < 2:
                h[i, i] = bad
            elif bad > 0.0:  # x and s are positive, where math.ulp is np.spacing
                x[i] = s[i] = bad
            else:
                s[i] = np.nan
                if curv is not None:
                    curv[i] = np.nan
        assert _outcome(_float_pin, h, x, s, curv) == _outcome(_numpy_float_pin, h, x, s, curv)


def _numpy_cuts_a_slack(s, ds):
    return bool((s + ds <= 0.01 * s).any())


def _numpy_boundary_step(s, ds):
    step = 1.0
    shrinking = ds < 0.0
    if shrinking.any():
        step = min(1.0, 0.99 * float((s[shrinking] / -ds[shrinking]).min()))
    return step


@pytest.mark.parametrize("n", (2, 3, 5, 20))
def test_step_tests_are_bitwise_the_numpy_formulas(n):
    rng = np.random.default_rng(300 + n)
    for trial in range(80):
        s = 10.0 ** rng.uniform(-14.0, 0.0, n)
        ds = rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-14.0, 1.0, n)
        if trial % 3 == 0:  # a step that nearly empties one slack
            i = rng.integers(n)
            ds[i] = -s[i] * (1.0 - 10.0 ** rng.uniform(-3.0, -1.0))
        if trial >= 60:  # a NaN or infinite step entry or slack
            target = ds if trial % 2 else s
            target[rng.integers(n)] = _NON_FINITE[trial % 3]
        assert _cuts_a_slack(s, ds) == _numpy_cuts_a_slack(s, ds)
        assert _outcome(_boundary_step, s, ds) == _outcome(_numpy_boundary_step, s, ds)


@pytest.mark.parametrize("n", (2, 3, 5, 20))
def test_stage_residual_norm_is_bitwise_numpys(n):
    rng = np.random.default_rng(400 + n)
    for trial in range(40):
        target = rng.dirichlet(np.ones(n))
        if trial >= 30:
            target[rng.integers(n)] = _NON_FINITE[trial % 3]
        x = rng.dirichlet(np.ones(n))
        s = x - 1e-3
        mu = 10.0 ** rng.uniform(-12.0, 0.0)
        with np.errstate(invalid="ignore"):
            g, norm = _stage_residual(quadratic_objective(target), x, s, mu)
            resid = g - g.mean()
            want = float(np.sqrt(resid.dot(resid)))
        assert _bits(norm) == _bits(want)


@pytest.mark.parametrize("n", (2, 3, 5, 20))
def test_lapack_solve_is_bitwise_np_linalg_solve(n):
    m = n - 1  # the reduced Newton system's size
    rng = np.random.default_rng(500 + n)
    for trial in range(60):
        a = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 3.0), (m + 2, m))
        hz = a.T @ a + 10.0 ** rng.uniform(-12.0, 0.0) * np.eye(m)
        rhs = rng.normal(0.0, 10.0 ** rng.uniform(-6.0, 3.0), m)
        if trial % 6 == 1:  # singular: a zero row and column
            i = rng.integers(m)
            hz[i, :] = hz[:, i] = 0.0
        elif trial >= 40:  # a NaN or infinite entry in the matrix or the right-hand side
            if trial % 2:
                hz[rng.integers(m), rng.integers(m)] = _NON_FINITE[trial % 3]
            else:
                rhs[rng.integers(m)] = _NON_FINITE[trial % 3]
        assert _outcome(_lapack_solve, hz, rhs) == _outcome(np.linalg.solve, hz, rhs)
