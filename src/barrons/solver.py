"""Newton solver for strictly convex minimization over the clipped simplex.

Feasible set: ``sum(x) == 1`` and ``x_i >= 1/(n*t)``.  The equality
constraint is kept exact by stepping inside the zero-sum subspace.  A solve
has two phases:

- The affine phase runs first: feasible-start Newton on the hyperplane
  ``sum(x) == 1`` with no barrier term (Boyd and Vandenberghe, *Convex
  Optimization*, section 10.2).  When the minimizer is interior, as it is
  for the learners' steps and leaders, this converges in a few
  iterations (see the warm-start contract below) and its answer must pass
  the KKT check of ``_kkt_violation``.
  The phase gives up as soon as a full Newton step would cut some
  coordinate's distance to the floor to 1 % of its value or less, and on
  any exit short of that check.
- The barrier path then restarts from the warm start.  It handles the
  coordinate floor with a path-following log-barrier so minimizers are
  allowed to sit on the floor (the barrier weight is driven down to
  1e-12, which parks face-active coordinates within ~1e-12 of it).  Only
  this path raises ``SolverFailure``.

Two module constants set every solve: ``KKT_TOL``, the first-order
tolerance both phases drive to, and ``MAX_NEWTON_ITERS``, the Newton
iterations the affine phase and each barrier stage may take.

Callers supply the objective as value/gradient/Hessian closures.  The
Hessian must be positive definite on the interior; every target objective in
this package (mirror-descent steps, regularized leaders, best-CRP fits) is
strictly convex there.  Points are plain float arrays of n weights: a solve
reads its warm start without writing it, and returns a new read-only array
that ``domain.clipped_point`` has checked.

Warm-start contract.  The warm start must be strictly feasible, and it
sets only the cost of a solve: from any such start the answer is a point
that passes the same KKT certificate, so two starts give answers that
agree to within what the certificate resolves (3e-13 relative or less
for the learners' solves over the grid of ``scripts/trace_digests.py``),
not bit for bit.  The solver knows nothing of where a start comes from.
The learners pass a prediction of the answer, made with
``newton_displacement`` from derivatives they already hold: the
mirror-descent step from its closed-form gradient and Hessian at the
play (``core._predicted_step``), the leader refit from the previous
refit's Hessian and the appended round (``EpochHistory.leader_start``).
A prediction that is not strictly inside the clipped simplex falls back
to the previous answer nudged inward (``domain.predicted_start``), which
is also where ONS steps and best-CRP fits start.  On the blowup market at
n=2 and T=512 a step then certifies its start with no Newton iteration
(1.88 from the nudged play) and a leader refit takes 1.82 (2.82 from the
nudged leader); on iid markets at n=5 to 50 the step takes none and the
leader about 1.9 (2.9).

Cost model.  A solve's time is a fixed cost at entry and exit plus its
Newton iterations times a fixed cost per iteration; at small n both are
counts of numpy calls, not arithmetic.  Fitted over ada runs on the
blowup market at n=2 and T=512 (a 2-CPU x86-64 host, Python 3.11,
numpy 2.4, the best of 15 repetitions of each solve), a step solve that
certifies its predicted start costs about 22 us, and a leader solve
about 30 us fixed plus about 28 us per Newton iteration; a step's
prediction costs about 20 us more, and a leader's about 13 us.  So work
that makes no bit of the answer stays off both: the stage record of
``SolveDiagnostics`` (iterations, residual, accepted values) is written
only when a caller passes one, ``np.errstate`` decorates ``_lapack_solve``
instead of opening a ``with`` block per call, and a full line-search step
adds ``ds`` instead of ``1.0 * ds``.  Each iteration makes one derivative
pass at the current point: one gradient and one Hessian.  The regularized
leader builds both from the per-round wealths it computed for the value at
that point, when the line search accepted it; the line search also hands
back that point, so it is not rebuilt from its slacks.  The reduced system
``B' H B`` and ``B' g``, with ``B`` the zero-sum basis, is built by
slicing, because each entry is a difference of two entries of H or g; the
slices give the same floats as the matrix products.  The step ``B y`` sums
n - 1 terms in its last coordinate, so it stays a product, and ``y`` comes
from ``np.linalg.solve``'s own LAPACK gufunc, called without the wrapper.
At barrier weight 0 (the affine phase) the barrier terms are skipped, not
computed as zeros.

Bookkeeping that takes a handful of scalars works on Python floats: the KKT
violation off the floor, the float pin, the affine keep test, the boundary
step and the entry checks.  Comparisons, ``min``/``max``, ``abs``, + - * /
and ``math.ulp`` (``np.spacing`` of a positive float) round as numpy does;
where a NaN or infinity could make them differ, the numpy formula decides.
Sums of three or more terms, products, ``log`` and ``exp`` stay in numpy.
None of this moves an iterate by a bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .domain import ProblemDims, SUM_TOL, clipped_point

__all__ = [
    "KKT_TOL",
    "MAX_NEWTON_ITERS",
    "Objective",
    "SolverFailure",
    "SolveDiagnostics",
    "minimize_over_clipped_simplex",
    "newton_displacement",
]

# Read at call time; the module docstring says what each one sets.
KKT_TOL = 1e-10
MAX_NEWTON_ITERS = 100

_ARMIJO = 1e-4
_BACKTRACK = 0.5
_BOUNDARY_FRACTION = 0.99
# The affine phase gives up when a full step would keep 1 % of a slack or less.
_AFFINE_KEEP = 0.01
# Distance to the floor under which _kkt_violation counts a coordinate as on it.
_ON_FLOOR = 1e-9
# Barrier weights: the largest first weight, the factor between stages, the last weight.
_MU_INIT = 1.0
_MU_SHRINK = 0.1
_MU_MIN = 1e-12
# The LAPACK gufunc behind np.linalg.solve with one right-hand side (see _lapack_solve).
_solve1 = np.linalg._umath_linalg.solve1


@dataclass
class Objective:
    """Smooth strictly convex function given by its value, gradient and Hessian at one point."""

    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]


class SolverFailure(RuntimeError):
    """Raised when a barrier stage cannot be driven to tolerance.

    Carries the last iterate and its first-order residual so the caller can
    decide whether the partial answer is acceptable.
    """

    def __init__(self, message: str, last_iterate: np.ndarray, residual: float, mu: float):
        super().__init__(f"{message} (mu={mu:g}, residual={residual:.3e})")
        self.last_iterate = np.array(last_iterate, dtype=float)
        self.residual = float(residual)
        self.mu = float(mu)


@dataclass
class SolveDiagnostics:
    """Optional per-solve instrumentation (iteration counts, stage descent).

    The affine phase records itself as the first stage, with ``mu == 0.0``;
    ``fell_back`` tells whether the barrier stages after it ran.
    """

    newton_iters: int = 0
    stages: list = field(default_factory=list)  # dicts: mu, iters, residual, phi
    fell_back: bool = False


@lru_cache(maxsize=None)
def _null_basis(n: int) -> np.ndarray:
    # Columns span the zero-sum subspace, so steps preserve sum(x) exactly.
    z = np.zeros((n, n - 1))
    z[: n - 1, :] = np.eye(n - 1)
    z[n - 1, :] = -1.0
    z.setflags(write=False)  # shared by every solve at this n
    return z


def _mean(v) -> float:
    """``v.mean()`` as the same float (the same sum over the count), without its overhead."""
    return np.add.reduce(v) / v.size


def _stage_residual(obj, x, s, mu):
    """Barrier gradient at ``x = floor + s`` and the norm of its zero-sum part."""
    g = obj.gradient(x) - mu / s
    resid = g - _mean(g)
    return g, math.sqrt(resid.dot(resid))  # np.linalg.norm's own formula


def _float_pin(h_obj, x, s, barrier_curv=None) -> float:
    """Smallest residual doubles can express at ``x = floor + s``.

    Moving any coordinate by one ulp jolts the gradient by curvature * ulp.
    Objectives with 1/eta ~ 1e5 barrier curvature pin this above KKT_TOL,
    and no representable iterate does better.  ``barrier_curv`` is the
    barrier's curvature ``mu / s**2``, None when ``mu == 0``.

    The terms are taken as Python floats: for x and s in (0, 1], where the
    solver keeps them, ``math.ulp`` is ``np.spacing``.  When some term is not
    finite (``np.spacing(inf)`` is NaN where ``math.ulp(inf)`` is inf, and
    ``max`` skips a NaN that numpy's max returns), numpy's formula decides.
    """
    pin = [abs(c) * math.ulp(v) for c, v in zip(h_obj.diagonal().tolist(), x.tolist())]
    if barrier_curv is not None:
        pin = [p + c * math.ulp(v) for p, c, v in zip(pin, barrier_curv.tolist(), s.tolist())]
    if math.isfinite(sum(pin)):  # so every term is finite
        return max(pin)
    pin = np.abs(h_obj.diagonal()) * np.spacing(x)
    if barrier_curv is not None:
        pin = pin + barrier_curv * np.spacing(s)
    return float(pin.max())


def _reduced_system(h, g):
    """``basis.T @ h @ basis`` and ``-(basis.T @ g)`` for the zero-sum basis, by slicing.

    With basis = [I; -1] every entry of the products has exactly two nonzero
    terms, so the slices give the same floats.  ``g[-1] - g[:-1]`` gives
    those of ``-(g[:-1] - g[-1])``, as IEEE subtraction is antisymmetric,
    but for the sign of an exact zero; it is taken with ``g[-1:]``, a
    one-element array that broadcasts to the same floats as the scalar.
    """
    a = h[:-1] - h[-1]
    return a[:, :-1] - a[:, -1:], np.subtract(g[-1:], g[:-1])


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _lapack_solve(a, b):
    """``np.linalg.solve(a, b)`` for a float64 matrix and vector, without its wrapper.

    Calls the LAPACK gufunc that ``np.linalg.solve`` calls, with the same
    signature and under the same floating-point error state, so it returns
    the same floats and raises ``LinAlgError`` on a singular matrix.  The
    wrapper's per-call type and shape inspection costs more than a small
    solve.  The error state is set by ``np.errstate`` as a decorator,
    which costs less per call than its ``with`` block.
    """
    return _solve1(a, b, signature="dd->d")


def newton_displacement(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The zero-sum Newton displacement for the gradient `g` and the Hessian `h`.

    The ``d`` with ``sum(d) == 0`` that minimizes ``<g, d> + d' h d / 2``:
    ``B y`` with ``B`` the zero-sum basis and ``y`` the solution of the
    reduced system ``B' h B y = -B' g``.  When that system is singular or
    its solution is not finite, a ridge of 1e-10 times the reduced
    Hessian's mean diagonal (at least 1e-10) is added.  The solver steps
    along it, and the learners' warm-start predictors call it on Hessians
    and gradients of their own.
    """
    hz, rhs = _reduced_system(h, g)
    try:
        y = _lapack_solve(hz, rhs)
    except np.linalg.LinAlgError:
        y = None
    if y is None or not all(map(math.isfinite, y.tolist())):
        ridge = 1e-10 * max(1.0, float(np.trace(hz)) / hz.shape[0])
        y = _lapack_solve(hz + ridge * np.eye(hz.shape[0]), rhs)
    # np.dot gives the bits of @ with less call overhead.  The last coordinate sums n - 1 terms: keep the product's order.
    return np.dot(_null_basis(g.size), y)


def _newton_direction(h, g):
    """Newton step inside the zero-sum subspace and its directional slope."""
    ds = newton_displacement(h, g)
    return ds, float(np.dot(g, ds))


def _cuts_a_slack(s, ds) -> bool:
    """Whether a full step cuts some slack to 1 % or less: ``(s + ds <= _AFFINE_KEEP * s).any()``.

    Taken element by element on Python floats, which compare as numpy's do
    (NaN included).
    """
    return any(a + d <= _AFFINE_KEEP * a for a, d in zip(s.tolist(), ds.tolist()))


def _boundary_step(s, ds) -> float:
    """The longest step up to 1 that keeps 1 % of every shrinking slack.

    ``min(1.0, _BOUNDARY_FRACTION * (s[ds < 0] / -ds[ds < 0]).min())``,
    element by element on Python floats.  numpy's min returns a NaN ratio
    that min() may skip, and 1.0 then wins the outer min, so a NaN ratio
    gives 1.0 here too.
    """
    ratios = [a / -d for a, d in zip(s.tolist(), ds.tolist()) if d < 0.0]
    if not ratios or any(map(math.isnan, ratios)):
        return 1.0
    return min(1.0, _BOUNDARY_FRACTION * min(ratios))


def _penalized(obj, x, s, mu) -> float:
    """Objective plus barrier at ``x = floor + s``."""
    value = float(obj.evaluate(x))
    return value - mu * float(np.add.reduce(np.log(s))) if mu else value  # np.log(s).sum()


def _armijo(obj, s, floor, mu, ds, slope, step, phi0):
    """Backtracking line search from `step`.

    Returns the accepted ``(slacks, point, value)``, the point being
    ``floor + slacks``, or None when no step makes measurable progress at
    this floating-point scale.  Trial points are
    compared as lists of floats, element by element with ``==`` as
    ``np.array_equal`` compares them, at less cost for a few coordinates.
    """
    # Comparisons below float noise carry no information; near the
    # optimum the predicted decrease sinks under roundoff of phi itself.
    noise = 1e-12 * (1.0 + abs(phi0))
    start = s.tolist()
    while step > 1e-16:
        sn = s + ds if step == 1.0 else s + step * ds  # 1.0 * ds is ds, bit for bit
        trial = sn.tolist()
        if trial == start:
            # The step rounds away entirely; shorter ones will too.
            return None
        if all(v > 0.0 for v in trial):  # NaN fails, as it fails sn.min() > 0
            xn = floor + sn
            phin = _penalized(obj, xn, sn, mu)
            if phin <= phi0 + _ARMIJO * step * slope + noise:
                return sn, xn, phin
        step *= _BACKTRACK
    return None


def _kkt_violation(g, x, floor) -> float:
    """Largest breach of the first-order conditions at `x`, where the gradient is `g`.

    With lam the mean of g over the coordinates above the floor, each
    coordinate above it breaches by ``|g_i - lam|`` and each coordinate on
    it (within ``_ON_FLOOR``) by ``lam - g_i`` when that is positive.  For
    a convex objective, a violation of zero certifies a minimizer over the
    clipped simplex at any n.

    Off the floor it takes Python floats, exactly: ``min(x) - floor`` is
    the least ``x_i - floor``, and a finite mean means every g_i is finite,
    so ``max`` meets no NaN that numpy's max would return.
    """
    if all(v - floor > _ON_FLOOR for v in x.tolist()):  # NaN fails, as it fails x.min() - floor > _ON_FLOOR
        # Nothing on the floor: the masked formula below with all-true masks.
        lam = float(_mean(g))
        if math.isfinite(lam):
            return max([abs(v - lam) for v in g.tolist()])
        return float(np.abs(g - lam).max())
    on_floor = x - floor <= _ON_FLOOR
    dev = g - _mean(g[~on_floor])
    return max(float(np.abs(dev[~on_floor]).max()), float(np.max(-dev[on_floor], initial=0.0)))


def _affine_phase(obj, s, floor, diag):
    """Feasible-start Newton on the hyperplane sum(x) == 1, with no barrier.

    Returns ``(point, g_start)``.  The point ``floor + slacks`` passes the
    KKT certificate, or is None when the phase gives up: a full Newton step
    would cut some slack to 1 % of its value or less, the step is not a
    descent direction, the line search stalls short of tolerance, or the
    iteration budget runs out.  ``g_start`` is the objective's gradient at
    the starting slacks, which the barrier path reuses.
    """
    if diag is not None:
        stage = {"mu": 0.0, "iters": 0, "residual": np.inf, "phi": []}
        diag.stages.append(stage)
    x = floor + s  # the point of the slacks s, carried out of each line search
    phi = float(obj.evaluate(x))
    g_start = None
    for _ in range(MAX_NEWTON_ITERS):
        g = obj.gradient(x)
        if g_start is None:
            g_start = g
        resid = _kkt_violation(g, x, floor)
        if diag is not None:
            stage["residual"] = resid
        if resid <= KKT_TOL:
            return x, g_start
        h = obj.hessian(x)
        pin = _float_pin(h, x, s)
        if resid <= 4.0 * pin:
            return x, g_start

        ds, slope = _newton_direction(h, g)
        if slope >= 0.0 or _cuts_a_slack(s, ds):
            return None, g_start
        accepted = _armijo(obj, s, floor, 0.0, ds, slope, 1.0, phi)
        if accepted is None:
            done = resid <= max(10.0 * KKT_TOL, 4.0 * pin)
            return (x if done else None), g_start
        s, x, phi = accepted
        if diag is not None:
            diag.newton_iters += 1
            stage["iters"] += 1
            stage["phi"].append(phi)
    return None, g_start


def _center(obj, s, floor, mu, tol, diag):
    """Newton iterations for one barrier stage.  Returns the centered slacks.

    Iterates on the slack vector ``s = x - floor`` rather than on x: when a
    minimizer sits on the floor, its distance to the wall shrinks to ~mu and
    would only be resolved to one ulp of x itself, while s carries it at
    full precision.  The objective still sees ``floor + s``; only the
    barrier term needs the fine detail.
    """
    phis = []  # the accepted penalized values, recorded under diagnostics only
    resid_norm = np.inf
    pin = 0.0
    phi0 = None  # penalized value at s, carried over from the line search that accepted s
    x = floor + s  # likewise the point of s
    for _ in range(MAX_NEWTON_ITERS):
        g, resid_norm = _stage_residual(obj, x, s, mu)
        if resid_norm <= tol:
            break

        h_obj = obj.hessian(x)
        barrier_curv = mu / s**2
        pin = _float_pin(h_obj, x, s, barrier_curv)
        if resid_norm <= max(tol, 4.0 * pin):
            break

        h = h_obj.copy()  # the objective may hand out a Hessian it keeps
        h.ravel()[:: s.size + 1] += barrier_curv
        ds, slope = _newton_direction(h, g)
        if slope >= 0.0:
            # Numerically indefinite reduced Hessian; fall back to steepest
            # descent inside the subspace.
            ds = -(g - _mean(g))
            slope = float(g @ ds)
            if slope >= 0.0:
                break

        step = _boundary_step(s, ds)
        if phi0 is None:
            phi0 = _penalized(obj, x, s, mu)
        accepted = _armijo(obj, s, floor, mu, ds, slope, step, phi0)
        if accepted is None:
            # No measurable progress left at this floating-point scale.
            if resid_norm <= max(10.0 * KKT_TOL, tol, 4.0 * pin):
                break
            raise SolverFailure("line search stalled", x, resid_norm, mu)

        s, x, phi0 = accepted
        if diag is not None:
            diag.newton_iters += 1
            phis.append(phi0)
    else:
        _, resid_norm = _stage_residual(obj, x, s, mu)
        if resid_norm > max(tol, 4.0 * pin):
            raise SolverFailure("newton iteration budget exhausted", x, resid_norm, mu)

    if diag is not None:
        diag.stages.append({"mu": mu, "iters": len(phis), "residual": resid_norm, "phi": phis})
    return s


def _first_barrier_weight(g, s, dims) -> float:
    """Complementarity estimate at the warm start, from the gradient ``g`` there.

    Scales the first barrier weight to how far the warm start is from
    satisfying first-order conditions: a stale start walks the full barrier
    path, while re-solving from a returned optimum jumps straight to the
    final stage (and therefore terminates in a couple of Newton steps).
    """
    lam = g - g.min()
    lam[lam < 10.0 * KKT_TOL] = 0.0
    comp = float(lam @ s)
    return min(_MU_INIT, max(comp / dims.n, _MU_MIN))


def _barrier_path(obj, s, g, dims, diag):
    """Log-barrier path from the slacks `s`, where the gradient is `g`, down to the last barrier weight."""
    floor = dims.floor
    mu = _first_barrier_weight(g, s, dims)
    while True:
        final = mu <= _MU_MIN
        tol = KKT_TOL if final else max(KKT_TOL, 1e-3 * mu)
        s = _center(obj, s, floor, mu, tol, diag)
        if final:
            return s
        mu = max(mu * _MU_SHRINK, _MU_MIN)


def minimize_over_clipped_simplex(
    obj: Objective,
    warm_start: np.ndarray,
    dims: ProblemDims,
    *,
    diagnostics: SolveDiagnostics | None = None,
) -> np.ndarray:
    """Minimize a strictly convex objective over the clipped simplex.

    The warm start is an array of ``dims.n`` weights and is validated here:
    it must be strictly feasible, summing to one within ``SUM_TOL`` with
    every coordinate strictly above the floor, so NaN and infinite weights
    raise ``ValueError``.  It is read, never written, so callers pass their
    arrays without a copy.  The affine phase runs first; when it gives up,
    the barrier path restarts from the warm start and raises SolverFailure
    when a barrier stage cannot be driven to tolerance.  The answer is
    renormalized to sum to one and returned as a new read-only array that
    ``clipped_point`` has checked.
    """
    floor = dims.floor
    x = np.asarray(warm_start, dtype=float)
    if x.shape != (dims.n,):
        raise ValueError(f"warm start must have {dims.n} coordinates")
    total = np.add.reduce(x)  # x.sum(), without the method's overhead
    # Both tests fail on NaN.  A NaN or infinite weight makes the sum NaN or
    # infinite, so min() below only meets finite weights.
    if not abs(total - 1.0) <= SUM_TOL:
        raise ValueError(f"warm start sums to {total!r}, not 1")
    if not min(x.tolist()) > floor:
        raise ValueError("warm start must be strictly above the clipped-simplex floor")

    start = x - floor
    x, g_start = _affine_phase(obj, start, floor, diagnostics)
    if x is None:
        if diagnostics is not None:
            diagnostics.fell_back = True
        x = floor + _barrier_path(obj, start, g_start, dims, diagnostics)
    return clipped_point(x / np.add.reduce(x), dims)
