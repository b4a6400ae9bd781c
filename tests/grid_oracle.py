"""Grid-search oracle over the clipped simplex, independent of the Newton path.

Tests check the solver against it at two and three assets.  It sweeps a
vectorized value function that the test writes from its own data, so the
check trusts neither the solver nor the objective closures it solves.
"""

import numpy as np

from barrons.domain import ProblemDims, clipped_point


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    count = int(np.floor((hi - lo) / step + 1e-12))
    return lo + step * np.arange(count + 1)


def _argmin(value_many, pts: np.ndarray) -> np.ndarray:
    return pts[int(np.argmin(np.asarray(value_many(pts), dtype=float)))]


def _sweep_n2(value_many, floor, step):
    a = _axis(floor, 1.0 - floor, step)
    return _argmin(value_many, np.column_stack([a, 1.0 - a]))


def _sweep_n3(value_many, floor, step, box=None):
    lo1, hi1 = floor, 1.0 - 2.0 * floor
    lo2, hi2 = floor, 1.0 - 2.0 * floor
    if box is not None:
        (c1, c2), w = box
        lo1, hi1 = max(lo1, c1 - w), min(hi1, c1 + w)
        lo2, hi2 = max(lo2, c2 - w), min(hi2, c2 + w)
    a1 = _axis(lo1, hi1, step)
    a2 = _axis(lo2, hi2, step)
    g1, g2 = np.meshgrid(a1, a2, indexing="ij")
    g3 = 1.0 - g1 - g2
    keep = g3 >= floor - 1e-15
    pts = np.column_stack([g1[keep], g2[keep], g3[keep]])
    if pts.size == 0:
        raise ValueError("grid resolution too coarse for this simplex")
    return _argmin(value_many, pts)


def grid_search_oracle(value_many, dims: ProblemDims, resolution: float) -> np.ndarray:
    """Grid minimizer of ``value_many`` over the clipped simplex of `dims`.

    ``value_many`` maps an (m, n) array of points to their m values.  Two
    assets: one exhaustive sweep of the whole segment at the requested
    resolution.  Three assets: an exhaustive coarse sweep followed by boxed
    re-sweeps shrinking to the requested resolution; strict convexity keeps
    the true optimum inside a tightening neighborhood of the incumbent, and
    the generous box (25 parent cells) absorbs valley anisotropy.  Lattices
    are anchored at the floor so face-active optima are represented exactly.
    """
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    if dims.n == 2:
        best = _sweep_n2(value_many, dims.floor, resolution)
    elif dims.n == 3:
        step = max(resolution, 2e-3)
        best = _sweep_n3(value_many, dims.floor, step)
        while step > resolution:
            nxt = max(step / 5.0, resolution)
            best = _sweep_n3(value_many, dims.floor, nxt, box=((best[0], best[1]), 25.0 * step))
            step = nxt
    else:
        raise ValueError("grid oracle supports 2 or 3 assets only")
    return clipped_point(best, dims)


def step_values(grad, cov, x_prev, beta, eta=None):
    """Values at (m, n) points of the mirror-descent step: linearized loss plus the divergence from ``x_prev``.

    The divergence is ``beta/2 (x - x_prev)' cov (x - x_prev)`` plus, with
    rates ``eta``, ``sum_i (1/eta_i) (z_i - log(1 + z_i))`` for the relative
    displacement ``z = (x - x_prev)/x_prev``.
    """

    def value_many(pts):
        d = pts - x_prev
        v = d @ grad + 0.5 * beta * np.einsum("ij,jk,ik->i", d, cov, d)
        if eta is not None:
            z = d / x_prev
            v = v + (z - np.log1p(z)) @ (1.0 / eta)
        return v

    return value_many


def leader_values(r_mat, gamma):
    """Values at (m, n) points of the epoch log-loss over the rows of ``r_mat`` plus a log-barrier of weight 1/gamma."""

    def value_many(pts):
        return -np.log(pts @ r_mat.T).sum(axis=1) - np.log(pts).sum(axis=1) / gamma

    return value_many
