"""Synthetic market generators and CSV interchange."""

import numpy as np
import pytest

from barrons.domain import ProblemDims
from barrons.markets import MARKET_KINDS, MarketSpec, generate, load_csv, write_csv


def test_kind_catalogue():
    assert set(MARKET_KINDS) == {"constant", "cover_alternating", "blowup", "iid_lognormal"}


def test_spec_validation():
    dims = ProblemDims(2, 16)
    with pytest.raises(ValueError, match="unknown market kind"):
        MarketSpec("random_walk", dims)
    with pytest.raises(ValueError, match="not understood"):
        MarketSpec("constant", dims, params={"sigma": 0.5})
    with pytest.raises(ValueError, match="not understood"):
        MarketSpec("iid_lognormal", dims, params={"epsilon": 0.1})


def test_constant_market_all_ones():
    rounds = generate(MarketSpec("constant", ProblemDims(3, 5)))
    assert len(rounds) == 5
    for rnd in rounds:
        np.testing.assert_array_equal(rnd.r, np.ones(3))


@pytest.mark.parametrize(
    "kind, params",
    [("constant", {}), ("cover_alternating", {}), ("blowup", {}), ("blowup", {"epsilon": 0.01, "flip_period": 3})],
)
def test_repeated_rounds_are_built_once_with_unchanged_values(kind, params):
    dims = ProblemDims(3, 40)
    rounds = generate(MarketSpec(kind, dims, params=params))
    period = params.get("flip_period", dims.t // 2)
    eps = params.get("epsilon", 1.0 / 32.0)
    for t, rnd in enumerate(rounds, start=1):
        if kind == "constant":
            want = [1.0, 1.0, 1.0]
        elif kind == "cover_alternating":
            want = [1.0, 0.5, 0.5] if t % 2 == 1 else [0.5, 1.0, 1.0]
        else:
            want = [eps, 1.0, 1.0] if ((t - 1) // period) % 2 else [1.0, eps, eps]
        assert rnd.r.tolist() == want
        assert not rnd.r.flags.writeable
    assert len({id(rnd) for rnd in rounds}) == (1 if kind == "constant" else 2)


def test_cover_alternating_exact_sequence():
    rounds = generate(MarketSpec("cover_alternating", ProblemDims(2, 4)))
    got = [tuple(r.r) for r in rounds]
    assert got == [(1.0, 0.5), (0.5, 1.0), (1.0, 0.5), (0.5, 1.0)]


def test_cover_alternating_wider_market():
    rounds = generate(MarketSpec("cover_alternating", ProblemDims(3, 4)))
    np.testing.assert_array_equal(rounds[0].r, [1.0, 0.5, 0.5])
    np.testing.assert_array_equal(rounds[1].r, [0.5, 1.0, 1.0])


def test_blowup_flips_once_at_half_horizon_by_default():
    dims = ProblemDims(2, 64)
    rounds = generate(MarketSpec("blowup", dims))
    eps = 1.0 / 32.0
    for t, rnd in enumerate(rounds):
        if t < 32:
            np.testing.assert_array_equal(rnd.r, [1.0, eps])
        else:
            np.testing.assert_array_equal(rnd.r, [eps, 1.0])


def test_blowup_respects_period_and_epsilon():
    dims = ProblemDims(2, 8)
    rounds = generate(MarketSpec("blowup", dims, params={"epsilon": 0.25, "flip_period": 2}))
    firsts = [r.r[0] for r in rounds]
    assert firsts == [1.0, 1.0, 0.25, 0.25, 1.0, 1.0, 0.25, 0.25]


def test_blowup_parameter_validation():
    dims = ProblemDims(2, 8)
    with pytest.raises(ValueError, match="epsilon"):
        generate(MarketSpec("blowup", dims, params={"epsilon": 1.5}))
    with pytest.raises(ValueError, match="flip_period"):
        generate(MarketSpec("blowup", dims, params={"flip_period": 0}))


def test_lognormal_rounds_are_normalized_and_positive():
    rounds = generate(MarketSpec("iid_lognormal", ProblemDims(3, 50), seed=1))
    for rnd in rounds:
        assert rnd.r.max() == 1.0
        assert rnd.r.min() > 0.0


def test_lognormal_seeding_is_bit_identical():
    dims = ProblemDims(3, 30)
    a = generate(MarketSpec("iid_lognormal", dims, seed=7))
    b = generate(MarketSpec("iid_lognormal", dims, seed=7))
    c = generate(MarketSpec("iid_lognormal", dims, seed=8))
    assert all(x.r.tobytes() == y.r.tobytes() for x, y in zip(a, b))
    assert any(x.r.tobytes() != y.r.tobytes() for x, y in zip(a, c))


def test_lognormal_sigma_validation():
    with pytest.raises(ValueError, match="sigma"):
        generate(MarketSpec("iid_lognormal", ProblemDims(2, 8), params={"sigma": 0.0}))


def test_csv_roundtrip_is_exact(tmp_path):
    dims = ProblemDims(3, 20)
    rounds = generate(MarketSpec("iid_lognormal", dims, seed=11))
    path = tmp_path / "market.csv"
    write_csv(rounds, path)
    loaded, loaded_dims = load_csv(path, 3)
    assert loaded_dims == dims
    for a, b in zip(rounds, loaded):
        assert a.r.tobytes() == b.r.tobytes()


def test_csv_rows_are_renormalized():
    raw = "2,1\n1,1\n4,2\n"
    path = _write(raw)
    rounds, dims = load_csv(path, 2)
    assert dims == ProblemDims(2, 3)
    np.testing.assert_array_equal(rounds[0].r, [1.0, 0.5])
    np.testing.assert_array_equal(rounds[2].r, [1.0, 0.5])


def _write(text):
    import tempfile

    fh = tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False)
    fh.write(text)
    fh.close()
    return fh.name


def test_csv_header_and_blank_lines_are_skipped():
    rounds, dims = load_csv(_write("asset_a,asset_b\n\n1,0.5\n0.5,1\n0.9,1\n"), 2)
    assert dims.t == 3
    np.testing.assert_array_equal(rounds[0].r, [1.0, 0.5])


def test_csv_parse_errors_carry_position():
    with pytest.raises(ValueError, match="row 2: unparseable"):
        load_csv(_write("1,0.5\n1,abc\n0.5,1\n"), 2)
    with pytest.raises(ValueError, match="row 2, column 2"):
        load_csv(_write("1,0.5\n1,-3\n0.5,1\n"), 2)
    with pytest.raises(ValueError, match="row 2, column 1"):
        load_csv(_write("1,0.5\nnan,1\n0.5,1\n"), 2)
    with pytest.raises(ValueError, match="row 2: every price relative is zero"):
        load_csv(_write("1,0.5\n0,0\n0.5,1\n"), 2)
    with pytest.raises(ValueError, match="expected 2 fields, got 3"):
        load_csv(_write("1,0.5\n1,0.5,0.25\n"), 2)


def test_csv_requires_more_rounds_than_assets():
    with pytest.raises(ValueError, match="need more rounds than assets"):
        load_csv(_write("1,0.5\n0.5,1\n"), 2)
