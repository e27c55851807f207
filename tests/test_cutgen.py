"""Cut sampling tests: control-point law, order weights, offset range,
separation guarantee, serialization."""

import json
import math

import numpy as np
import pytest
from scipy import stats

from smsp.cutgen import (
    CutFailureError,
    CutGenConfig,
    curve_height_extrema,
    cut_from_dict,
    cut_to_dict,
    sample_control_points,
    sample_cut,
    sample_cut_masked,
    sample_offset,
    sample_order,
)
from smsp.geometry import InvalidCurveError, bezier_eval, side_of_cut


BOX = CutGenConfig(a=-1.0, b=1.0, c=-0.5, d=0.5)


# ------------------------------------------------------------ config rules


def test_config_box_all_or_none():
    with pytest.raises(ValueError):
        CutGenConfig(a=-1.0, b=1.0, c=-1.0)  # d missing
    cfg = CutGenConfig()
    assert not cfg.explicit_box
    assert BOX.explicit_box


def test_config_resolved_default_box():
    cfg = CutGenConfig().resolved(2.5)
    assert (cfg.a, cfg.b, cfg.c, cfg.d) == (-2.5, 2.5, -2.5, 2.5)
    # explicit box survives resolution untouched
    assert BOX.resolved(9.0) is BOX


def test_config_order_weights_validated():
    with pytest.raises(ValueError):
        CutGenConfig(order_weights=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        CutGenConfig(order_weights=(-0.2, 0.6, 0.6))
    with pytest.raises(ValueError):
        CutGenConfig(max_rejections=0)


# ----------------------------------------------------------- order weights


def test_sample_order_degenerate_weights():
    rng = np.random.default_rng(0)
    cfg = CutGenConfig(order_weights=(0.0, 0.0, 1.0))
    assert all(sample_order(cfg, rng) == 3 for _ in range(200))
    cfg1 = CutGenConfig(order_weights=(1.0, 0.0, 0.0))
    assert all(sample_order(cfg1, rng) == 1 for _ in range(200))


def test_sample_order_frequencies():
    rng = np.random.default_rng(1)
    cfg = CutGenConfig(order_weights=(0.2, 0.3, 0.5))
    n = 100_000
    draws = np.array([sample_order(cfg, rng) for _ in range(n)])
    freqs = np.bincount(draws, minlength=4)[1:] / n
    assert np.max(np.abs(freqs - [0.2, 0.3, 0.5])) < 0.01


# ----------------------------------------------------------- control points


def test_control_points_shape_and_endpoints():
    rng = np.random.default_rng(2)
    for order in (1, 2, 3):
        curve = sample_control_points(order, BOX, rng)
        assert curve.order == order
        assert curve.controls[0, 0] == BOX.a
        assert curve.controls[-1, 0] == BOX.b
        assert np.all(curve.controls[:, 1] >= BOX.c)
        assert np.all(curve.controls[:, 1] <= BOX.d)
        assert np.all(np.diff(curve.controls[:, 0]) >= 0.0)


def test_control_points_require_explicit_box():
    with pytest.raises(ValueError):
        sample_control_points(2, CutGenConfig(), np.random.default_rng(0))


def test_control_point_law_uniform():
    # interior abscissas are sorted uniforms, so the pooled unsorted sample
    # is plain uniform on (a, b); same for every ordinate on (c, d)
    rng = np.random.default_rng(3)
    n = 100_000
    xs = np.empty(2 * n)
    ys = np.empty(4 * n)
    for i in range(n):
        curve = sample_control_points(3, BOX, rng)
        xs[2 * i : 2 * i + 2] = curve.controls[1:3, 0]
        ys[4 * i : 4 * i + 4] = curve.controls[:, 1]
    for sample, lo, hi in ((xs, BOX.a, BOX.b), (ys, BOX.c, BOX.d)):
        u = (sample - lo) / (hi - lo)
        counts, _ = np.histogram(u, bins=20, range=(0.0, 1.0))
        p = stats.chisquare(counts).pvalue
        assert p > 0.01


def test_control_points_quadratic_middle_between_ends():
    rng = np.random.default_rng(4)
    for _ in range(500):
        curve = sample_control_points(2, BOX, rng)
        assert BOX.a <= curve.controls[1, 0] <= BOX.b


# ------------------------------------------------------------------ offset


def test_offset_within_bounds_and_overlap():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        curve = sample_control_points(int(rng.integers(1, 4)), BOX, rng)
        g_min, g_max = curve_height_extrema(curve)
        lo = rng.uniform(-2.0, 0.0)
        hi = lo + rng.uniform(0.1, 3.0)
        t = sample_offset(curve, (lo, hi), rng)
        assert lo - g_max <= t <= hi - g_min
        # offset curve height range intersects the subset's range
        assert g_max + t >= lo - 1e-12
        assert g_min + t <= hi + 1e-12


def test_offset_uniform_law():
    rng = np.random.default_rng(6)
    curve = sample_control_points(3, BOX, rng)
    g_min, g_max = curve_height_extrema(curve)
    lo, hi = -1.0, 2.0
    l1, l2 = lo - g_max, hi - g_min
    draws = np.array([sample_offset(curve, (lo, hi), rng) for _ in range(20_000)])
    u = (draws - l1) / (l2 - l1)
    counts, _ = np.histogram(u, bins=20, range=(0.0, 1.0))
    assert stats.chisquare(counts).pvalue > 0.01


def test_height_extrema_match_grid_oracle():
    # extrema are defined on a 256-sample parameter grid
    rng = np.random.default_rng(7)
    s = np.linspace(0.0, 1.0, 256)
    for _ in range(50):
        curve = sample_control_points(3, BOX, rng)
        ys = np.array([bezier_eval(curve, si)[1] for si in s])
        g_min, g_max = curve_height_extrema(curve)
        assert abs(g_min - ys.min()) < 1e-12
        assert abs(g_max - ys.max()) < 1e-12
        # never outside the control-point hull
        assert g_min >= curve.controls[:, 1].min() - 1e-12
        assert g_max <= curve.controls[:, 1].max() + 1e-12


# -------------------------------------------------------------- sample_cut


def test_sample_cut_separates_cloud():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(60, 2))
    for _ in range(200):
        cut, mask = sample_cut_masked(pts, CutGenConfig(), rng)
        assert mask.any() and not mask.all()
        # the serialized cut reproduces the mask on its own
        assert np.array_equal(side_of_cut(pts, cut), mask)


def test_sample_cut_deterministic():
    pts = np.random.default_rng(9).uniform(size=(30, 2))
    c1 = sample_cut(pts, CutGenConfig(), np.random.default_rng(77))
    c2 = sample_cut(pts, CutGenConfig(), np.random.default_rng(77))
    assert cut_to_dict(c1) == cut_to_dict(c2)


def test_sample_cut_two_points():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    rng = np.random.default_rng(10)
    cut, mask = sample_cut_masked(pts, CutGenConfig(), rng)
    assert mask.sum() == 1


def test_sample_cut_failures():
    rng = np.random.default_rng(11)
    with pytest.raises(CutFailureError):
        sample_cut(np.array([[0.5, 0.5]]), CutGenConfig(), rng)
    with pytest.raises(CutFailureError):
        sample_cut(np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]), CutGenConfig(), rng)


def test_sample_cut_respects_provided_circle():
    rng = np.random.default_rng(12)
    pts = rng.uniform(size=(40, 2))
    cut, mask = sample_cut_masked(pts, CutGenConfig(), rng, center=np.array([0.5, 0.5]), radius=1.0)
    assert mask.any() and not mask.all()


def test_sample_cut_order_forced():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(25, 2))
    cfg = CutGenConfig(order_weights=(0.0, 1.0, 0.0))
    for _ in range(20):
        cut = sample_cut(pts, cfg, rng)
        assert cut.curve.order == 2


# ------------------------------------------------------------ serialization


def test_cut_dict_round_trip():
    rng = np.random.default_rng(14)
    pts = rng.normal(size=(30, 2))
    cut = sample_cut(pts, CutGenConfig(), rng)
    d = json.loads(json.dumps(cut_to_dict(cut)))
    back = cut_from_dict(d)
    assert back.theta == cut.theta
    assert back.offset == cut.offset
    assert np.array_equal(back.curve.controls, cut.curve.controls)
    assert np.array_equal(side_of_cut(pts, back), side_of_cut(pts, cut))


def test_cut_from_dict_validates_order():
    rng = np.random.default_rng(15)
    cut = sample_cut(rng.normal(size=(20, 2)), CutGenConfig(order_weights=(0.0, 0.0, 1.0)), rng)
    d = cut_to_dict(cut)
    d["order"] = 1
    with pytest.raises(ValueError):
        cut_from_dict(d)


@pytest.mark.parametrize(
    "xs",
    [[-1.0, 0.5, 0.2, 1.0], [0.3, 0.3, 0.3, 0.3]],
    ids=["decreasing", "zero-span"],
)
def test_cut_from_dict_rejects_bad_control_xs(xs):
    d = {"theta": 0.0, "order": 3, "controls": [[x, 0.0] for x in xs], "offset": 0.0}
    with pytest.raises(InvalidCurveError):
        cut_from_dict(d)


def test_theta_range_covers_circle():
    rng = np.random.default_rng(16)
    pts = rng.normal(size=(40, 2))
    thetas = np.array([sample_cut(pts, CutGenConfig(), rng).theta for _ in range(400)])
    assert thetas.min() >= 0.0
    assert thetas.max() <= 2.0 * math.pi
    assert thetas.max() > 5.0  # actually spreads over the circle
    assert thetas.min() < 1.0
