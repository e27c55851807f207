"""Geometry unit tests: rotation, Bezier evaluation/inversion, cut sides,
enclosing circles.

Oracles are independent of the implementation: Bernstein-basis evaluation
for de Casteljau, brute-force pair/triple search for the smallest circle,
and numpy.roots on the power-basis x(s) = x' for curve heights and cut sides.
"""

import math
import pickle

import numpy as np
import pytest

from smsp.geometry import (
    TIE_EPS,
    BezierCurve,
    BezierCut,
    Circle,
    InvalidCurveError,
    bezier_eval,
    bezier_y_at_x,
    rotate,
    side_of_cut,
    smallest_enclosing_circle,
)


# ---------------------------------------------------------------- rotation


def test_rotate_quarter_turn():
    p = np.array([1.0, 0.0])
    out = rotate(p, math.pi / 2.0)
    assert abs(out[0]) < 1e-15
    assert abs(out[1] - 1.0) < 1e-15


def test_rotate_matches_matrix_formula():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(50, 2))
    theta = 0.73
    c, s = math.cos(theta), math.sin(theta)
    expect = np.column_stack([c * pts[:, 0] - s * pts[:, 1], s * pts[:, 0] + c * pts[:, 1]])
    assert np.allclose(rotate(pts, theta), expect, atol=1e-14)


def test_rotate_round_trip():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(1000, 2)) * 5.0
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=20)
    for theta in thetas:
        back = rotate(rotate(pts, theta), -theta)
        assert np.max(np.abs(back - pts)) < 1e-12


def test_rotate_preserves_norm():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(200, 2))
    out = rotate(pts, 1.234)
    assert np.allclose(np.hypot(out[:, 0], out[:, 1]), np.hypot(pts[:, 0], pts[:, 1]), atol=1e-12)


# ------------------------------------------------------- Bezier evaluation


def _bernstein_eval(controls, s):
    # independent oracle: explicit Bernstein-basis sum
    n = len(controls) - 1
    out = np.zeros(2)
    for i in range(n + 1):
        out += math.comb(n, i) * (s ** i) * ((1.0 - s) ** (n - i)) * controls[i]
    return out


def test_bezier_eval_line_midpoint():
    curve = BezierCurve(np.array([[0.0, 0.0], [2.0, 4.0]]))
    assert np.allclose(bezier_eval(curve, 0.5), [1.0, 2.0])


def test_bezier_eval_quadratic_known_point():
    curve = BezierCurve(np.array([[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]]))
    # B(1/2) = 1/4 P0 + 1/2 P1 + 1/4 P2
    assert np.allclose(bezier_eval(curve, 0.5), [0.5, 0.5])


def test_bezier_eval_endpoints_exact():
    rng = np.random.default_rng(21)
    for _ in range(100):
        order = int(rng.integers(1, 4))
        ctrl = rng.normal(size=(order + 1, 2)) * 10.0
        curve = BezierCurve(ctrl)
        assert np.array_equal(bezier_eval(curve, 0.0), ctrl[0])
        assert np.array_equal(bezier_eval(curve, 1.0), ctrl[-1])


def test_bezier_eval_matches_bernstein():
    rng = np.random.default_rng(22)
    grid = np.linspace(0.0, 1.0, 17)
    for _ in range(50):
        order = int(rng.integers(1, 4))
        ctrl = rng.normal(size=(order + 1, 2)) * 3.0
        curve = BezierCurve(ctrl)
        for s in grid:
            assert np.allclose(bezier_eval(curve, s), _bernstein_eval(ctrl, s), atol=1e-12)


def test_bezier_eval_rejects_out_of_range():
    curve = BezierCurve(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        bezier_eval(curve, -0.01)
    with pytest.raises(ValueError):
        bezier_eval(curve, 1.01)


def test_bezier_curve_validates_order():
    with pytest.raises(InvalidCurveError):
        BezierCurve(np.array([[0.0, 0.0]]))
    with pytest.raises(InvalidCurveError):
        BezierCurve(np.zeros((5, 2)))


# -------------------------------------------------------- Bezier inversion


def _random_monotone_curve(rng, order=None):
    if order is None:
        order = int(rng.integers(1, 4))
    xs = np.sort(rng.uniform(-1.0, 1.0, size=order + 1))
    while np.min(np.diff(xs)) < 1e-3:
        xs = np.sort(rng.uniform(-1.0, 1.0, size=order + 1))
    ys = rng.uniform(-1.0, 1.0, size=order + 1)
    return BezierCurve(np.column_stack([xs, ys]))


def test_y_at_x_identity_line():
    curve = BezierCurve(np.array([[0.0, 0.0], [1.0, 1.0]]))
    xs = np.array([0.0, 0.3, 0.9, 1.0])
    assert np.allclose(bezier_y_at_x(curve, xs), xs, atol=1e-9)


def test_y_at_x_constant_extension():
    curve = BezierCurve(np.array([[0.0, 2.0], [1.0, 5.0]]))
    ys = bezier_y_at_x(curve, np.array([-10.0, -0.001, 1.001, 10.0]))
    assert np.allclose(ys, [2.0, 2.0, 5.0, 5.0])


def test_y_at_x_round_trip():
    # forward-evaluate at random s, then invert the x coordinate
    rng = np.random.default_rng(33)
    for _ in range(200):
        curve = _random_monotone_curve(rng)
        s = rng.uniform(0.0, 1.0, size=20)
        pts = np.array([bezier_eval(curve, si) for si in s])
        ys = bezier_y_at_x(curve, pts[:, 0], tol=1e-12)
        assert np.max(np.abs(ys - pts[:, 1])) < 1e-8


def test_y_at_x_rejects_non_monotone():
    ctrl = np.array([[0.0, 0.0], [1.0, 1.0], [-0.5, 2.0], [0.2, 3.0]])
    with pytest.raises(InvalidCurveError):
        bezier_y_at_x(BezierCurve(ctrl), 0.1)


def test_y_at_x_scalar_input():
    curve = BezierCurve(np.array([[0.0, 1.0], [2.0, 3.0]]))
    y = bezier_y_at_x(curve, 1.0)
    assert np.ndim(y) == 0
    assert abs(float(y) - 2.0) < 1e-9


# ------------------------------------------------------------ side of cut


def _oracle_height(controls, xq):
    # curve height at each abscissa, endpoint heights outside the x-span;
    # inside it, numpy.roots solves the power-basis x(s) = x' and the
    # Bernstein sum gives the height at the root inside [0, 1]
    xs = controls[:, 0]
    n = len(xs) - 1
    power = [math.comb(n, k) * np.diff(xs, n=k)[0] for k in range(n + 1)]
    out = []
    for x in xq:
        if x <= xs[0]:
            out.append(controls[0, 1])
        elif x >= xs[-1]:
            out.append(controls[-1, 1])
        else:
            roots = np.roots(power[:0:-1] + [power[0] - x])
            miss = np.abs(roots.imag) + np.clip(-roots.real, 0.0, None) + np.clip(roots.real - 1.0, 0.0, None)
            s = float(np.clip(roots[np.argmin(miss)].real, 0.0, 1.0))
            out.append(_bernstein_eval(controls, s)[1])
    return np.array(out)


def _oracle_side(points, cut):
    c, s = math.cos(cut.theta), math.sin(cut.theta)
    xr = c * points[:, 0] - s * points[:, 1]
    yr = s * points[:, 0] + c * points[:, 1]
    return yr - cut.offset - _oracle_height(cut.curve.controls, xr) >= TIE_EPS


def _straddling_points(cut, rng, s, gap=1e-6):
    # points on the offset curve at parameters s, each moved up or down by
    # at most ``gap``, mapped back to the unrotated frame
    on = np.array([_bernstein_eval(cut.curve.controls, si) for si in s])
    on[:, 1] += cut.offset + rng.choice([-1.0, 1.0], size=len(s)) * rng.uniform(0.01, 1.0, size=len(s)) * gap
    c, sn = math.cos(cut.theta), math.sin(cut.theta)
    return np.column_stack([c * on[:, 0] + sn * on[:, 1], -sn * on[:, 0] + c * on[:, 1]])


def _assert_matches_oracle(cut, points):
    with np.errstate(all="raise"):
        got = side_of_cut(points, cut)
    assert np.array_equal(got, _oracle_side(points, cut))


def test_side_of_cut_horizontal_line():
    curve = BezierCurve(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    cut = BezierCut(theta=0.0, curve=curve, offset=0.0)
    pts = np.array([[0.0, 0.5], [0.0, -0.5], [2.0, 1.0], [-2.0, -1.0]])
    assert list(side_of_cut(pts, cut)) == [True, False, True, False]


def test_side_of_cut_tie_goes_below():
    curve = BezierCurve(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    cut = BezierCut(theta=0.0, curve=curve, offset=0.0)
    assert side_of_cut(np.array([0.3, 0.0]), cut) == False  # noqa: E712
    assert side_of_cut(np.array([0.3, 5e-13]), cut) == False  # noqa: E712
    assert side_of_cut(np.array([0.3, 1e-11]), cut) == True  # noqa: E712


def test_side_of_cut_offset_shifts_boundary():
    curve = BezierCurve(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    cut = BezierCut(theta=0.0, curve=curve, offset=0.7)
    assert side_of_cut(np.array([0.0, 0.6]), cut) == False  # noqa: E712
    assert side_of_cut(np.array([0.0, 0.8]), cut) == True  # noqa: E712


def test_side_of_cut_rotated_vertical_line():
    # theta = pi/2 turns the horizontal chord into the line x = 0, with
    # above <=> x > 0 in the original frame
    curve = BezierCurve(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    cut = BezierCut(theta=math.pi / 2.0, curve=curve, offset=0.0)
    assert side_of_cut(np.array([0.4, 0.9]), cut) == True  # noqa: E712
    assert side_of_cut(np.array([-0.4, 0.9]), cut) == False  # noqa: E712


def test_side_of_cut_matches_root_oracle_randomized():
    rng = np.random.default_rng(44)
    for i in range(180):
        curve = _random_monotone_curve(rng, 1 + i % 3)
        cut = BezierCut(theta=rng.uniform(0.0, 2.0 * math.pi), curve=curve, offset=rng.normal() * 0.5)
        far = rng.uniform(-2.0, 2.0, size=(100, 2))
        near = _straddling_points(cut, rng, rng.uniform(0.0, 1.0, size=50))
        _assert_matches_oracle(cut, np.vstack([far, near]))


def test_side_of_cut_nearly_stationary_cubic():
    # x'(s) is 3e-9 at both ends: Newton steps there leave the bracket
    ctrl = np.array([[-0.5, 0.3], [-0.5 + 1e-9, -0.8], [0.5 - 1e-9, 0.9], [0.5, -0.2]])
    cut = BezierCut(theta=0.4, curve=BezierCurve(ctrl), offset=0.1)
    rng = np.random.default_rng(45)
    s = np.concatenate([rng.uniform(0.0, 1.0, size=200), [1e-4, 1e-3, 1.0 - 1e-3, 1.0 - 1e-4]])
    _assert_matches_oracle(cut, _straddling_points(cut, rng, s))


@pytest.mark.parametrize("order", [2, 3])
def test_side_of_cut_stationary_start(order):
    # x_1 = x_0: the derivative of x(s) vanishes at s = 0
    rng = np.random.default_rng(46)
    for _ in range(20):
        curve = _random_monotone_curve(rng, order)
        ctrl = curve.controls.copy()
        ctrl[1, 0] = ctrl[0, 0]
        cut = BezierCut(theta=rng.uniform(0.0, 2.0 * math.pi), curve=BezierCurve(ctrl), offset=0.2)
        s = np.concatenate([rng.uniform(0.0, 1.0, size=50), [1e-6, 1e-4, 1e-2]])
        _assert_matches_oracle(cut, _straddling_points(cut, rng, s))


def test_side_of_cut_points_at_curve_ends():
    rng = np.random.default_rng(47)
    for order in (1, 2, 3):
        curve = _random_monotone_curve(rng, order)
        cut = BezierCut(theta=0.0, curve=curve, offset=0.0)
        ends = curve.controls[[0, 0, -1, -1]] + np.array([[0.0, 1e-6], [0.0, -1e-6], [0.0, 1e-6], [0.0, -1e-6]])
        _assert_matches_oracle(cut, ends)
        with np.errstate(all="raise"):
            assert list(side_of_cut(ends, cut)) == [True, False, True, False]


def test_y_at_x_one_ulp_inside_stationary_end():
    # x_2 = x_3, and the first guess rounds to s = 1 where x'(s) = 0
    ctrl = np.array([[-1.0, 0.2], [-0.5, -0.4], [1.0, 0.7], [1.0, 0.1]])
    xq = np.array([np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0)])
    with np.errstate(all="raise"):
        ys = bezier_y_at_x(BezierCurve(ctrl), xq)
    assert np.allclose(ys, _oracle_height(ctrl, xq), rtol=0.0, atol=1e-6)


def test_y_at_x_zero_span_returns_endpoint_heights():
    curve = BezierCurve(np.array([[0.5, 0.1], [0.5, 0.7], [0.5, -0.3]]))
    with np.errstate(all="raise"):
        ys = bezier_y_at_x(curve, np.array([-1.0, 0.5 - 1e-12, 0.5, 2.0]))
    assert list(ys) == [0.1, 0.1, -0.3, -0.3]


def test_cut_pickles_small_after_side_test():
    rng = np.random.default_rng(48)
    cut = BezierCut(theta=0.3, curve=_random_monotone_curve(rng, 3), offset=0.1)
    side_of_cut(rng.uniform(-1.0, 1.0, size=(500, 2)), cut)
    assert len(pickle.dumps(cut, protocol=pickle.HIGHEST_PROTOCOL)) < 1000


def test_side_of_cut_single_point_returns_scalar():
    curve = BezierCurve(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    cut = BezierCut(theta=0.0, curve=curve, offset=0.0)
    out = side_of_cut(np.array([0.1, 0.2]), cut)
    assert isinstance(out, (bool, np.bool_))


# -------------------------------------------------------- enclosing circle


def _circle_from_two(p, q):
    c = (p + q) / 2.0
    return c, math.dist(p, q) / 2.0


def _circle_from_three(p, q, r):
    ax, ay = p
    bx, by = q
    cx, cy = r
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-14:
        return None
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay) + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx) + (cx * cx + cy * cy) * (bx - ax)) / d
    center = np.array([ux, uy])
    return center, math.dist(center, p)


def _brute_enclosing(points):
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n == 1:
        return pts[0], 0.0
    best = None

    def covers(center, radius):
        d = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
        return np.all(d <= radius * (1.0 + 1e-12) + 1e-12)

    for i in range(n):
        for j in range(i + 1, n):
            c, r = _circle_from_two(pts[i], pts[j])
            if covers(c, r) and (best is None or r < best[1]):
                best = (c, r)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                out = _circle_from_three(pts[i], pts[j], pts[k])
                if out is None:
                    continue
                c, r = out
                if covers(c, r) and (best is None or r < best[1]):
                    best = (c, r)
    return best


def test_circle_single_point():
    c = smallest_enclosing_circle(np.array([[2.0, 3.0]]))
    assert np.allclose(c.center, [2.0, 3.0])
    assert c.radius == 0.0


def test_circle_two_points_diameter():
    c = smallest_enclosing_circle(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert np.allclose(c.center, [1.0, 0.0], atol=1e-12)
    assert abs(c.radius - 1.0) < 1e-12


def test_circle_equilateral_triangle():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    c = smallest_enclosing_circle(pts)
    assert abs(c.radius - 1.0 / math.sqrt(3.0)) < 1e-12


def test_circle_duplicates_and_collinear():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0]])
    c = smallest_enclosing_circle(pts)
    assert abs(c.radius - math.sqrt(2.0)) < 1e-12
    assert np.allclose(c.center, [1.0, 1.0], atol=1e-12)


def test_circle_matches_brute_force():
    rng = np.random.default_rng(55)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        pts = rng.uniform(-3.0, 3.0, size=(n, 2))
        c = smallest_enclosing_circle(pts, rng=rng)
        bc, br = _brute_enclosing(pts)
        assert abs(c.radius - br) < 1e-9
        assert c.contains(pts)


def test_circle_contains_large_cloud():
    rng = np.random.default_rng(56)
    pts = rng.normal(size=(5000, 2)) * np.array([3.0, 0.2]) + np.array([10.0, -4.0])
    c = smallest_enclosing_circle(pts)
    d = np.hypot(pts[:, 0] - c.center[0], pts[:, 1] - c.center[1])
    assert np.all(d <= c.radius * (1.0 + 1e-9) + 1e-12)
    # minimality: some point must sit on the boundary
    assert np.max(d) > c.radius * (1.0 - 1e-6)


def test_circle_deterministic_given_rng_seed():
    rng_pts = np.random.default_rng(57)
    pts = rng_pts.uniform(size=(40, 2))
    c1 = smallest_enclosing_circle(pts, rng=np.random.default_rng(9))
    c2 = smallest_enclosing_circle(pts, rng=np.random.default_rng(9))
    assert np.array_equal(c1.center, c2.center)
    assert c1.radius == c2.radius


def test_circle_contains_method_slack():
    c = Circle(center=np.array([0.0, 0.0]), radius=1.0)
    assert c.contains(np.array([[1.0 + 1e-10, 0.0]]))
    assert not c.contains(np.array([[1.1, 0.0]]))
