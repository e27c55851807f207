"""Planar geometry kernel: rotations, monotone Bezier curves and cut sides, enclosing circles.

Everything here is deterministic given its inputs; the only randomness is the
caller-supplied generator used to shuffle points for the enclosing-circle search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# |y' - g(x') - t| below this counts as lying on the curve and resolves to "below"
TIE_EPS = 1e-12


class InvalidCurveError(ValueError):
    """Control points violate the monotone-x curve construction."""


class DegenerateInputError(ValueError):
    """Point set is too small or degenerate for the requested operation."""


def rotate(points, theta):
    """Rotate point(s) by ``theta`` radians counterclockwise about the origin.

    Accepts a single ``(2,)`` point or an ``(n, 2)`` array; returns the same
    shape. The inverse map is ``rotate(p, -theta)``.
    """
    pts = np.asarray(points, dtype=float)
    c = math.cos(theta)
    s = math.sin(theta)
    x = pts[..., 0]
    y = pts[..., 1]
    return np.stack((c * x - s * y, s * x + c * y), axis=-1)


@dataclass(frozen=True, eq=False)
class BezierCurve:
    """Bezier curve of order 1, 2 or 3 given by its control points, shape (order+1, 2)."""

    controls: np.ndarray

    def __post_init__(self):
        ctrl = np.asarray(self.controls, dtype=float)
        if ctrl.ndim != 2 or ctrl.shape[1] != 2 or ctrl.shape[0] not in (2, 3, 4):
            raise InvalidCurveError(f"expected (order+1, 2) control array with order in 1..3, got shape {ctrl.shape}")
        if not np.all(np.isfinite(ctrl)):
            raise InvalidCurveError("control points must be finite")
        object.__setattr__(self, "controls", ctrl)

    @property
    def order(self) -> int:
        return len(self.controls) - 1


def _casteljau(coeffs, s):
    # de Casteljau reduction on one coordinate; exact at s = 0 and s = 1
    one = 1.0 - s
    vals = list(coeffs)
    while len(vals) > 1:
        vals = [one * vals[i] + s * vals[i + 1] for i in range(len(vals) - 1)]
    return np.asarray(vals[0], dtype=float)


def bezier_eval(curve: BezierCurve, s):
    """Evaluate the curve at parameter(s) ``s`` in [0, 1] by de Casteljau recursion."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0.0) or np.any(s_arr > 1.0):
        raise ValueError("curve parameter must lie in [0, 1]")
    x = _casteljau(curve.controls[:, 0], s_arr)
    y = _casteljau(curve.controls[:, 1], s_arr)
    return np.stack((x, y), axis=-1)


_BINOMIALS = ((1.0,), (1.0, 1.0), (1.0, 2.0, 1.0), (1.0, 3.0, 3.0, 1.0))


def _power_coeffs(cs):
    # power-basis coefficients of the Bezier polynomial with Bernstein
    # coefficients cs: a_k = C(n, k) times the k-th forward difference at 0
    out = []
    for binom in _BINOMIALS[len(cs) - 1]:
        out.append(binom * cs[0])
        cs = [b - a for a, b in zip(cs, cs[1:])]
    return out


def _horner(a, s):
    # sum of a[k] * s**k
    out = a[-1]
    for c in a[-2::-1]:
        out = out * s + c
    return out


# cap on Newton steps, met only when tol is near rounding level
_MAX_STEPS = 64


def bezier_y_at_x(curve: BezierCurve, x, tol: float = 1e-10):
    """Height of the curve at abscissa ``x``.

    The x-component is nondecreasing by construction, so the parameter s with
    x(s) = x is found by Newton's method on the power-basis coefficients of
    x(s), kept inside a sign bracket: a step that leaves the bracket is
    replaced by bisection. Iteration stops once no Newton step exceeds
    ``tol``; the height is then the power-basis y(s). Outside the x-span of
    the curve the nearest endpoint height is returned exactly, so the
    function is total and continuous; a zero-span curve is all endpoints.
    """
    xs, ys = curve.controls.T.tolist()
    if any(b < a for a, b in zip(xs, xs[1:])):
        raise InvalidCurveError("control x-coordinates must be nondecreasing")
    xq = np.atleast_1d(np.asarray(x, dtype=float))
    x0 = xs[0]
    xn = xs[-1]
    out = np.where(xq >= xn, ys[-1], ys[0])
    inner = (xq > x0) & (xq < xn)
    if inner.any():
        xi = xq[inner]
        s = (xi - x0) * (1.0 / (xn - x0))
        a = _power_coeffs(xs)
        da = [k * ak for k, ak in enumerate(a) if k]
        a[0] = x0 - xi  # Newton solves x(s) - xi = 0
        lo = 0.0
        hi = 1.0
        # a vanishing derivative (only at a stationary end) gives an infinite
        # or undefined step, which the bracket test turns into bisection
        with np.errstate(all="ignore"):
            for _ in range(_MAX_STEPS):
                f = _horner(a, s)
                below = f < 0.0
                lo = np.where(below, s, lo)
                hi = np.where(below, hi, s)
                step = f / _horner(da, s)
                nxt = s - step
                inside = (nxt >= lo) & (nxt <= hi)
                s = nxt if inside.all() else np.where(inside, nxt, 0.5 * (lo + hi))
                if np.abs(step).max() <= tol:
                    break
        out[inner] = _horner(_power_coeffs(ys), s)
    return float(out[0]) if np.ndim(x) == 0 else out


@dataclass(eq=False)
class BezierCut:
    """A cut: rotation angle, monotone Bezier curve in the rotated frame, vertical offset.

    A point p is "above" the cut iff, with p' = rotate(p, theta),
    p'.y > g(p'.x) + offset where g is the curve height; ties go below. The
    three fields are the whole cut: nothing is cached on it.
    """

    theta: float
    curve: BezierCurve
    offset: float


def side_of_cut(points, cut: BezierCut):
    """True where the point lies above the offset curve in the cut's rotated frame.

    One computation for every point: rotate by the cut's angle, take the
    curve height at the rotated abscissa from ``bezier_y_at_x``, and call the
    point above iff it clears height plus offset by at least TIE_EPS, so
    points on the curve count as below. Accepts a single point or an (n, 2)
    array; returns a bool or a bool array.
    """
    pts = np.asarray(points, dtype=float)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    # rotate(pts, cut.theta), one coordinate at a time
    c = math.cos(cut.theta)
    s = math.sin(cut.theta)
    x = pts[:, 0]
    y = pts[:, 1]
    above = s * x + c * y - cut.offset - bezier_y_at_x(cut.curve, c * x - s * y) >= TIE_EPS
    return bool(above[0]) if scalar else above


@dataclass(eq=False)
class Circle:
    center: np.ndarray
    radius: float

    def contains(self, points, slack: float = 1e-9) -> bool:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = np.hypot(pts[:, 0] - self.center[0], pts[:, 1] - self.center[1])
        return bool(np.all(d <= self.radius + slack))


# multiplicative slack for the incremental membership test
_CONTAIN_EPS = 1.0 + 1e-14


def _first_outside(xs, ys, start, stop, cx, cy, r):
    # index of the first point in [start, stop) outside the circle, or -1
    if start >= stop:
        return -1
    d2 = (xs[start:stop] - cx) ** 2 + (ys[start:stop] - cy) ** 2
    hits = np.nonzero(d2 > (r * _CONTAIN_EPS) ** 2)[0]
    return -1 if hits.size == 0 else start + int(hits[0])


def _make_diameter(ax, ay, bx, by):
    cx = 0.5 * (ax + bx)
    cy = 0.5 * (ay + by)
    r = max(math.hypot(cx - ax, cy - ay), math.hypot(cx - bx, cy - by))
    return (cx, cy, r)


# projection directions whose extreme points seed the candidate support set
_EXTREME_DIRS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0),
                 (2.0, 1.0), (1.0, 2.0), (2.0, -1.0), (1.0, -2.0))


def smallest_enclosing_circle(points, rng=None) -> Circle:
    """Smallest circle containing every input point.

    Welzl's randomized incremental algorithm, run on a small candidate set that
    starts from directional extreme points and absorbs the farthest violator
    until the circle covers everything; the fixed point is exactly the circle
    of the full set. ``rng`` drives insertion order only; the circle itself is
    unique. A fixed default generator keeps results reproducible when no rng
    is passed.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise DegenerateInputError("need a nonempty (n, 2) point array")
    if not np.all(np.isfinite(pts)):
        raise DegenerateInputError("points must be finite")
    if rng is None:
        rng = np.random.default_rng(0)
    if len(pts) <= 16:
        cx, cy, r = _welzl(pts, rng)
        return Circle(np.array([cx, cy]), float(r))
    px = pts[:, 0]
    py = pts[:, 1]
    cand = set()
    for dx, dy in _EXTREME_DIRS:
        proj = px * dx + py * dy
        cand.add(int(np.argmin(proj)))
        cand.add(int(np.argmax(proj)))
    cand_list = sorted(cand)
    while True:
        cx, cy, r = _welzl(pts[cand_list], rng)
        d2 = (px - cx) ** 2 + (py - cy) ** 2
        far = int(np.argmax(d2))
        if d2[far] <= (r * _CONTAIN_EPS) ** 2 or far in cand:
            break
        cand.add(far)
        cand_list.append(far)
    return Circle(np.array([cx, cy]), float(r))


def _welzl(pts, rng):
    order = rng.permutation(len(pts))
    xs = np.ascontiguousarray(pts[order, 0])
    ys = np.ascontiguousarray(pts[order, 1])
    n = len(xs)
    cx, cy, r = float(xs[0]), float(ys[0]), 0.0
    i = 1
    while True:
        j = _first_outside(xs, ys, i, n, cx, cy, r)
        if j < 0:
            break
        cx, cy, r = _circle_with_one(xs, ys, j)
        i = j + 1
    return cx, cy, r


def _circle_with_one(xs, ys, i):
    # smallest circle over points[0..i] with points[i] on the boundary
    px, py = float(xs[i]), float(ys[i])
    cx, cy, r = px, py, 0.0
    j = 0
    while True:
        k = _first_outside(xs, ys, j, i, cx, cy, r)
        if k < 0:
            break
        qx, qy = float(xs[k]), float(ys[k])
        if r == 0.0:
            cx, cy, r = _make_diameter(px, py, qx, qy)
        else:
            cx, cy, r = _circle_with_two(xs, ys, k, px, py, qx, qy)
        j = k + 1
    return cx, cy, r


def _circle_with_two(xs, ys, upto, px, py, qx, qy):
    # smallest circle over points[0..upto) with both p and q on the boundary
    circ = _make_diameter(px, py, qx, qy)
    ccx, ccy, cr = circ
    d2 = (xs[:upto] - ccx) ** 2 + (ys[:upto] - ccy) ** 2
    violators = np.nonzero(d2 > (cr * _CONTAIN_EPS) ** 2)[0]
    left = None
    right = None
    for k in violators:
        rx, ry = float(xs[k]), float(ys[k])
        cross = (qx - px) * (ry - py) - (qy - py) * (rx - px)
        c = _circum_three(px, py, qx, qy, rx, ry)
        if c is None:
            continue
        ccross = (qx - px) * (c[1] - py) - (qy - py) * (c[0] - px)
        if cross > 0.0 and (left is None or ccross > (qx - px) * (left[1] - py) - (qy - py) * (left[0] - px)):
            left = c
        elif cross < 0.0 and (right is None or ccross < (qx - px) * (right[1] - py) - (qy - py) * (right[0] - px)):
            right = c
    if left is None and right is None:
        return circ
    if left is None:
        return right
    if right is None:
        return left
    return left if left[2] <= right[2] else right


def _circum_three(ax, ay, bx, by, cx, cy):
    ox = 0.5 * (min(ax, bx, cx) + max(ax, bx, cx))
    oy = 0.5 * (min(ay, by, cy) + max(ay, by, cy))
    rax, ray = ax - ox, ay - oy
    rbx, rby = bx - ox, by - oy
    rcx, rcy = cx - ox, cy - oy
    d = 2.0 * (rax * (rby - rcy) + rbx * (rcy - ray) + rcx * (ray - rby))
    if d == 0.0:
        return None
    x = ox + ((rax * rax + ray * ray) * (rby - rcy) + (rbx * rbx + rby * rby) * (rcy - ray) + (rcx * rcx + rcy * rcy) * (ray - rby)) / d
    y = oy + ((rax * rax + ray * ray) * (rcx - rbx) + (rbx * rbx + rby * rby) * (rax - rcx) + (rcx * rcx + rcy * rcy) * (rbx - rax)) / d
    r = max(math.hypot(x - ax, y - ay), math.hypot(x - bx, y - by), math.hypot(x - cx, y - cy))
    return (x, y, r)
