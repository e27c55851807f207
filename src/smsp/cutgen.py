"""Generative sampler for random Bezier cuts of a planar point subset.

A proposal draws a rotation angle, a curve order, control points inside a box,
and a vertical offset whose range guarantees the offset curve overlaps the
subset's height range. Proposals are rejected until one actually separates the
subset into two nonempty sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    TWO_PI,
    BezierCurve,
    BezierCut,
    InvalidCurveError,
    _casteljau,
    rotate,
    side_of_cut,
    smallest_enclosing_circle,
)

# parameter grid on which a proposal's curve heights are bounded
HEIGHT_KNOTS = 256


class CutFailureError(RuntimeError):
    """No separating cut found within the rejection budget."""


@dataclass(frozen=True)
class CutGenConfig:
    """Knobs of the cut proposal distribution.

    ``a, b`` bound control-point x-coordinates, ``c, d`` bound their
    y-coordinates, both in the rotated frame centered on the subset's smallest
    enclosing circle. Leave all four as None (the default) to use the box
    [-r, r]^2 scaled to each subset's circle radius r.
    """

    a: float | None = None
    b: float | None = None
    c: float | None = None
    d: float | None = None
    order_weights: tuple[float, float, float] = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    max_rejections: int = 10000

    def __post_init__(self):
        bounds = (self.a, self.b, self.c, self.d)
        given = [v for v in bounds if v is not None]
        if given and len(given) != 4:
            raise ValueError("give all of a, b, c, d or none of them")
        if given:
            if not (self.a < self.b and self.c < self.d):
                raise ValueError("need a < b and c < d")
        w = np.asarray(self.order_weights, dtype=float)
        if w.shape != (3,) or np.any(w < 0.0) or not math.isclose(w.sum(), 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError("order_weights must be 3 nonnegative numbers summing to 1")
        if self.max_rejections < 1:
            raise ValueError("max_rejections must be positive")

    @property
    def explicit_box(self) -> bool:
        return self.a is not None

    def resolved(self, radius: float) -> "CutGenConfig":
        """Config with concrete bounds; default box is [-radius, radius]^2."""
        if self.explicit_box:
            return self
        r = float(radius)
        return replace(self, a=-r, b=r, c=-r, d=r)


def sample_order(cfg: CutGenConfig, rng) -> int:
    """Draw a curve order from {1, 2, 3} with the configured weights."""
    u = rng.random()
    acc = 0.0
    for n, w in enumerate(cfg.order_weights, start=1):
        acc += w
        if u < acc:
            return n
    return 3


def sample_control_points(order: int, cfg: CutGenConfig, rng) -> BezierCurve:
    """Draw control points for a monotone-x curve of the given order.

    x_0 = a and x_order = b; interior x-coordinates are sorted uniforms on
    (a, b); every y-coordinate is an independent uniform on (c, d).
    """
    if not cfg.explicit_box:
        raise ValueError("control-point sampling needs concrete box bounds")
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    inner = np.sort(rng.uniform(cfg.a, cfg.b, size=order - 1))
    xs = np.concatenate(([cfg.a], inner, [cfg.b]))
    ys = rng.uniform(cfg.c, cfg.d, size=order + 1)
    return BezierCurve(np.column_stack((xs, ys)))


def curve_height_extrema(curve: BezierCurve) -> tuple[float, float]:
    """Min and max curve height over HEIGHT_KNOTS evenly spaced parameters."""
    gy = _casteljau(curve.controls[:, 1], np.linspace(0.0, 1.0, HEIGHT_KNOTS))
    return float(gy.min()), float(gy.max())


def sample_offset(curve: BezierCurve, y_range: tuple[float, float], rng) -> float:
    """Draw the vertical offset so the shifted curve overlaps the height range.

    y_range is (min, max) of the subset's rotated y-coordinates. The offset is
    uniform on [y_min - max g, y_max - min g]: at the low end the curve top
    touches the subset bottom, at the high end the curve bottom touches the top.
    """
    g_min, g_max = curve_height_extrema(curve)
    y_min, y_max = y_range
    lo = y_min - g_max
    hi = y_max - g_min
    return float(rng.uniform(lo, hi))


def sample_cut(points, cfg: CutGenConfig, rng, center=None, radius=None) -> BezierCut:
    """Rejection-sample a separating cut for the given subset.

    ``center``/``radius`` of the subset's smallest enclosing circle may be
    passed to skip recomputation. Raises CutFailureError after
    ``cfg.max_rejections`` non-separating proposals.
    """
    cut, _ = sample_cut_masked(points, cfg, rng, center=center, radius=radius)
    return cut


def sample_cut_masked(points, cfg: CutGenConfig, rng, center=None, radius=None):
    """Like sample_cut but also returns the boolean above-side mask it accepted."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) < 2:
        raise CutFailureError("subset has fewer than 2 points")
    if center is None or radius is None:
        circ = smallest_enclosing_circle(pts, rng)
        center = circ.center
        radius = circ.radius
    if radius <= 0.0:
        raise CutFailureError("subset is a single location, nothing to separate")
    box = cfg.resolved(radius)
    cx, cy = float(center[0]), float(center[1])
    x_rel = pts[:, 0] - cx
    y_rel = pts[:, 1] - cy
    for _ in range(cfg.max_rejections):
        theta = rng.uniform(0.0, TWO_PI)
        order = sample_order(cfg, rng)
        curve0 = sample_control_points(order, box, rng)
        # subset heights in the rotated, circle-centered frame
        sin_t = math.sin(theta)
        cos_t = math.cos(theta)
        y_rot = sin_t * x_rel + cos_t * y_rel
        offset = sample_offset(curve0, (float(y_rot.min()), float(y_rot.max())), rng)
        # shift the curve out of the centered frame so the cut is self-contained:
        # points rotate about the origin, so the center moves to rotate(center, theta)
        shift = rotate(np.array([cx, cy]), theta)
        curve = BezierCurve(curve0.controls + shift)
        cut = BezierCut(theta, curve, offset)
        above = side_of_cut(pts, cut)
        if above.any() and not above.all():
            return cut, above
    raise CutFailureError(f"no separating cut in {cfg.max_rejections} proposals")


def cut_to_dict(cut: BezierCut) -> dict:
    return {
        "theta": float(cut.theta),
        "order": cut.curve.order,
        "controls": [[float(x), float(y)] for x, y in cut.curve.controls],
        "offset": float(cut.offset),
    }


def cut_from_dict(d: dict) -> BezierCut:
    curve = BezierCurve(np.asarray(d["controls"], dtype=float))
    if curve.order != int(d["order"]):
        raise ValueError("control count does not match declared order")
    xs = curve.controls[:, 0].tolist()
    if xs != sorted(xs) or not xs[-1] > xs[0]:
        raise InvalidCurveError("cut control x-coordinates must be nondecreasing and span a positive width")
    return BezierCut(float(d["theta"]), curve, float(d["offset"]))
