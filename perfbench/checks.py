"""Output checks for the benchmark.

Each check tests a property the method must have, or compares against a
computation made apart from ``smsp``. None compares against a stored copy of
earlier output. Every check returns True when the output passes.

The reference side test converts each Bezier curve to the power basis and
solves x(s) = x' with numpy (companion-matrix eigenvalues, then a guarded
Newton polish); it shares no code with ``smsp.geometry``.
"""

from __future__ import annotations

import json
from math import comb

import numpy as np

from smsp.partition import route_points

# points closer than this (vertically, in a cut's rotated frame) to any cut
# are left out of the reference comparison: the reference inversion is only
# trusted to about 1e-9 there, and the library breaks ties at 1e-12
SKIP_DIST = 1e-6
PROBA_TOL = 1e-12
MIN_ACCURACY = 0.87  # lower edge of acceptance criterion 1
BOUNDARY_PIXELS = 2.0  # as in test_fitted_disk_boundary_near_circle
VERTEX_TOL = 1e-9


# ---- reference Bezier geometry (power basis) ----


def power_basis(values) -> np.ndarray:
    """Ascending power-basis coefficients of a Bernstein polynomial."""
    p = np.asarray(values, dtype=float)
    n = len(p) - 1
    return np.array(
        [comb(n, k) * sum((-1) ** (k - i) * comb(k, i) * p[i] for i in range(k + 1)) for k in range(n + 1)]
    )


def horner(coeffs, s):
    acc = np.full(np.shape(s), coeffs[-1], dtype=float)
    for c in coeffs[-2::-1]:
        acc = acc * s + c
    return acc


def _invert(ax, xq) -> np.ndarray:
    """Parameter s in [0, 1] with x(s) = xq, for a nondecreasing x(s)."""
    deg = len(ax) - 1
    scale = float(np.max(np.abs(ax[1:])))
    while deg > 1 and abs(ax[deg]) <= 1e-12 * scale:
        deg -= 1
    if deg == 1:
        s = (xq - ax[0]) / ax[1]
    else:
        lead = ax[deg]
        comp = np.zeros((len(xq), deg, deg))
        comp[:, 0, :] = -ax[deg - 1 :: -1][:deg] / lead
        comp[:, 0, deg - 1] = -(ax[0] - xq) / lead
        comp[:, 1:, :-1] = np.eye(deg - 1)
        roots = np.linalg.eigvals(comp)
        miss = np.abs(roots.imag) + np.clip(-roots.real, 0.0, None) + np.clip(roots.real - 1.0, 0.0, None)
        s = roots.real[np.arange(len(xq)), np.argmin(miss, axis=1)]
    s = np.clip(s, 0.0, 1.0)
    dax = ax[1:] * np.arange(1, len(ax))
    for _ in range(3):
        f = horner(ax, s) - xq
        d = horner(dax, s)
        step = np.divide(f, d, out=np.zeros_like(f), where=d > 0.0)
        s_new = np.clip(s - step, 0.0, 1.0)
        better = np.abs(horner(ax, s_new) - xq) < np.abs(f)
        s = np.where(better, s_new, s)
    return s


def curve_height(controls, xq) -> np.ndarray:
    """Curve height at abscissae ``xq``; endpoint heights outside the x-span."""
    ctrl = np.asarray(controls, dtype=float)
    xq = np.asarray(xq, dtype=float)
    g = np.empty(len(xq))
    left = xq <= ctrl[0, 0]
    right = xq >= ctrl[-1, 0]
    g[left] = ctrl[0, 1]
    g[right] = ctrl[-1, 1]
    inner = ~(left | right)
    if inner.any():
        s = _invert(power_basis(ctrl[:, 0]), xq[inner])
        g[inner] = horner(power_basis(ctrl[:, 1]), s)
    return g


def reference_side(points, cut: dict):
    """(above, near) for a cut given as in the model file."""
    pts = np.asarray(points, dtype=float)
    c, s = np.cos(cut["theta"]), np.sin(cut["theta"])
    xr = c * pts[:, 0] - s * pts[:, 1]
    yr = s * pts[:, 0] + c * pts[:, 1]
    gap = yr - cut["offset"] - curve_height(cut["controls"], xr)
    return gap > 0.0, np.abs(gap) < SKIP_DIST


def reference_proba(model: dict, points):
    """Posterior predictive from a parsed model file, with the reference side test.

    Returns (proba, usable, leaves_ok): ``usable`` drops points near any cut;
    ``leaves_ok`` says every usable point fell in exactly one leaf per particle.
    """
    pts = np.asarray(points, dtype=float)
    alpha = np.asarray(model["alpha"], dtype=float)
    alpha_sum = float(alpha.sum())
    proba = np.zeros((len(pts), len(alpha)))
    usable = np.ones(len(pts), dtype=bool)
    leaves_ok = True
    by_value = {}  # resampled particles share cuts: test each distinct cut once
    for part in model["particles"]:
        sides = []
        for cut in part["cuts"]:
            key = json.dumps(cut, sort_keys=True)
            if key not in by_value:
                by_value[key] = reference_side(pts, cut)
            above, near = by_value[key]
            usable &= ~near
            sides.append(above)
        landed = np.zeros(len(pts), dtype=np.int64)
        for leaf in part["leaves"]:
            inside = np.ones(len(pts), dtype=bool)
            for cid, side in leaf["path"]:
                inside &= sides[cid] == (side == "above")
            counts = np.asarray(leaf["counts"], dtype=np.int64)
            proba[inside] += part["weight"] * ((alpha + counts) / (alpha_sum + counts.sum()))
            landed += inside
        leaves_ok = leaves_ok and bool(np.all(landed[usable] == 1))
    return proba, usable, leaves_ok


# ---- checks (a) to (g); (d) and (e) are plain equality tests in run.py ----


def counts_conserved(fit, train) -> bool:
    """(a) Routing the training points through every particle reproduces its leaf counts."""
    k = len(fit.label_values)
    codes = np.searchsorted(fit.label_values, train.labels)
    for state in fit.states:
        leaf_ids = route_points(state, train.xy)
        routed = np.bincount(leaf_ids * k + codes, minlength=len(state.subsets) * k).reshape(-1, k)
        stored = np.zeros_like(routed)
        for sid in state.leaves:
            stored[sid] = state.subsets[sid].counts
        if not np.array_equal(routed, stored):
            return False
    return True


def rows_are_distributions(proba) -> bool:
    """(b) Non-negative rows summing to 1 within PROBA_TOL."""
    p = np.asarray(proba)
    return bool(np.all(p >= 0.0) and np.all(np.abs(p.sum(axis=1) - 1.0) <= PROBA_TOL))


def matches_reference(model: dict, points, proba) -> bool:
    """(c) predict_proba agrees with the reference recomputation on usable points."""
    ref, usable, leaves_ok = reference_proba(model, points)
    if not leaves_ok or not usable.any():
        return False
    return bool(np.all(np.abs(ref[usable] - np.asarray(proba)[usable]) <= PROBA_TOL))


def pixels_reproduced(labels, truth) -> bool:
    """(f) Unbounded-budget fits reproduce every training pixel."""
    return bool(np.array_equal(np.asarray(labels), np.asarray(truth)))


def boundary_near_circle(shape, center, side: int, radius: float) -> bool:
    """(f) Exterior vertices lie on average within BOUNDARY_PIXELS of the true circle."""
    ext = shape.exterior_segments
    if not ext:
        return False
    pts = np.vstack([s.points for s in ext]) - center
    dist = np.abs(np.hypot(pts[:, 0], pts[:, 1]) - radius)
    return bool(dist.mean() < BOUNDARY_PIXELS / side)


def accurate(labels, truth) -> bool:
    """(g) Held-out accuracy of at least MIN_ACCURACY."""
    return bool(np.mean(np.asarray(labels) == np.asarray(truth)) >= MIN_ACCURACY)


def segments_on_cuts(shape, points_per_cut: int = 100) -> bool:
    """Every boundary segment is a run of consecutive samples of its cut's curve.

    The samples are recomputed here in the power basis and rotated back.
    """
    s = np.linspace(0.0, 1.0, points_per_cut)
    for seg in shape.segments:
        cut = seg.source_cut
        ctrl = cut.curve.controls
        xr = horner(power_basis(ctrl[:, 0]), s)
        yr = horner(power_basis(ctrl[:, 1]), s) + cut.offset
        c, sn = np.cos(cut.theta), np.sin(cut.theta)
        ref = np.column_stack((c * xr + sn * yr, -sn * xr + c * yr))
        m = len(seg.points)
        k0 = int(np.argmin(np.hypot(*(ref - seg.points[0]).T)))
        if m < 2 or k0 + m > len(ref):
            return False
        if np.max(np.abs(ref[k0 : k0 + m] - seg.points)) > VERTEX_TOL:
            return False
    return True
