"""Posterior sampling over spline partitions: SMC driver, prediction, model files."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .cutgen import CutGenConfig, cut_from_dict, cut_to_dict
from .data import InputFormatError
from .likelihood import (
    default_alpha,
    log_beta,
    log_likelihood,
    log_marginal_block,
    weight_increment,
)
from .parallel import SMCEngine, ess, multinomial_resample, normalized_weights
from .partition import PartitionState, Subset, route_points

__all__ = [
    "SMCConfig",
    "FitResult",
    "smc_fit",
    "predict",
    "predict_proba",
    "best_particle",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
    "default_alpha",
    "log_beta",
    "log_likelihood",
    "log_marginal_block",
    "weight_increment",
    "ess",
    "multinomial_resample",
    "normalized_weights",
]


@dataclass(frozen=True)
class SMCConfig:
    """Sampler settings. ``budget`` may be math.inf to run until extinction.

    ``max_cuts`` stops a particle after that many accepted cuts regardless of
    remaining budget. ``n_workers`` only changes how particles are scheduled,
    never the result.
    """

    n_particles: int
    budget: float = math.inf
    max_cuts: int | None = None
    ess_threshold: float = 0.5
    n_workers: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("need at least one particle")
        if not (self.budget > 0.0):
            raise ValueError("budget must be positive (math.inf allowed)")
        if self.max_cuts is not None and self.max_cuts < 1:
            raise ValueError("max_cuts must be positive when given")
        if not (0.0 < self.ess_threshold <= 1.0):
            raise ValueError("ess_threshold must be in (0, 1]")
        if self.n_workers < 1:
            raise ValueError("n_workers must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(eq=False)
class FitResult:
    """Particle approximation of the partition posterior."""

    states: list
    log_weights: np.ndarray
    alpha: np.ndarray
    label_values: np.ndarray
    config: SMCConfig | None = None
    n_rounds: int | None = None
    n_resamples: int | None = None

    @property
    def n_particles(self) -> int:
        return len(self.states)

    @property
    def weights(self) -> np.ndarray:
        return normalized_weights(self.log_weights)


def smc_fit(data, cfg: SMCConfig, cut_cfg: CutGenConfig | None = None, alpha=None) -> FitResult:
    """Run the sequential Monte Carlo sampler on a labeled dataset.

    ``data`` needs ``xy`` (n, 2) and ``labels`` (n,) attributes. ``alpha``
    defaults to per-label counts divided by 1000.
    """
    if cut_cfg is None:
        cut_cfg = CutGenConfig()
    labels = np.asarray(data.labels)
    label_values = np.unique(labels)
    if alpha is None:
        alpha = default_alpha(labels, label_values)
    else:
        alpha = np.asarray(alpha, dtype=float)
        if alpha.shape != label_values.shape:
            raise ValueError(f"alpha needs one entry per distinct label ({len(label_values)})")
        if np.any(alpha <= 0.0):
            raise ValueError("alpha entries must be positive")
    engine = SMCEngine(data, cfg, cut_cfg, alpha)
    states, log_w, n_rounds, n_resamples = engine.run()
    return FitResult(
        states=states,
        log_weights=log_w,
        alpha=alpha,
        label_values=label_values,
        config=cfg,
        n_rounds=n_rounds,
        n_resamples=n_resamples,
    )


def predict_proba(fit: FitResult, points) -> np.ndarray:
    """Posterior predictive label probabilities, (n_points, n_labels).

    Each particle routes the query points to its leaves and contributes its
    normalized weight times the leaf's Dirichlet posterior mean.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k = len(fit.label_values)
    alpha_sum = float(fit.alpha.sum())
    acc = np.zeros((len(pts), k))
    for state, w in zip(fit.states, fit.weights):
        leaf_ids = route_points(state, pts)
        table = np.zeros((len(state.subsets), k))
        for sid in state.leaves:
            c = state.subsets[sid].counts
            table[sid] = (fit.alpha + c) / (alpha_sum + c.sum())
        acc += w * table[leaf_ids]
    return acc


def predict(fit: FitResult, points) -> np.ndarray:
    """Hard labels: argmax of predict_proba, first label winning ties."""
    proba = predict_proba(fit, points)
    return fit.label_values[np.argmax(proba, axis=1)]


def best_particle(fit: FitResult) -> int:
    """Index of the highest-weight particle (first one on ties)."""
    return int(np.argmax(fit.weights))


# ---- model files ----


def _budget_to_json(budget: float):
    return "inf" if math.isinf(budget) else float(budget)


def _budget_from_json(value) -> float:
    return math.inf if value == "inf" else float(value)


def model_to_dict(fit: FitResult) -> dict:
    """JSON-ready dict: per particle its weight, cut list and leaf blocks.

    Deliberately excludes n_workers: the file must be identical however the
    fit was scheduled.
    """
    cfg = fit.config
    cfg_d = None
    if cfg is not None:
        cfg_d = {
            "n_particles": cfg.n_particles,
            "budget": _budget_to_json(cfg.budget),
            "max_cuts": cfg.max_cuts,
            "ess_threshold": cfg.ess_threshold,
            "seed": cfg.seed,
        }
    particles = []
    for state, lw, w in zip(fit.states, fit.log_weights, fit.weights):
        leaves = []
        for sub in state.leaf_subsets():
            path = [[int(cid), "above" if above else "below"] for cid, above in sub.constraint_path]
            leaves.append({"path": path, "counts": [int(c) for c in sub.counts]})
        particles.append(
            {
                "log_weight": float(lw),
                "weight": float(w),
                "elapsed": float(state.elapsed),
                "cuts": [cut_to_dict(c) for c in state.cuts],
                "leaves": leaves,
            }
        )
    return {
        "format": "smsp-model",
        "version": 1,
        "label_values": [int(v) for v in fit.label_values],
        "alpha": [float(a) for a in fit.alpha],
        "config": cfg_d,
        "particles": particles,
    }


def _rebuild_state(label_values, cuts, leaf_entries, elapsed) -> PartitionState:
    state = PartitionState(label_values=label_values, xy=None, codes=None)
    state.cuts = cuts
    state.elapsed = elapsed

    def rec(entries, path):
        sub = Subset(
            id=len(state.subsets),
            constraint_path=path,
            members=None,
            counts=None,
            center=None,
            radius=0.0,
            paused=True,
        )
        state.subsets.append(sub)
        if len(entries) == 1 and not entries[0][0]:
            sub.counts = entries[0][1]
            state.leaves.append(sub.id)
            return sub
        heads = {e[0][0] for e in entries}
        cids = {h[0] for h in heads}
        if len(cids) != 1 or any(not e[0] for e in entries):
            raise ValueError("inconsistent leaf paths in model file")
        cid = cids.pop()
        below = [(e[0][1:], e[1]) for e in entries if e[0][0] == (cid, False)]
        above = [(e[0][1:], e[1]) for e in entries if e[0][0] == (cid, True)]
        if not below or not above:
            raise ValueError("every cut in a model must have leaves on both sides")
        b = rec(below, path + ((cid, False),))
        a = rec(above, path + ((cid, True),))
        state.splits[sub.id] = (cid, b.id, a.id)
        sub.counts = b.counts + a.counts
        return sub

    rec(leaf_entries, ())
    return state


def model_from_dict(d: dict) -> FitResult:
    """Fit from a ``model_to_dict`` dict.

    Raises ValueError when ``d`` is not a model, and InputFormatError (a
    ValueError) when a model lacks a field or holds a malformed one.
    """
    if not isinstance(d, dict) or d.get("format") != "smsp-model":
        raise ValueError("not a model file")
    missing = [key for key in ("label_values", "alpha", "particles") if key not in d]
    if missing:
        raise InputFormatError(f"model file lacks {', '.join(missing)}")
    try:
        label_values = np.asarray(d["label_values"])
        alpha = np.asarray(d["alpha"], dtype=float)
        cfg = None
        if d.get("config"):
            c = d["config"]
            cfg = SMCConfig(
                n_particles=int(c["n_particles"]),
                budget=_budget_from_json(c["budget"]),
                max_cuts=c.get("max_cuts"),
                ess_threshold=float(c.get("ess_threshold", 0.5)),
                seed=int(c.get("seed", 0)),
            )
        states = []
        log_w = []
        for part in d["particles"]:
            cuts = [cut_from_dict(c) for c in part["cuts"]]
            entries = []
            for leaf in part["leaves"]:
                path = tuple((int(cid), side == "above") for cid, side in leaf["path"])
                entries.append((path, np.asarray(leaf["counts"], dtype=np.int64)))
            states.append(_rebuild_state(label_values, cuts, entries, float(part["elapsed"])))
            log_w.append(float(part["log_weight"]))
        return FitResult(
            states=states,
            log_weights=np.asarray(log_w),
            alpha=alpha,
            label_values=label_values,
            config=cfg,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed model file: {type(exc).__name__}: {exc}") from exc


def save_model(fit: FitResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(fit), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_model(path) -> FitResult:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except ValueError as exc:
            raise InputFormatError(f"{path} is not JSON: {exc}") from exc
    return model_from_dict(d)
