"""Command-line interface. Every run writes a JSON manifest recording the
command line, seed, configuration, git revision, wall time, and SHA-256 digests
of all produced files.

Exit codes: 0 success, 2 usage error, 3 file/parse error (including a model
file with a missing or malformed field), 4 numerical error or a JSON file that
is not a model.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from .cutgen import CutFailureError, CutGenConfig
from .data import (
    InputFormatError,
    LabeledPoints,
    ingest_pgm,
    knn_max_dist,
    load_points_csv,
    make_yinyang,
    save_points_csv,
    train_test_split,
    write_pgm,
)
from .evaluation import metrics, timing_report, uniformity_experiment
from .geometry import DegenerateInputError, InvalidCurveError
from .inference import (
    SMCConfig,
    best_particle,
    load_model,
    predict,
    save_model,
    smc_fit,
)
from .shape import extract_shape


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _git_describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, np.generic):
        return value.item()
    return value


def _ensure_parent(path) -> None:
    parent = os.path.dirname(str(path))
    if parent:
        os.makedirs(parent, exist_ok=True)


def _dump_json(obj, path) -> None:
    _ensure_parent(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_safe(obj), fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_manifest(argv, args, result, wall: float) -> str:
    mpath = getattr(args, "manifest", None) or result["manifest_default"]
    skip = {"func", "manifest"}
    config = {k: _json_safe(v) for k, v in vars(args).items() if k not in skip}
    manifest = {
        "command": ["smsp"] + list(argv),
        "seed": getattr(args, "seed", None),
        "config": config,
        "git": _git_describe(),
        "wall_time_s": wall,
        "outputs": {p: _sha256(p) for p in result["outputs"]},
    }
    _dump_json(manifest, mpath)
    return mpath


def _parse_budget(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    val = float(text)
    if val <= 0.0:
        raise ValueError("budget must be positive")
    return val


def _order_weights(order: str):
    table = {
        "mixed": (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
        "1": (1.0, 0.0, 0.0),
        "2": (0.0, 1.0, 0.0),
        "3": (0.0, 0.0, 1.0),
    }
    return table[order]


def _cut_config(args) -> CutGenConfig:
    kwargs = {"order_weights": _order_weights(args.order)}
    if getattr(args, "max_rejections", None):
        kwargs["max_rejections"] = args.max_rejections
    if getattr(args, "box", None):
        a, b, c, d = args.box
        kwargs.update(a=a, b=b, c=c, d=d)
    return CutGenConfig(**kwargs)


def _resolve_workers(args) -> int:
    if args.workers is not None:
        return args.workers
    return int(os.environ.get("SMSP_WORKERS", "1"))


def _load_input(path: str, args) -> LabeledPoints:
    if path.endswith(".pgm"):
        grid = ingest_pgm(
            path,
            downscale=getattr(args, "downscale", None),
            threshold=getattr(args, "threshold", 128),
        )
        return grid.to_points()
    return load_points_csv(path)


def _smc_config(args) -> SMCConfig:
    return SMCConfig(
        n_particles=args.particles,
        budget=args.budget,
        max_cuts=args.cuts,
        ess_threshold=args.ess_threshold,
        n_workers=_resolve_workers(args),
        seed=args.seed,
    )


# ---- subcommands ----


def cmd_simulate_yinyang(args):
    os.makedirs(args.out_dir, exist_ok=True)
    data = make_yinyang(args.n, args.seed)
    train, test = train_test_split(data, args.train_fraction, args.seed)
    paths = {
        "full": os.path.join(args.out_dir, "full.csv"),
        "train": os.path.join(args.out_dir, "train.csv"),
        "test": os.path.join(args.out_dir, "test.csv"),
    }
    save_points_csv(data, paths["full"])
    save_points_csv(train, paths["train"])
    save_points_csv(test, paths["test"])
    return {
        "outputs": list(paths.values()),
        "manifest_default": os.path.join(args.out_dir, "manifest.json"),
    }


def cmd_fit(args):
    data = _load_input(args.input, args)
    alpha = None
    if args.alpha != "auto":
        alpha = np.array([float(tok) for tok in args.alpha.split(",")])
    fit = smc_fit(data, _smc_config(args), cut_cfg=_cut_config(args), alpha=alpha)
    _ensure_parent(args.out)
    save_model(fit, args.out)
    return {"outputs": [args.out], "manifest_default": args.out + ".manifest.json"}


def cmd_predict(args):
    fit = load_model(args.model)
    _ensure_parent(args.out)
    if args.input.endswith(".pgm"):
        grid = ingest_pgm(args.input, downscale=args.downscale, threshold=args.threshold)
        labels = predict(fit, grid.pixel_centers())
        out_grid = grid.with_labels(labels)
        if args.out.endswith(".pgm"):
            write_pgm(args.out, out_grid.to_image())
        else:
            save_points_csv(out_grid.to_points(), args.out)
    else:
        data = load_points_csv(args.input)
        labels = predict(fit, data.xy)
        save_points_csv(LabeledPoints(data.xy, labels), args.out)
    return {"outputs": [args.out], "manifest_default": args.out + ".manifest.json"}


def cmd_metrics(args):
    if len(args.pred) != len(args.truth):
        raise ValueError("need as many --pred files as --truth files")
    per_image = []
    reports = []
    for p, t in zip(args.pred, args.truth):
        rep = metrics(ingest_pgm(p), ingest_pgm(t))
        reports.append(rep)
        entry = {"pred": p, "truth": t}
        entry.update(rep.to_dict())
        per_image.append(entry)
    summary = {}
    for key in ("mse", "jsc", "ssim", "pct_correct"):
        summary[key] = float(np.mean([getattr(r, key) for r in reports]))
    psnrs = [r.psnr for r in reports]
    summary["psnr"] = None if any(math.isinf(v) for v in psnrs) else float(np.mean(psnrs))
    summary["psnr_infinite"] = all(math.isinf(v) for v in psnrs)
    _dump_json({"per_image": per_image, "mean": summary}, args.out)
    return {"outputs": [args.out], "manifest_default": args.out + ".manifest.json"}


def _budget_tag(budget: float) -> str:
    if math.isinf(budget):
        return "inf"
    if budget == int(budget):
        return str(int(budget))
    return str(budget).replace(".", "p")


def _write_boundary_csv(path, segments) -> None:
    _ensure_parent(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("cut,segment,vertex,x,y,interior\n")
        for si, seg in enumerate(segments):
            for vi, (x, y) in enumerate(seg.points):
                fh.write(f"{seg.cut_id},{si},{vi},{float(x)!r},{float(y)!r},{int(seg.interior)}\n")


def cmd_shape(args):
    _ensure_parent(args.out_prefix + "_")
    data = _load_input(args.input, args)
    if args.max_dist is not None:
        max_dist = args.max_dist
    elif args.input.endswith(".pgm"):
        grid = ingest_pgm(args.input, downscale=args.downscale, threshold=args.threshold)
        max_dist = knn_max_dist(grid.width, grid.height)
    else:
        raise ValueError("--max-dist is required for CSV inputs")
    outputs = []
    rows = []
    for budget in args.budgets:
        cfg = SMCConfig(
            n_particles=args.particles,
            budget=budget,
            max_cuts=args.cuts,
            ess_threshold=args.ess_threshold,
            n_workers=_resolve_workers(args),
            seed=args.seed,
        )
        fit = smc_fit(data, cfg, cut_cfg=_cut_config(args))
        state = fit.states[best_particle(fit)]
        shape = extract_shape(
            state,
            data,
            points_per_cut=args.points_per_cut,
            k=args.knn,
            max_dist=max_dist,
            budget=budget,
        )
        csv_path = f"{args.out_prefix}_tau{_budget_tag(budget)}.csv"
        _write_boundary_csv(csv_path, shape.segments)
        outputs.append(csv_path)
        if args.save_models:
            model_path = f"{args.out_prefix}_tau{_budget_tag(budget)}.model.json"
            save_model(fit, model_path)
            outputs.append(model_path)
        rows.append(
            {
                "budget": budget,
                "perimeter": shape.perimeter,
                "normalized_perimeter": shape.normalized_perimeter,
                "segments": len(shape.segments),
                "exterior_segments": len(shape.exterior_segments),
                "cuts": len(state.cuts),
                "boundary_csv": csv_path,
            }
        )
    summary_path = f"{args.out_prefix}_perimeters.json"
    _dump_json({"budgets": rows}, summary_path)
    outputs.append(summary_path)
    return {"outputs": outputs, "manifest_default": f"{args.out_prefix}_manifest.json"}


def cmd_invariance(args):
    arms = ["cuts", "uniform"] if args.arm == "both" else [args.arm]
    cut_cfg = None
    if args.box:
        a, b, c, d = args.box
        cut_cfg = CutGenConfig(a=a, b=b, c=c, d=d)
    payload = {}
    for arm in arms:
        res = uniformity_experiment(
            n_curves=args.curves,
            n_replicates=args.replicates,
            grid_g=args.grid,
            seed=args.seed,
            source=arm,
            cloud_side=args.cloud_side,
            cut_cfg=cut_cfg if arm == "cuts" else None,
            alpha_level=args.alpha_level,
        )
        payload[arm] = {
            "fraction_above": res.fraction_above,
            "alpha_level": res.alpha_level,
            "replicates": args.replicates,
            "curves": args.curves,
            "pvalues": [float(p) for p in res.pvalues],
        }
    _dump_json(payload, args.out)
    return {"outputs": [args.out], "manifest_default": args.out + ".manifest.json"}


def cmd_timing(args):
    data = _load_input(args.input, args)
    rows = timing_report(
        data,
        particle_counts=args.particles,
        worker_counts=args.workers,
        budget=args.budget,
        max_cuts=args.cuts,
        seed=args.seed,
    )
    _ensure_parent(args.out)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("particles,workers,seconds,rounds,resamples\n")
        for row in rows:
            fh.write(
                f"{row['particles']},{row['workers']},{row['seconds']!r},"
                f"{row['rounds']},{row['resamples']}\n"
            )
    return {"outputs": [args.out], "manifest_default": args.out + ".manifest.json"}


# ---- parser ----


def _int_list(text: str):
    return [int(tok) for tok in text.split(",") if tok]


def _budget_list(text: str):
    return [_parse_budget(tok) for tok in text.split(",") if tok]


def _add_common_fit_flags(sp, with_order: bool = True):
    sp.add_argument("--particles", type=int, default=200, help="number of SMC particles")
    sp.add_argument("--budget", type=_parse_budget, default=math.inf,
                    help="process time budget (a float, or 'inf' to run to extinction)")
    sp.add_argument("--cuts", type=int, default=None,
                    help="stop each particle after this many accepted cuts")
    sp.add_argument("--ess-threshold", type=float, default=0.5, dest="ess_threshold",
                    help="resample when ESS falls below this fraction of the particle count")
    sp.add_argument("--workers", type=int, default=None,
                    help="worker processes (default: SMSP_WORKERS env var, else 1)")
    sp.add_argument("--seed", type=int, default=0)
    if with_order:
        sp.add_argument("--order", choices=["mixed", "1", "2", "3"], default="mixed",
                        help="curve order: fixed 1/2/3 or uniform over all three")
        sp.add_argument("--box", type=float, nargs=4, metavar=("A", "B", "C", "D"),
                        default=None, help="explicit control-point box (default: subset radius)")
        sp.add_argument("--max-rejections", type=int, default=None, dest="max_rejections")


def _add_image_flags(sp):
    sp.add_argument("--downscale", type=float, default=None,
                    help="nearest-neighbor downscale fraction for PGM inputs")
    sp.add_argument("--threshold", type=int, default=128,
                    help="binarization threshold: darker pixels become foreground")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smsp",
        description="Random spline partitions of labeled planar data: "
        "simulate, fit, predict, measure, extract shapes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate-yinyang", help="generate the two-class yin-yang dataset")
    sp.add_argument("--n", type=int, default=10000, help="raw draws before disk rejection")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--train-fraction", type=float, default=0.6, dest="train_fraction")
    sp.add_argument("--out-dir", required=True, dest="out_dir")
    sp.add_argument("--manifest", default=None)
    sp.set_defaults(func=cmd_simulate_yinyang)

    sp = sub.add_parser("fit", help="fit the partition posterior to labeled points")
    sp.add_argument("--input", required=True, help="points CSV or PGM image")
    sp.add_argument("--out", required=True, help="model JSON path")
    sp.add_argument("--alpha", default="auto",
                    help="comma-separated Dirichlet pseudo-counts, or 'auto' (= counts/1000)")
    _add_common_fit_flags(sp)
    _add_image_flags(sp)
    sp.add_argument("--manifest", default=None)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("predict", help="label points or pixels with a fitted model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--input", required=True, help="points CSV or PGM image")
    sp.add_argument("--out", required=True, help="CSV, or PGM for image inputs")
    _add_image_flags(sp)
    sp.add_argument("--manifest", default=None)
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("metrics", help="compare predicted label images against truth")
    sp.add_argument("--pred", nargs="+", required=True)
    sp.add_argument("--truth", nargs="+", required=True)
    sp.add_argument("--out", required=True, help="metrics JSON path")
    sp.add_argument("--manifest", default=None)
    sp.set_defaults(func=cmd_metrics)

    sp = sub.add_parser("shape", help="fit at one or more budgets and extract boundaries")
    sp.add_argument("--input", required=True, help="points CSV or PGM image")
    sp.add_argument("--budgets", type=_budget_list, default=[math.inf],
                    help="comma-separated budgets, e.g. 10,50,100,200 or inf")
    sp.add_argument("--points-per-cut", type=int, default=100, dest="points_per_cut")
    sp.add_argument("--knn", type=int, default=10,
                    help="neighbors per side for interior marking")
    sp.add_argument("--max-dist", type=float, default=None, dest="max_dist",
                    help="neighbor search radius (default: pixel diagonal for PGM inputs)")
    sp.add_argument("--out-prefix", required=True, dest="out_prefix")
    sp.add_argument("--save-models", action="store_true", dest="save_models")
    _add_common_fit_flags(sp)
    _add_image_flags(sp)
    sp.add_argument("--manifest", default=None)
    sp.set_defaults(func=cmd_shape)

    sp = sub.add_parser("invariance", help="spatial-uniformity experiment for cut points")
    sp.add_argument("--replicates", type=int, default=100)
    sp.add_argument("--curves", type=int, default=5000)
    sp.add_argument("--grid", type=int, default=10)
    sp.add_argument("--cloud-side", type=int, default=61, dest="cloud_side")
    sp.add_argument("--alpha-level", type=float, default=0.05, dest="alpha_level")
    sp.add_argument("--arm", choices=["both", "cuts", "uniform"], default="both")
    sp.add_argument("--box", type=float, nargs=4, metavar=("A", "B", "C", "D"), default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--manifest", default=None)
    sp.set_defaults(func=cmd_invariance)

    sp = sub.add_parser("timing", help="wall-clock grid over particle and worker counts")
    sp.add_argument("--input", required=True)
    sp.add_argument("--particles", type=_int_list, default=[100, 200])
    sp.add_argument("--workers", type=_int_list, default=[1])
    sp.add_argument("--budget", type=_parse_budget, default=math.inf)
    sp.add_argument("--cuts", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="timing CSV path")
    _add_image_flags(sp)
    sp.add_argument("--manifest", default=None)
    sp.set_defaults(func=cmd_timing)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        result = args.func(args)
    except (InputFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidCurveError, DegenerateInputError, CutFailureError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    _write_manifest(argv, args, result, time.perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
