"""End-to-end benchmark of smsp: fit at 1 and 2 workers, predict, model files, shape.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload yinyang-onecut --seed 1 --seconds 40 --trace 0

Workloads: yinyang-onecut, yinyang-budget, disk-exact (see workloads.py and
README.md). A run builds the inputs from the seed, then repeats whole rounds
(fit at 1 worker, fit at 2 workers, a batch of predicts, saves, loads and
shape extractions) until the next round would end after ``--seconds``, and
reports the fastest fit and the median of every other kind of call. Every
output is checked (checks.py); an operation whose check fails counts as
failed. ``--trace 1`` runs traced
passes instead and reports per-layer metrics; its spans are written to
``perfbench/out/``. The last line of standard output is one JSON object.
"""

import os

# numerical libraries stay single-threaded, in this process and its children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import benchpath  # noqa: E402

benchpath.use_checkout_src()

import numpy as np  # noqa: E402

from smsp.inference import (  # noqa: E402
    SMCConfig,
    best_particle,
    load_model,
    predict,
    predict_proba,
    save_model,
    smc_fit,
)
from smsp.shape import extract_shape  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPEATS = 3
SAMPLE_POINTS = 128  # query points given to the reference check (c) and to (e)
TRACE_BATCH = (1, 2, 1)  # predicts, saves (= loads), shapes in one traced pass
COMPUTE_OPS = ("fit_w1", "predict", "save", "load", "shape")


def timed(fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - t0


def collected(fn, *args, **kwargs):
    """``timed`` after a full garbage collection, so no call pays for the
    garbage of the calls before it; without it, save and load times of
    identical calls vary by 2x with where the collector's cycle falls."""
    gc.collect()
    return timed(fn, *args, **kwargs)


class Bench:
    """One workload's inputs plus the checked outputs of its first round."""

    def __init__(self, wl, seed, workdir, small=False):
        self.wl = wl
        self.inputs = workloads.build_inputs(wl, seed, workdir, small)
        self.fit_kwargs = workloads.SMALL_FIT[wl.name] if small else wl.fit
        self.workdir = workdir
        self.files = itertools.count()
        n = len(self.inputs.query)
        rng = np.random.default_rng(seed)
        self.sample_idx = np.sort(rng.choice(n, size=min(SAMPLE_POINTS, n), replace=False))
        self.ref_bytes = None  # model file of the first round, once it passed every check
        self.ref_labels = None
        self.last = None  # outputs of the latest round, for the self-test and the trace

    def config(self, workers):
        return SMCConfig(n_workers=workers, seed=self.inputs.fit_seed, **self.fit_kwargs)

    def round(self, batch, op=lambda name: contextlib.nullcontext()):
        """One round of operations; returns ({op: [seconds per call]}, ok flags per call).

        ``batch`` is (predict calls, save calls, shape calls); there are as
        many loads as saves, and saves alternate between the two fits.
        """
        n_predict, n_io, n_shape = batch
        inp = self.inputs
        self.last = None  # let the previous round's fits go before new ones are made
        with op("fit_w1"):
            fit1, t_fit1 = collected(smc_fit, inp.train, self.config(1))
        with op("fit_w2"):
            fit2, t_fit2 = collected(smc_fit, inp.train, self.config(2))

        t_pred, labels = [], []
        for _ in range(n_predict):
            with op("predict"):
                lab, dt = collected(predict, fit1, inp.query)
            t_pred.append(dt)
            labels.append(lab)

        # every save writes a new file: overwriting one in place made identical
        # saves vary by 3x with the file system's handling of the old pages
        t_save, saved = [], []
        for i in range(n_io):
            path = os.path.join(self.workdir, f"model-{next(self.files)}.json")
            with op("save"):
                _, dt = collected(save_model, (fit1, fit2)[i % 2], path)
            t_save.append(dt)
            with open(path, "rb") as fh:
                saved.append(fh.read())
            if i == 0:
                model_path = path  # the 1-worker fit's file, read back by the loads
            else:
                os.remove(path)

        sample = inp.query[self.sample_idx]
        sample_proba = predict_proba(fit1, sample)  # untimed, for the checks
        t_load, load_ok = [], []
        for _ in range(n_io):
            with op("load"):
                m, dt = collected(load_model, model_path)
            t_load.append(dt)
            load_ok.append(np.array_equal(predict_proba(m, sample), sample_proba))  # (e)
            del m
        os.remove(model_path)

        best = fit1.states[best_particle(fit1)]
        t_shape, shapes = [], []
        for _ in range(n_shape):
            with op("shape"):
                shp, dt = timed(extract_shape, best, inp.train, k=10, max_dist=inp.max_dist)
            t_shape.append(dt)
            shapes.append(shp)

        # ---- checks (untimed) ----
        b1 = saved[0]
        first = self.ref_bytes is None
        if first:
            proba = predict_proba(fit1, inp.query)
            fit1_ok = checks.counts_conserved(fit1, inp.train)
            expect = fit1.label_values[np.argmax(proba, axis=1)]
            proba_ok = (
                checks.rows_are_distributions(proba)
                and np.array_equal(proba[self.sample_idx], sample_proba)
                and checks.matches_reference(json.loads(b1), sample, sample_proba)
            )
        else:
            fit1_ok = b1 == self.ref_bytes
            expect = self.ref_labels
            proba_ok = True
        quality = checks.pixels_reproduced if self.wl.source == "disk" else checks.accurate
        pred_ok = [proba_ok and np.array_equal(lab, expect) and quality(lab, inp.truth) for lab in labels]
        same_files = saved[0] == saved[1]  # (d)
        save_ok = [same_files and b == b1 for b in saved]
        shape_ok = []
        for shp in shapes:
            ok = checks.segments_on_cuts(shp)
            if self.wl.source == "disk":
                ok = ok and checks.boundary_near_circle(shp, inp.shift, workloads.DISK_SIDE, workloads.DISK_RADIUS)
            shape_ok.append(ok)
        oks = [fit1_ok, same_files, *pred_ok, *save_ok, *load_ok, *shape_ok]
        if first and all(oks):
            self.ref_bytes = b1
            self.ref_labels = labels[0]
        self.last = {"fit1": fit1, "fit2": fit2, "model_bytes": len(b1), "shape": shapes[0]}
        timings = {
            "fit_w1": [t_fit1],
            "fit_w2": [t_fit2],
            "predict": t_pred,
            "save": t_save,
            "load": t_load,
            "shape": t_shape,
        }
        return timings, oks


def rounds_until(seconds, one_round):
    """Run whole rounds until the next one would end after ``seconds``."""
    start = perf_counter()
    results = []
    while True:
        r0 = perf_counter()
        results.append(one_round())
        took = perf_counter() - r0
        if perf_counter() - start + took > seconds:
            return results


def measure_setup(wl, seed, workdir) -> float:
    """Median over fresh interpreters of importing smsp and building the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), wl.name, str(seed), workdir],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


UNITS = {
    "setup_s": "s",
    "fit_w1_s": "s",
    "fit_w2_s": "s",
    "predict_pts_per_s": "points/s",
    "save_s": "s",
    "load_s": "s",
    "shape_s": "s",
    "model_bytes": "bytes",
    "peak_rss_mb": "MB",
}


def timed_run(bench, seconds, setup_s):
    wl = bench.wl
    results = rounds_until(seconds, lambda: bench.round((wl.predict_calls, wl.io_calls, wl.shape_calls)))
    calls = {name: [t for timings, _ in results for t in timings[name]] for name in results[0][0]}
    med = {name: statistics.median(ts) for name, ts in calls.items()}
    values = {
        "setup_s": setup_s,
        "fit_w1_s": min(calls["fit_w1"]),
        "fit_w2_s": min(calls["fit_w2"]),
        "predict_pts_per_s": len(bench.inputs.query) / med["predict"],
        "save_s": med["save"],
        "load_s": med["load"],
        "shape_s": med["shape"],
        "model_bytes": bench.last["model_bytes"],
        "peak_rss_mb": peak_rss_mb(),
    }
    oks = [ok for _, round_oks in results for ok in round_oks]
    note = f"{len(results)} rounds; per round fit_w1/fit_w2 s: " + ", ".join(
        f"{t['fit_w1'][0]:.3f}/{t['fit_w2'][0]:.3f}" for t, _ in results
    )
    return {
        "correct": all(oks),
        "attempted": len(oks),
        "failed": oks.count(False),
        "metrics": {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS},
    }, note


def traced_run(bench, seconds, trace_path, workdir, seed):
    tracer = tracing.Tracer()

    def op(name):
        return tracer.operation(name, tracing.PARALLEL if name == "fit_w2" else tracing.COMPUTE)

    extra = {"inputs": [], "fit_w1": [], "fit_w2": [], "fit_w1_traced": []}

    def one_pass():
        extra["inputs"].append(timed(workloads.build_inputs, bench.wl, seed, workdir)[1])
        extra["fit_w1"].append(collected(smc_fit, bench.inputs.train, bench.config(1))[1])
        extra["fit_w2"].append(collected(smc_fit, bench.inputs.train, bench.config(2))[1])
        timings, oks = bench.round(TRACE_BATCH, op)
        extra["fit_w1_traced"].append(timings["fit_w1"][0])
        return oks

    results = rounds_until(seconds, one_pass)
    tracer.dump(trace_path)
    oks = [ok for r in results for ok in r]
    values = layer_metrics(tracer, bench.last, len(results), extra)
    return {
        "correct": all(oks),
        "attempted": len(oks),
        "failed": oks.count(False),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()},
    }, f"traced passes: {len(results)}; spans in {trace_path}"


def layer_metrics(tracer, last, passes, extra):
    """Per-layer metrics, per traced pass, from the spans and counters."""
    spans = tracer.self_times()

    def span(name, field, ops=COMPUTE_OPS):
        return sum(spans[(o, name)][field] for o in ops if (o, name) in spans) / passes

    def count(key, ops=COMPUTE_OPS):
        return sum(tracer.counts.get((o, key), 0.0) for o in ops) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    calls, total, self_s = 0, 1, 2
    fit1 = last["fit1"]
    fit2 = last["fit2"]
    circles_w1 = span("geometry.smallest_enclosing_circle", calls, ("fit_w1",))
    accepted_w1 = count("cutgen.accepted", ("fit_w1",))
    keys = {
        (float(c.theta), float(c.offset), c.curve.controls.tobytes()) for st in fit1.states for c in st.cuts
    }
    cut_refs = sum(len(st.cuts) for st in fit1.states)
    w1 = statistics.median(extra["fit_w1"])
    w1_traced = statistics.median(extra["fit_w1_traced"])
    return {
        "geometry.smallest_enclosing_circle.calls": (span("geometry.smallest_enclosing_circle", calls), "count"),
        "geometry.smallest_enclosing_circle.self_s": (span("geometry.smallest_enclosing_circle", self_s), "s"),
        "geometry.circles_per_cut": (ratio(circles_w1, accepted_w1), "ratio"),
        "geometry.side_of_cut.calls": (span("geometry.side_of_cut", calls), "count"),
        "geometry.side_of_cut.points": (count("geometry.side_of_cut.points"), "count"),
        "geometry.side_of_cut.self_s": (span("geometry.side_of_cut", self_s), "s"),
        "geometry.bezier_y_at_x.points": (count("geometry.bezier_y_at_x.points"), "count"),
        "geometry.bezier_y_at_x.self_s": (span("geometry.bezier_y_at_x", self_s), "s"),
        "geometry.exact_share": (
            ratio(count("geometry.bezier_y_at_x.points"), count("geometry.side_of_cut.points")),
            "ratio",
        ),
        "cutgen.proposals": (count("cutgen.proposals"), "count"),
        "cutgen.accepted": (count("cutgen.accepted"), "count"),
        "cutgen.accept_share": (ratio(count("cutgen.accepted"), count("cutgen.proposals")), "ratio"),
        "cutgen.sample_cut_masked.self_s": (span("cutgen.sample_cut_masked", self_s), "s"),
        "partition.advance.calls": (span("partition.advance", calls), "count"),
        "partition.advance.self_s": (span("partition.advance", self_s), "s"),
        "partition.events.cut": (count("partition.events.cut"), "count"),
        "partition.events.cut_failed": (count("partition.events.cut_failed"), "count"),
        "partition.events.budget": (count("partition.events.budget"), "count"),
        "partition.events.extinct": (count("partition.events.extinct"), "count"),
        "partition.route_points.calls": (span("partition.route_points", calls), "count"),
        "partition.route_points.points": (count("partition.route_points.points"), "count"),
        "partition.route_points.self_s": (span("partition.route_points", self_s), "s"),
        "likelihood.weight_increment.calls": (span("likelihood.weight_increment", calls), "count"),
        "likelihood.weight_increment.self_s": (span("likelihood.weight_increment", self_s), "s"),
        "parallel.rounds": (float(fit2.n_rounds), "count"),
        "parallel.resamples": (float(fit2.n_resamples), "count"),
        "parallel.distinct_ancestors": (
            ratio(count("parallel.distinct_ancestors", ("fit_w2",)), count("parallel.resample_calls", ("fit_w2",))),
            "count",
        ),
        "parallel.clone_state.self_s": (span("parallel.clone_state", self_s, ("fit_w1",)), "s"),
        "parallel.advance_s": (span("parallel.advance", total, ("fit_w2",)), "s"),
        "parallel.resample_s": (span("parallel.resample", total, ("fit_w2",)), "s"),
        "parallel.finalize_s": (span("parallel.finalize", total, ("fit_w2",)), "s"),
        "parallel.ipc_bytes": (count("parallel.ipc_bytes", ("fit_w2",)), "bytes"),
        "parallel.ipc_messages": (count("parallel.ipc_messages", ("fit_w2",)), "count"),
        "parallel.speedup": (ratio(w1, statistics.median(extra["fit_w2"])), "x"),
        "inference.cut_refs": (float(cut_refs), "count"),
        "inference.distinct_cuts": (float(len(keys)), "count"),
        "inference.distinct_cut_share": (ratio(len(keys), cut_refs), "ratio"),
        "inference.predict_proba.self_s": (span("inference.predict_proba", self_s), "s"),
        "inference.model_to_dict_s": (span("inference.model_to_dict", total), "s"),
        "inference.model_from_dict_s": (span("inference.model_from_dict", total), "s"),
        "inference.json_s": (span("inference.json", total), "s"),
        "shape.discretize_cuts.self_s": (span("shape.discretize_cuts", self_s), "s"),
        "shape.mark_interior.self_s": (span("shape.mark_interior", self_s), "s"),
        "shape.segments": (float(len(last["shape"].segments)), "count"),
        "data.inputs_s": (statistics.median(extra["inputs"]), "s"),
        "trace.fit_w1_untraced_s": (w1, "s"),
        "trace.fit_w1_traced_s": (w1_traced, "s"),
        "trace.overhead_s": (w1_traced - w1, "s"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT)
    try:
        if args.trace:
            bench = Bench(wl, args.seed, workdir)
            trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
            result, note = traced_run(bench, args.seconds, trace_path, workdir, args.seed)
        else:
            setup_s = measure_setup(wl, args.seed, workdir)
            bench = Bench(wl, args.seed, workdir)
            result, note = timed_run(bench, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(note)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
