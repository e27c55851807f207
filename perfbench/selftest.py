"""Self-test of the benchmark: every workload once at reduced size, then each
output check shown to reject a corrupted output.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Exits 0 when every reduced round passes its checks and every corruption is
rejected, 1 otherwise. Takes about ten seconds on two cores.
"""

import json
import os
import shutil
import sys
import tempfile

import run  # sets single-threaded numerics and puts the checkout's src/ on sys.path

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from smsp.inference import load_model, predict, predict_proba, save_model  # noqa: E402


def _change_alpha_byte(blob: bytes) -> bytes:
    """Change the first digit of the first alpha entry: one byte, and every prediction moves."""
    pos = blob.index(b'"alpha":[') + len(b'"alpha":[')
    out = bytearray(blob)
    out[pos] = ord("3") if out[pos] != ord("3") else ord("4")
    return bytes(out)


def corruptions(bench, workdir):
    """[(description, passes on clean output, passes on corrupted output)]."""
    fit = bench.last["fit1"]
    inp = bench.inputs
    rows = []

    # (a) one leaf count changed
    sub = fit.states[0].subsets[fit.states[0].leaves[0]]
    clean = checks.counts_conserved(fit, inp.train)
    orig = sub.counts
    sub.counts = orig.copy()
    sub.counts[0] += 1
    rows.append(("(a) count conservation, one leaf count +1", clean, checks.counts_conserved(fit, inp.train)))
    sub.counts = orig

    # (b) and (c) one probability changed
    proba = predict_proba(fit, inp.query)
    bad = proba.copy()
    bad[0, 0] += 1e-9
    rows.append(("(b) rows are distributions, one probability +1e-9", checks.rows_are_distributions(proba), checks.rows_are_distributions(bad)))
    path = os.path.join(workdir, "selftest.json")
    save_model(fit, path)
    with open(path, "rb") as fh:
        blob = fh.read()
    model = json.loads(blob)
    sample = inp.query[bench.sample_idx]
    sp = predict_proba(fit, sample)
    _, usable, _ = checks.reference_proba(model, sample)
    i = int(np.argmax(usable))
    bad = sp.copy()
    bad[i, 0] += 1e-9  # row sum moves too, but (c) must see it on its own
    rows.append(("(c) reference recomputation, one probability +1e-9", checks.matches_reference(model, sample, sp), checks.matches_reference(model, sample, bad)))

    # (d) and (e) one model byte changed
    corrupt = _change_alpha_byte(blob)
    again = os.path.join(workdir, "selftest-again.json")
    save_model(fit, again)
    with open(again, "rb") as fh:
        rows.append(("(d) byte-identical model files, one byte changed", fh.read() == blob, blob == corrupt))
    with open(path, "wb") as fh:
        fh.write(corrupt)
    reloaded_bad = predict_proba(load_model(path), sample)
    with open(path, "wb") as fh:
        fh.write(blob)
    reloaded = predict_proba(load_model(path), sample)
    rows.append(("(e) load round trip, one model byte changed", np.array_equal(reloaded, sp), np.array_equal(reloaded_bad, sp)))

    labels = predict(fit, inp.query)
    shape = bench.last["shape"]
    if bench.wl.source == "disk":
        # (f) one pixel flipped; boundary pushed off the circle
        flipped = labels.copy()
        flipped[0] = 3 - flipped[0]
        rows.append(("(f) pixels reproduced, one pixel flipped", checks.pixels_reproduced(labels, inp.truth), checks.pixels_reproduced(flipped, inp.truth)))
        clean = checks.boundary_near_circle(shape, inp.shift, workloads.DISK_SIDE, workloads.DISK_RADIUS)
        saved = [s.points for s in shape.segments]
        for s in shape.segments:
            s.points = inp.shift + (s.points - inp.shift) * 1.5
        pushed = checks.boundary_near_circle(shape, inp.shift, workloads.DISK_SIDE, workloads.DISK_RADIUS)
        for s, p in zip(shape.segments, saved):
            s.points = p
        rows.append(("(f) boundary near circle, boundary scaled by 1.5", clean, pushed))
    else:
        # (g) two fifths of the labels swapped
        swapped = labels.copy()
        swapped[::5] = 3 - swapped[::5]
        swapped[1::5] = 3 - swapped[1::5]
        rows.append(("(g) accuracy >= 0.87, two fifths of labels swapped", checks.accurate(labels, inp.truth), checks.accurate(swapped, inp.truth)))

    # shape vertices off their curve
    seg = shape.segments[0]
    clean = checks.segments_on_cuts(shape)
    orig = seg.points
    seg.points = orig.copy()
    seg.points[0, 0] += 1e-6
    rows.append(("segments on cuts, one vertex moved 1e-6", clean, checks.segments_on_cuts(shape)))
    seg.points = orig
    return rows


def main() -> int:
    ok = True
    run.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        for name, wl in workloads.WORKLOADS.items():
            bench = run.Bench(wl, 0, workdir, small=True)
            timings, oks = bench.round(run.TRACE_BATCH)
            good = all(oks)
            ok = ok and good
            print(f"[{name}] reduced round: {len(oks)} operations, {oks.count(False)} failed, "
                  f"fit_w1 {timings['fit_w1'][0]:.2f}s fit_w2 {timings['fit_w2'][0]:.2f}s -> {'PASS' if good else 'FAIL'}")
            for desc, clean, corrupt in corruptions(bench, workdir):
                good = clean and not corrupt
                ok = ok and good
                print(f"[{name}] {desc}: clean {'passes' if clean else 'FAILS'}, "
                      f"corrupted {'rejected' if not corrupt else 'ACCEPTED'} -> {'PASS' if good else 'FAIL'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
