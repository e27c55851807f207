"""Workload definitions: fixed problem instances, moved by the benchmark seed.

Each workload is one fixed problem: the yin-yang instance of the ROADMAP
baseline (data seed 100, split seed 200, SMC seed 300) or the clean disk of
acceptance criterion 5 (SMC seed 5). ``--seed`` draws a translation of the
whole problem, training and query points alike, from
``numpy.random.SeedSequence(seed)``. The sampler's cut proposals live in the
frame of each subset's enclosing circle, so a translated problem does the
same SMC work and gives the same partitions, only in new coordinates. A new
SMC seed would not: across SMC seeds 0-9 the budgeted yin-yang fit ran 12 to
24 rounds and 1.1 to 2.9 s, a spread no run of this length averages out.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from smsp.data import (
    BACKGROUND,
    FOREGROUND,
    ImageGrid,
    LabeledPoints,
    ingest_pgm,
    knn_max_dist,
    make_yinyang,
    train_test_split,
    write_pgm,
)

YINYANG_RAW = 10000
YINYANG_SEEDS = (100, 200, 300)  # data, split, SMC
TRAIN_FRACTION = 0.6
# neighbour radius for interior marking on yin-yang: about twice the mean
# spacing of ~6000 training points in the unit disk
YINYANG_MAX_DIST = 0.05
DISK_SIDE = 32
DISK_RADIUS = 0.25
DISK_FIT_SEED = 5
SHIFT_RANGE = 10.0  # translation components are uniform on [-10, 10]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``fit`` holds the SMCConfig fields other than ``n_workers`` and ``seed``.
    ``predict_calls``, ``io_calls`` and ``shape_calls`` are the calls of
    each kind in one timed round; every call is timed on its own.
    """

    name: str
    source: str  # "yinyang" or "disk"
    fit: dict
    predict_calls: int
    io_calls: int
    shape_calls: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("yinyang-onecut", "yinyang", {"n_particles": 1000, "max_cuts": 1}, 2, 8, 160),
        Workload("yinyang-budget", "yinyang", {"n_particles": 200, "budget": 4.0}, 2, 4, 16),
        Workload("disk-exact", "disk", {"n_particles": 200, "budget": math.inf}, 2, 2, 10),
    )
}

# reduced sizes for the self-test: same code paths, a few seconds per workload
SMALL_FIT = {
    "yinyang-onecut": {"n_particles": 300, "max_cuts": 1},
    "yinyang-budget": {"n_particles": 40, "budget": 4.0},
    "disk-exact": {"n_particles": 30, "budget": math.inf},
}
SMALL_YINYANG_RAW = 4000


@dataclass(eq=False)
class Inputs:
    """What the program receives: training data, query points, their true labels.

    ``shift`` is the translation applied to the problem; the disk's centre.
    """

    train: LabeledPoints
    query: np.ndarray
    truth: np.ndarray
    max_dist: float
    fit_seed: int
    shift: np.ndarray


def shift_for(seed: int) -> np.ndarray:
    """Translation of the whole problem for one benchmark seed."""
    return np.random.default_rng(np.random.SeedSequence(seed)).uniform(-SHIFT_RANGE, SHIFT_RANGE, size=2)


def disk_labels(side: int = DISK_SIDE, radius: float = DISK_RADIUS) -> np.ndarray:
    """Clean disk centred in the unit square, on the pixel-centre embedding."""
    ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    x = (jj + 0.5) / side - 0.5
    y = 0.5 - (ii + 0.5) / side
    return np.where(x * x + y * y < radius * radius, FOREGROUND, BACKGROUND).astype(np.int64)


def build_inputs(wl: Workload, seed: int, workdir, small: bool = False) -> Inputs:
    """Generate the workload's inputs; disk inputs go through a PGM file in ``workdir``."""
    shift = shift_for(seed)
    if wl.source == "yinyang":
        data_seed, split_seed, fit_seed = YINYANG_SEEDS
        data = make_yinyang(SMALL_YINYANG_RAW if small else YINYANG_RAW, data_seed)
        train, test = train_test_split(LabeledPoints(data.xy + shift, data.labels), TRAIN_FRACTION, split_seed)
        return Inputs(train, test.xy, test.labels, YINYANG_MAX_DIST, fit_seed, shift)
    path = os.path.join(workdir, f"disk-{os.getpid()}.pgm")
    write_pgm(path, ImageGrid(disk_labels()).to_image())
    grid = ingest_pgm(path)
    os.remove(path)
    pixels = grid.pixel_centers() + shift
    return Inputs(
        LabeledPoints(pixels, grid.labels.ravel()),
        pixels,
        grid.labels.ravel(),
        knn_max_dist(grid.width, grid.height),
        DISK_FIT_SEED,
        shift,
    )
