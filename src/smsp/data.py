"""Datasets: yin-yang simulator, CSV point files, PGM images, pixel-grid mapping."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class InputFormatError(ValueError):
    """Malformed input file: a points CSV, a PGM image or a model file."""


class PgmParseError(InputFormatError):
    """Malformed PGM input; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(eq=False)
class LabeledPoints:
    """Columnar labeled 2-d point set: ``xy`` (n, 2) float, ``labels`` (n,) int."""

    xy: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.xy = np.asarray(self.xy, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.xy.ndim != 2 or self.xy.shape[1] != 2:
            raise ValueError("xy must be (n, 2)")
        if self.labels.shape != (len(self.xy),):
            raise ValueError("labels must align with xy rows")

    def __len__(self) -> int:
        return len(self.xy)

    def subset(self, idx) -> "LabeledPoints":
        return LabeledPoints(self.xy[idx], self.labels[idx])

    def label_values(self) -> np.ndarray:
        return np.unique(self.labels)


def save_points_csv(data: LabeledPoints, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,label\n")
        for (x, y), lab in zip(data.xy, data.labels):
            fh.write(f"{float(x)!r},{float(y)!r},{int(lab)}\n")


def load_points_csv(path) -> LabeledPoints:
    xs = []
    ys = []
    labs = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "x,y,label":
            raise InputFormatError(f"expected 'x,y,label' header in {path}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                sx, sy, sl = line.split(",")
                xs.append(float(sx))
                ys.append(float(sy))
                labs.append(int(sl))
            except ValueError:
                raise InputFormatError(f"{path} line {lineno}: expected x,y,label numbers, got {line!r}") from None
    if not xs:
        raise InputFormatError(f"no points in {path}")
    return LabeledPoints(np.column_stack((xs, ys)), np.asarray(labs))


def make_yinyang(n_raw: int, seed: int) -> LabeledPoints:
    """Two-class yin-yang pattern on the unit disk.

    ``n_raw`` points are drawn uniformly on [-1, 1]^2 and those outside the
    unit circle are discarded, so the returned count varies with the seed.
    Label 1 covers one interlocking half plus the opposite eye, label 2 the rest.
    """
    if n_raw < 1:
        raise ValueError("n_raw must be positive")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(n_raw, 2))
    keep = pts[:, 0] ** 2 + pts[:, 1] ** 2 < 1.0
    pts = pts[keep]
    x = pts[:, 0]
    y = pts[:, 1]
    d_right = (x - 0.5) ** 2 + y**2
    d_left = (x + 0.5) ** 2 + y**2
    one = (
        (d_right < 0.1**2)
        | ((x > 0.0) & (y < 0.0) & (d_right > 0.25))
        | ((x < 0.0) & (y < 0.0) & (d_left > 0.1**2))
        | ((x < 0.0) & (y > 0.0) & (d_left < 0.25))
    )
    labels = np.where(one, 1, 2)
    return LabeledPoints(pts, labels)


def train_test_split(data: LabeledPoints, train_fraction: float, seed: int):
    """Uniform random split; returns (train, test)."""
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(data))
    n_train = int(round(train_fraction * len(data)))
    n_train = min(max(n_train, 1), len(data) - 1)
    return (
        data.subset(np.sort(perm[:n_train])),
        data.subset(np.sort(perm[n_train:])),
    )


# ---- PGM images ----


def read_pgm(path) -> np.ndarray:
    """Parse a P2 (ASCII) or P5 (binary) PGM file into a (H, W) uint8 array.

    '#' comments are honored in headers. Malformed input raises PgmParseError
    carrying the byte offset of the offending token.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(blob):
            ch = blob[pos : pos + 1]
            if ch == b"#":
                while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                return

    def token():
        nonlocal pos
        skip_ws()
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise PgmParseError("unexpected end of header", start)
        return blob[start:pos], start

    magic, off = token()
    if magic not in (b"P2", b"P5"):
        raise PgmParseError(f"unsupported magic {magic!r}, need P2 or P5", off)

    def int_token(name):
        tok, off = token()
        try:
            val = int(tok)
        except ValueError:
            raise PgmParseError(f"bad {name} {tok!r}", off) from None
        if val <= 0:
            raise PgmParseError(f"{name} must be positive, got {val}", off)
        return val

    width = int_token("width")
    height = int_token("height")
    maxval = int_token("maxval")
    if maxval > 255:
        raise PgmParseError(f"maxval {maxval} above 255 is not supported", pos)
    n = width * height
    if magic == b"P5":
        if pos >= len(blob) or not blob[pos : pos + 1].isspace():
            raise PgmParseError("missing whitespace after maxval", pos)
        pos += 1  # exactly one whitespace byte separates header and raster
        if len(blob) - pos < n:
            raise PgmParseError(f"raster truncated: need {n} bytes, have {len(blob) - pos}", len(blob))
        img = np.frombuffer(blob, dtype=np.uint8, count=n, offset=pos)
    else:
        vals = np.empty(n, dtype=np.uint8)
        for i in range(n):
            tok, off = token()
            try:
                v = int(tok)
            except ValueError:
                raise PgmParseError(f"bad sample {tok!r}", off) from None
            if not (0 <= v <= maxval):
                raise PgmParseError(f"sample {v} outside 0..{maxval}", off)
            vals[i] = v
        img = vals
    out = img.reshape(height, width).copy()
    if magic == b"P5" and out.max(initial=0) > maxval:
        raise PgmParseError(f"raster sample above maxval {maxval}", pos)
    return out


def write_pgm(path, image, maxval: int = 255, binary: bool = True) -> None:
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError("image must be 2-d")
    img = img.astype(np.uint8)
    h, w = img.shape
    if binary:
        with open(path, "wb") as fh:
            fh.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
            fh.write(img.tobytes())
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"P2\n{w} {h}\n{maxval}\n")
            for row in img:
                fh.write(" ".join(str(int(v)) for v in row) + "\n")


def downscale_nn(image, fraction: float) -> np.ndarray:
    """Nearest-neighbor downscale to round(dim * fraction) per side."""
    img = np.asarray(image)
    if not (0.0 < fraction <= 1.0):
        raise ValueError("fraction must be in (0, 1]")
    h, w = img.shape
    nh = max(1, int(round(h * fraction)))
    nw = max(1, int(round(w * fraction)))
    rows = np.minimum((np.arange(nh) + 0.5) * h / nh, h - 1).astype(int)
    cols = np.minimum((np.arange(nw) + 0.5) * w / nw, w - 1).astype(int)
    return img[np.ix_(rows, cols)]


FOREGROUND = 1
BACKGROUND = 2


def binarize(image, threshold: int = 128) -> np.ndarray:
    """Label matrix from a grayscale image: dark pixels (< threshold) become
    the foreground label 1, light pixels the background label 2."""
    img = np.asarray(image)
    return np.where(img < threshold, FOREGROUND, BACKGROUND).astype(np.int64)


@dataclass(eq=False)
class ImageGrid:
    """Label matrix with its pixel-center embedding into the unit square.

    Row 0 is the top of the image; pixel (i, j) of an H x W grid maps to
    x = (j + 0.5)/W - 1/2, y = 1/2 - (i + 0.5)/H.
    """

    labels: np.ndarray  # (H, W) int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 2:
            raise ValueError("labels must be a 2-d matrix")

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    def pixel_centers(self) -> np.ndarray:
        """Row-major (H*W, 2) pixel-center coordinates."""
        h, w = self.labels.shape
        xs = (np.arange(w) + 0.5) / w - 0.5
        ys = 0.5 - (np.arange(h) + 0.5) / h
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack((gx.ravel(), gy.ravel()))

    def to_points(self) -> LabeledPoints:
        return LabeledPoints(self.pixel_centers(), self.labels.ravel())

    def with_labels(self, flat_labels) -> "ImageGrid":
        """New grid with the same shape from row-major flat labels."""
        flat = np.asarray(flat_labels)
        return ImageGrid(flat.reshape(self.labels.shape))

    def to_image(self) -> np.ndarray:
        """uint8 grayscale: foreground black (0), background white (255)."""
        return np.where(self.labels == FOREGROUND, 0, 255).astype(np.uint8)


def ingest_pgm(path, downscale: float | None = None, threshold: int = 128) -> ImageGrid:
    """Read, optionally downscale, and binarize a PGM into an ImageGrid."""
    img = read_pgm(path)
    if downscale is not None and downscale != 1.0:
        img = downscale_nn(img, downscale)
    return ImageGrid(binarize(img, threshold))


def knn_max_dist(width: int, height: int) -> float:
    """Default neighbor-search radius: one pixel diagonal of the embedded grid."""
    return math.sqrt(1.0 / width**2 + 1.0 / height**2)
