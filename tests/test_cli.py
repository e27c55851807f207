"""End-to-end CLI tests exercising every subcommand through main()."""

import hashlib
import json

import numpy as np
import pytest

from smsp.cli import main
from smsp.data import read_pgm, write_pgm
from smsp.inference import load_model


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _simulate(tmp_path, n=800, seed=5):
    out = tmp_path / "yy"
    rc = main(
        [
            "simulate-yinyang",
            "--n",
            str(n),
            "--seed",
            str(seed),
            "--out-dir",
            str(out),
        ]
    )
    assert rc == 0
    return out


def _disk_pgm(path, side=16, radius=0.3):
    ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    x = (jj + 0.5) / side - 0.5
    y = 0.5 - (ii + 0.5) / side
    img = np.where(x * x + y * y < radius * radius, 0, 255).astype(np.uint8)
    write_pgm(path, img)
    return img


# ------------------------------------------------------------- simulation


def test_simulate_yinyang_outputs(tmp_path):
    out = _simulate(tmp_path)
    for name in ("full.csv", "train.csv", "test.csv", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"][0] == "smsp"
    assert manifest["seed"] == 5
    for rel, digest in manifest["outputs"].items():
        assert _sha256(out / rel if not rel.startswith("/") else tmp_path / rel) == digest or _sha256(
            tmp_path / rel
        ) == digest
    n_train = len((out / "train.csv").read_text().splitlines()) - 1
    n_test = len((out / "test.csv").read_text().splitlines()) - 1
    n_full = len((out / "full.csv").read_text().splitlines()) - 1
    assert n_train + n_test == n_full
    assert abs(n_train - round(0.6 * n_full)) <= 1


def test_simulate_reruns_are_byte_identical(tmp_path):
    out1 = _simulate(tmp_path / "a")
    out2 = _simulate(tmp_path / "b")
    assert (out1 / "full.csv").read_bytes() == (out2 / "full.csv").read_bytes()
    assert (out1 / "train.csv").read_bytes() == (out2 / "train.csv").read_bytes()


# ------------------------------------------------------- fit then predict


def test_fit_predict_metrics_chain(tmp_path):
    data_dir = _simulate(tmp_path, n=600, seed=1)
    model = tmp_path / "model.json"
    rc = main(
        [
            "fit",
            "--input",
            str(data_dir / "train.csv"),
            "--out",
            str(model),
            "--particles",
            "20",
            "--budget",
            "2.0",
            "--seed",
            "0",
        ]
    )
    assert rc == 0
    fit = load_model(model)
    assert len(fit.states) == 20
    preds = tmp_path / "pred.csv"
    rc = main(["predict", "--model", str(model), "--input", str(data_dir / "test.csv"), "--out", str(preds)])
    assert rc == 0
    lines = preds.read_text().splitlines()
    assert lines[0] == "x,y,label"
    labs = np.array([int(l.rsplit(",", 1)[1]) for l in lines[1:]])
    assert set(np.unique(labs)) <= {1, 2}


def test_fit_deterministic_model_bytes(tmp_path):
    data_dir = _simulate(tmp_path, n=400, seed=2)
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    args = ["fit", "--input", str(data_dir / "train.csv"), "--particles", "10", "--budget", "1.5", "--seed", "3"]
    assert main(args + ["--out", str(m1)]) == 0
    assert main(args + ["--out", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_fit_worker_invariance_via_env(tmp_path, monkeypatch):
    data_dir = _simulate(tmp_path, n=300, seed=3)
    m1, m2 = tmp_path / "w1.json", tmp_path / "w2.json"
    base = ["fit", "--input", str(data_dir / "train.csv"), "--particles", "8", "--budget", "1.0", "--seed", "4"]
    monkeypatch.delenv("SMSP_WORKERS", raising=False)
    assert main(base + ["--out", str(m1), "--workers", "1"]) == 0
    monkeypatch.setenv("SMSP_WORKERS", "2")
    assert main(base + ["--out", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_fit_pgm_image_and_predict_pgm(tmp_path):
    src = tmp_path / "disk.pgm"
    _disk_pgm(src)
    model = tmp_path / "m.json"
    rc = main(
        ["fit", "--input", str(src), "--out", str(model), "--particles", "10", "--budget", "inf", "--seed", "0"]
    )
    assert rc == 0
    out = tmp_path / "pred.pgm"
    rc = main(["predict", "--model", str(model), "--input", str(src), "--out", str(out)])
    assert rc == 0
    pred = read_pgm(out)
    truth = read_pgm(src)
    assert pred.shape == truth.shape
    # tau=inf training reconstruction is exact
    assert np.array_equal(pred, truth)


def test_metrics_cli(tmp_path):
    a = tmp_path / "a.pgm"
    _disk_pgm(a)
    report = tmp_path / "rep.json"
    rc = main(["metrics", "--pred", str(a), "--truth", str(a), "--out", str(report)])
    assert rc == 0
    rep = json.loads(report.read_text())
    assert rep["per_image"][0]["pct_correct"] == 100.0
    assert rep["per_image"][0]["psnr_infinite"] is True
    assert rep["mean"]["mse"] == 0.0


def test_metrics_cli_multiple_pairs(tmp_path):
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    img = _disk_pgm(a)
    write_pgm(b, 255 - img)  # inverted
    report = tmp_path / "rep.json"
    rc = main(["metrics", "--pred", str(a), str(b), "--truth", str(a), str(a), "--out", str(report)])
    assert rc == 0
    rep = json.loads(report.read_text())
    assert len(rep["per_image"]) == 2
    assert rep["per_image"][1]["pct_correct"] == 0.0
    assert rep["mean"]["psnr"] is None  # one infinite PSNR poisons the mean


# ------------------------------------------------------------------ shape


def test_shape_cli_budget_sweep(tmp_path):
    src = tmp_path / "disk.pgm"
    _disk_pgm(src)
    prefix = tmp_path / "shapes" / "disk"
    rc = main(
        [
            "shape",
            "--input",
            str(src),
            "--budgets",
            "2,5",
            "--particles",
            "10",
            "--seed",
            "1",
            "--out-prefix",
            str(prefix),
        ]
    )
    assert rc == 0
    summary = json.loads((tmp_path / "shapes" / "disk_perimeters.json").read_text())
    assert [row["budget"] for row in summary["budgets"]] == [2.0, 5.0]
    for row in summary["budgets"]:
        assert row["perimeter"] >= 0.0
        assert abs(row["normalized_perimeter"] - row["perimeter"] / row["budget"]) < 1e-12
    csv1 = (tmp_path / "shapes" / "disk_tau2.csv").read_text().splitlines()
    assert csv1[0] == "cut,segment,vertex,x,y,interior"
    assert len(csv1) > 1


def test_shape_cli_infinite_budget_normalization_null(tmp_path):
    src = tmp_path / "disk.pgm"
    _disk_pgm(src)
    prefix = tmp_path / "s" / "d"
    rc = main(
        ["shape", "--input", str(src), "--budgets", "inf", "--particles", "8", "--seed", "0", "--out-prefix", str(prefix)]
    )
    assert rc == 0
    summary = json.loads((tmp_path / "s" / "d_perimeters.json").read_text())
    row = summary["budgets"][0]
    assert row["budget"] == "inf"
    assert row["normalized_perimeter"] is None
    assert (tmp_path / "s" / "d_tauinf.csv").exists()


# ------------------------------------------------------------- experiments


def test_invariance_cli_both_arms(tmp_path):
    out = tmp_path / "inv.json"
    rc = main(
        [
            "invariance",
            "--replicates",
            "3",
            "--curves",
            "200",
            "--grid",
            "4",
            "--cloud-side",
            "15",
            "--arm",
            "both",
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rep = json.loads(out.read_text())
    assert set(rep) >= {"cuts", "uniform"}
    for arm in ("cuts", "uniform"):
        assert len(rep[arm]["pvalues"]) == 3
        assert 0.0 <= rep[arm]["fraction_above"] <= 1.0


def test_timing_cli(tmp_path):
    data_dir = _simulate(tmp_path, n=300, seed=8)
    out = tmp_path / "timing.csv"
    rc = main(
        [
            "timing",
            "--input",
            str(data_dir / "train.csv"),
            "--particles",
            "4,8",
            "--workers",
            "1",
            "--budget",
            "0.5",
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "particles,workers,seconds,rounds,resamples"
    assert len(lines) == 3


# ---------------------------------------------------------------- manifests


def test_manifest_records_digests_and_args(tmp_path):
    data_dir = _simulate(tmp_path, n=300, seed=9)
    model = tmp_path / "m.json"
    manifest = tmp_path / "fit_manifest.json"
    rc = main(
        [
            "fit",
            "--input",
            str(data_dir / "train.csv"),
            "--out",
            str(model),
            "--particles",
            "5",
            "--budget",
            "1.0",
            "--seed",
            "11",
            "--manifest",
            str(manifest),
        ]
    )
    assert rc == 0
    m = json.loads(manifest.read_text())
    assert m["command"][0] == "smsp"
    assert "fit" in m["command"]
    assert m["seed"] == 11
    assert m["wall_time_s"] >= 0.0
    assert str(model) in m["outputs"]
    assert m["outputs"][str(model)] == hashlib.sha256(model.read_bytes()).hexdigest()
    assert m["config"]["particles"] == 5


# ---------------------------------------------------------------- failures


def test_missing_input_exit_code_3(tmp_path):
    rc = main(["fit", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json")])
    assert rc == 3


def test_malformed_pgm_exit_code_3(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n4 4\n255\nxx")
    rc = main(["fit", "--input", str(bad), "--out", str(tmp_path / "m.json")])
    assert rc == 3


def test_invalid_model_json_exit_code_4(tmp_path):
    model = tmp_path / "m.json"
    model.write_text('{"format": "something-else"}')
    rc = main(["predict", "--model", str(model), "--input", str(model), "--out", str(tmp_path / "o.csv")])
    assert rc == 4


def _tiny_model():
    # one particle, one straight cut along y = 0
    return {
        "format": "smsp-model",
        "version": 1,
        "label_values": [1, 2],
        "alpha": [0.5, 0.5],
        "config": None,
        "particles": [
            {
                "log_weight": 0.0,
                "weight": 1.0,
                "elapsed": 0.0,
                "cuts": [{"theta": 0.0, "order": 1, "controls": [[-1.0, 0.0], [1.0, 0.0]], "offset": 0.0}],
                "leaves": [
                    {"path": [[0, "below"]], "counts": [3, 0]},
                    {"path": [[0, "above"]], "counts": [0, 3]},
                ],
            }
        ],
    }


def _predict_with(tmp_path, model):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    points = tmp_path / "points.csv"
    points.write_text("x,y,label\n0.1,0.5,1\n0.2,-0.5,1\n")
    return main(["predict", "--model", str(path), "--input", str(points), "--out", str(tmp_path / "o.csv")])


def test_tiny_model_predicts(tmp_path):
    assert _predict_with(tmp_path, _tiny_model()) == 0
    rows = (tmp_path / "o.csv").read_text().splitlines()
    assert [r.rsplit(",", 1)[1] for r in rows[1:]] == ["2", "1"]


@pytest.mark.parametrize("field", ["alpha", "label_values", "particles"])
def test_model_missing_field_exit_code_3(tmp_path, capsys, field):
    model = _tiny_model()
    del model[field]
    assert _predict_with(tmp_path, model) == 3
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "controls",
    [[[1.0, 0.0], [-1.0, 0.0]], [[0.5, -1.0], [0.5, 1.0]]],
    ids=["decreasing-x", "zero-span"],
)
def test_model_bad_cut_controls_exit_code_3(tmp_path, capsys, controls):
    model = _tiny_model()
    model["particles"][0]["cuts"][0]["controls"] = controls
    assert _predict_with(tmp_path, model) == 3
    assert "x-coordinates" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["0.3,0.4", "0.3,abc,1"], ids=["missing-field", "non-numeric"])
def test_csv_bad_row_exit_code_3(tmp_path, capsys, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"x,y,label\n0.1,0.2,1\n{row}\n0.5,0.6,2\n")
    rc = main(["fit", "--input", str(bad), "--out", str(tmp_path / "m.json"), "--particles", "2"])
    assert rc == 3
    assert "line 3" in capsys.readouterr().err


def test_alpha_length_mismatch_exit_code_4(tmp_path):
    data_dir = _simulate(tmp_path, n=200, seed=10)
    rc = main(
        ["fit", "--input", str(data_dir / "train.csv"), "--out", str(tmp_path / "m.json"), "--alpha", "0.5"]
    )
    assert rc == 4


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--input", "x.csv", "--out", "m.json", "--budget", "-3"])
    assert exc.value.code == 2
