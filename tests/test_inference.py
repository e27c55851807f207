"""Likelihood and SMC tests.

Frozen likelihood values below were derived by hand from the
Dirichlet-multinomial marginal: with two labels and alpha = (1, 1) a block
of counts m has marginal B(alpha + m) / B(alpha) where B is the
multivariate beta. For m = (2, 0) that is 1/3, for m = (1, 1) it is 1/6,
and for m = (2, 2) it is 1/30, so splitting a (2, 2) block into (2, 0) and
(0, 2) changes the log joint by log((1/9) / (1/30)) = log(10/3).
"""

import math
import multiprocessing

import numpy as np
import pytest
from scipy.special import gammaln

import smsp.parallel
from smsp.cutgen import CutGenConfig
from smsp.data import LabeledPoints, make_yinyang
from smsp.inference import (
    SMCConfig,
    best_particle,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    predict_proba,
    save_model,
    smc_fit,
)
from smsp.likelihood import (
    default_alpha,
    log_beta,
    log_likelihood,
    log_marginal_block,
    weight_increment,
)
from smsp.parallel import (
    clone_state,
    ess,
    multinomial_resample,
    normalized_weights,
    particle_rng,
)
from smsp.partition import advance, init_partition, run_to_budget


# -------------------------------------------------------------- likelihood


def test_log_beta_matches_gammaln():
    x = np.array([0.4, 2.5, 7.0])
    expect = float(gammaln(x).sum() - gammaln(x.sum()))
    assert abs(log_beta(x) - expect) < 1e-12


def test_log_marginal_frozen_values():
    alpha = np.array([1.0, 1.0])
    # m=(2,0): integral of p^2 over uniform prior = 1/3
    assert abs(log_marginal_block(np.array([2, 0]), alpha) - math.log(1.0 / 3.0)) < 1e-12
    # m=(1,1): 2! * B(2,2) = ... marginal = Gamma(2)Gamma(2)/Gamma(4) / B(1,1) = 1/6
    assert abs(log_marginal_block(np.array([1, 1]), alpha) - math.log(1.0 / 6.0)) < 1e-12
    # empty block contributes nothing
    assert log_marginal_block(np.array([0, 0]), alpha) == 0.0


def test_weight_increment_frozen_value():
    alpha = np.array([1.0, 1.0])
    # parent (2,2): marginal = B(3,3)/B(1,1) = (2!2!/5!) = 1/30
    # children (2,0),(0,2): (1/3)(1/3) = 1/9; ratio = 30/9 = 10/3
    inc = weight_increment(np.array([2, 2]), np.array([2, 0]), np.array([0, 2]), alpha)
    assert abs(inc - math.log(10.0 / 3.0)) < 1e-12


def test_weight_increment_requires_consistent_counts():
    alpha = np.array([1.0, 1.0])
    with pytest.raises(ValueError):
        weight_increment(np.array([2, 2]), np.array([2, 0]), np.array([1, 2]), alpha)


def test_weight_increment_equals_full_recompute():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(6, 21))
        k = int(rng.integers(2, 4))
        xy = rng.uniform(size=(n, 2))
        labels = rng.integers(1, k + 1, size=n).astype(np.int64)
        if len(np.unique(labels)) < 2:
            labels[0] = 1
            labels[1] = 2
        data = LabeledPoints(xy=xy, labels=labels)
        alpha = rng.uniform(0.05, 2.0, size=len(np.unique(labels)))
        state = init_partition(data, rng=rng)
        before = log_likelihood(state, alpha)
        acc = 0.0
        for _ in range(4):
            if state.is_terminal():
                break
            advance(state, math.inf, CutGenConfig(), rng)
            ev = state.last_event
            if ev.kind == "cut":
                acc += weight_increment(ev.parent_counts, ev.below_counts, ev.above_counts, alpha)
        after = log_likelihood(state, alpha)
        assert abs((after - before) - acc) < 1e-10


def test_default_alpha_rule():
    labels = np.concatenate([np.full(3000, 1), np.full(1000, 2)])
    alpha = default_alpha(labels)
    assert np.allclose(alpha, [3.0, 1.0])
    with pytest.raises(ValueError):
        default_alpha(np.full(10, 1), label_values=np.array([1, 2]))


# -------------------------------------------------- weights and resampling


def test_ess_bounds():
    assert abs(ess(np.full(10, 0.1)) - 10.0) < 1e-9
    one_hot = np.zeros(10)
    one_hot[3] = 1.0
    assert abs(ess(one_hot) - 1.0) < 1e-9


def test_normalized_weights_extreme_logs():
    w = normalized_weights(np.array([-1e4, -1e4 + math.log(3.0)]))
    assert abs(w.sum() - 1.0) < 1e-12
    assert abs(w[1] / w[0] - 3.0) < 1e-9


def test_multinomial_resample_properties():
    rng = np.random.default_rng(1)
    w = np.array([0.01, 0.01, 0.97, 0.01])
    idx = multinomial_resample(w, rng, size=1000)
    assert len(idx) == 1000
    assert idx.min() >= 0 and idx.max() <= 3
    assert np.bincount(idx, minlength=4)[2] > 900
    # deterministic under a fixed rng stream
    idx2 = multinomial_resample(w, np.random.default_rng(1), size=1000)
    assert np.array_equal(idx, multinomial_resample(w, np.random.default_rng(1), size=1000))
    assert np.array_equal(idx, idx2)


def test_particle_rng_streams_distinct():
    a = particle_rng(0, 1, 2).random(4)
    b = particle_rng(0, 2, 1).random(4)
    c = particle_rng(0, 1, 2).random(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_clone_state_independent():
    data = make_yinyang(400, seed=2)
    state = init_partition(data)
    run_to_budget(state, 2.0, CutGenConfig(), np.random.default_rng(3), max_cuts=3)
    twin = clone_state(state)
    n = twin.n_cuts
    run_to_budget(twin, 10.0, CutGenConfig(), np.random.default_rng(4), max_cuts=n + 2)
    assert twin.n_cuts > n
    assert state.n_cuts == n  # original untouched


# --------------------------------------------------------------- smc_fit


def _small_fit(n_particles=30, budget=2.0, seed=0, workers=1, n=500):
    data = make_yinyang(n, seed=123)
    cfg = SMCConfig(n_particles=n_particles, budget=budget, seed=seed, n_workers=workers)
    return data, smc_fit(data, cfg)


def test_smc_fit_shapes_and_weights():
    data, fit = _small_fit()
    assert len(fit.states) == 30
    w = fit.weights
    assert abs(w.sum() - 1.0) < 1e-9
    assert np.all(w >= 0.0)
    assert fit.n_rounds >= 1
    for st in fit.states:
        assert st.elapsed <= 2.0 + 1e-12


def test_smc_fit_constant_labels_trivial():
    xy = np.random.default_rng(5).uniform(size=(50, 2))
    data = LabeledPoints(xy=xy, labels=np.full(50, 3, dtype=np.int64))
    fit = smc_fit(data, SMCConfig(n_particles=8, budget=math.inf, seed=1))
    assert all(st.n_cuts == 0 for st in fit.states)
    assert np.allclose(fit.weights, 1.0 / 8.0)


def test_smc_fit_deterministic_same_seed():
    _, f1 = _small_fit(seed=7)
    _, f2 = _small_fit(seed=7)
    assert model_to_dict(f1) == model_to_dict(f2)
    _, f3 = _small_fit(seed=8)
    assert model_to_dict(f1) != model_to_dict(f3)


def test_smc_fit_worker_invariance():
    _, f1 = _small_fit(n_particles=12, seed=3, workers=1)
    _, f2 = _small_fit(n_particles=12, seed=3, workers=2)
    _, f3 = _small_fit(n_particles=12, seed=3, workers=3)
    d1, d2, d3 = model_to_dict(f1), model_to_dict(f2), model_to_dict(f3)
    assert d1 == d2 == d3


def test_worker_error_reaches_caller(monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("advance failed on purpose")

    monkeypatch.setattr(smsp.parallel, "advance", fail)
    data = make_yinyang(300, seed=1)
    with pytest.raises(ValueError, match="advance failed on purpose"):
        smc_fit(data, SMCConfig(n_particles=4, n_workers=2, seed=0))
    assert multiprocessing.active_children() == []


def test_smc_fit_resamples_when_weights_collapse():
    data = make_yinyang(800, seed=11)
    fit = smc_fit(data, SMCConfig(n_particles=40, budget=6.0, seed=2))
    assert fit.n_resamples >= 1


def test_smc_fit_max_cuts_cap():
    data = make_yinyang(600, seed=12)
    fit = smc_fit(data, SMCConfig(n_particles=10, budget=math.inf, max_cuts=1, seed=0))
    assert all(st.n_cuts <= 1 for st in fit.states)
    assert any(st.n_cuts == 1 for st in fit.states)


def test_smc_config_validation():
    with pytest.raises(ValueError):
        SMCConfig(n_particles=0)
    with pytest.raises(ValueError):
        SMCConfig(n_particles=10, ess_threshold=1.5)
    with pytest.raises(ValueError):
        SMCConfig(n_particles=10, budget=-1.0)


# -------------------------------------------------------------- prediction


def test_predict_proba_rows_sum_to_one():
    data, fit = _small_fit()
    pts = np.random.default_rng(6).uniform(-1.0, 1.0, size=(40, 2))
    proba = predict_proba(fit, pts)
    assert proba.shape == (40, 2)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(proba >= 0.0)


def test_predict_uses_first_label_on_ties():
    # a root-only particle with balanced counts makes every probability 0.5
    xy = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    d1 = LabeledPoints(xy=xy, labels=np.array([1, 1, 2, 2], dtype=np.int64))
    fit = smc_fit(d1, SMCConfig(n_particles=2, budget=1e-9, seed=0), alpha=np.array([1.0, 1.0]))
    assert all(st.n_cuts == 0 for st in fit.states)
    proba = predict_proba(fit, np.array([[0.5, 0.5]]))
    assert np.allclose(proba, 0.5)
    assert predict(fit, np.array([[0.5, 0.5]]))[0] == 1


def test_predict_recovers_separable_labels():
    rng = np.random.default_rng(7)
    xy = np.vstack([rng.uniform(size=(100, 2)), rng.uniform(size=(100, 2)) + [2.0, 0.0]])
    labels = np.concatenate([np.full(100, 1), np.full(100, 2)]).astype(np.int64)
    data = LabeledPoints(xy=xy, labels=labels)
    fit = smc_fit(data, SMCConfig(n_particles=20, budget=math.inf, seed=4))
    pred = predict(fit, data.xy)
    assert (pred == labels).mean() > 0.95


def test_best_particle_argmax():
    _, fit = _small_fit()
    assert fit.weights[best_particle(fit)] == fit.weights.max()


# ---------------------------------------------------------- model file IO


def test_model_round_trip(tmp_path):
    data, fit = _small_fit(n_particles=10, budget=1.5, seed=9)
    path = tmp_path / "model.json"
    save_model(fit, path)
    back = load_model(path)
    assert model_to_dict(back) == model_to_dict(fit)
    pts = np.random.default_rng(8).uniform(-1.0, 1.0, size=(30, 2))
    assert np.array_equal(predict(back, pts), predict(fit, pts))
    assert np.allclose(predict_proba(back, pts), predict_proba(fit, pts), atol=0.0)


def test_model_dict_schema():
    _, fit = _small_fit(n_particles=5, budget=1.0)
    d = model_to_dict(fit)
    assert d["format"] == "smsp-model"
    assert d["version"] == 1
    assert len(d["particles"]) == 5
    assert "n_workers" not in d["config"]
    p = d["particles"][0]
    assert set(p) >= {"log_weight", "weight", "elapsed", "cuts", "leaves"}
    for leaf in p["leaves"]:
        for cid, side in leaf["path"]:
            assert side in ("above", "below")
            assert 0 <= cid < len(p["cuts"])


def test_model_from_dict_rejects_bad_paths():
    _, fit = _small_fit(n_particles=4, budget=1.0)
    d = model_to_dict(fit)
    d["particles"][0]["leaves"][0]["path"] = [[99, "above"]]
    with pytest.raises(ValueError):
        model_from_dict(d)


def test_infinite_budget_round_trips(tmp_path):
    xy = np.random.default_rng(10).uniform(size=(40, 2))
    labels = (xy[:, 0] > 0.5).astype(np.int64) + 1
    data = LabeledPoints(xy=xy, labels=labels)
    fit = smc_fit(data, SMCConfig(n_particles=4, budget=math.inf, seed=5))
    path = tmp_path / "inf.json"
    save_model(fit, path)
    back = load_model(path)
    assert back.config.budget == math.inf
    assert model_to_dict(back) == model_to_dict(fit)
