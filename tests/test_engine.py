"""Regimes: one-shot fit, transduction, and batch streaming."""

import dataclasses

import numpy as np
import pytest

import umfc
from umfc import engine
from umfc.clustering import batch_cluster_means

from properties import check_relabel_invariance, check_snapshot_roundtrip


def small_benchmark(**kw):
    spec = umfc.SynthSpec(
        n_classes=4, n_domains=2, dim=8, samples_per_cell=20, seed=3, **kw
    )
    return umfc.generate_benchmark(spec)


def cfg2(**kw):
    base = dict(clusters=2, batch_size=16, seed=1)
    base.update(kw)
    return umfc.EngineConfig(**base)


def _assert_memory_invariant(state):
    """Every cluster mean with members is its running sum over its count."""
    nz = state.counts > 0
    assert np.array_equal(
        state.centroids[nz], state.running_sums[nz] / state.counts[nz, None]
    )


def test_config_validation():
    with pytest.raises(ValueError):
        umfc.EngineConfig(clusters=0)
    with pytest.raises(ValueError):
        umfc.EngineConfig(tau=0.0)
    with pytest.raises(ValueError):
        umfc.EngineConfig(tau=float("nan"))
    with pytest.raises(ValueError):
        umfc.EngineConfig(eta=1.5)
    with pytest.raises(ValueError):
        umfc.EngineConfig(eta=0.0)
    with pytest.raises(ValueError):
        umfc.EngineConfig(mode="both")
    with pytest.raises(ValueError):
        umfc.EngineConfig(batch_size=0)
    # no knob turns normalization off
    with pytest.raises(TypeError):
        umfc.EngineConfig(normalize_input=False)
    assert umfc.EngineConfig().mode == "memory"


def test_fit_statistics():
    ds = small_benchmark()
    cfg = cfg2()
    state = umfc.fit_unsupervised(ds.images, ds.text_bank, cfg)
    x = umfc.l2_normalize_rows(ds.images.data)
    ref_model, labels = umfc.kmeans_fit(x, 2, seed=1)
    assert np.array_equal(state.centroids, ref_model.centroids)
    assert np.array_equal(state.counts, np.bincount(labels, minlength=2))
    assert np.allclose(state.calib_global_mean, x.mean(axis=0), rtol=0, atol=1e-14)
    assert np.array_equal(state.calib_text_shifts, state.centroids - state.calib_global_mean)
    assert (state.samples_seen, state.batches_seen) == (ds.images.n, 1)
    # a fit keeps the exact accumulators behind its cluster means
    assert np.array_equal(state.global_sum, np.sum(x, axis=0))
    _assert_memory_invariant(state)


def test_fit_rejects_small_train():
    bank = umfc.TextBank(names=["a", "b"], data=np.eye(2))
    with pytest.raises(umfc.TooFewSamples):
        umfc.fit_unsupervised(np.eye(2), bank, umfc.EngineConfig(clusters=5))


@pytest.mark.parametrize("call", [
    "fit_unsupervised", "transduce", "predict", "predict-zero-shot", "stream_step-fresh",
    "stream_step-bootstrapping", "stream_step-fitted", "run_stream",
])
def test_a_bank_of_another_dimension_is_refused_up_front(monkeypatch, call):
    # every regime refuses the bank in its preamble, with one message,
    # before k-means or any batch of a stream runs
    ds = small_benchmark()
    cfg = cfg2(clusters=3)
    x = ds.images.data
    fit = umfc.fit_unsupervised(x, ds.text_bank, cfg)
    _, bootstrapping = umfc.stream_step(umfc.stream_init(cfg), x[:1], ds.text_bank, cfg)
    assert bootstrapping.bootstrap_buffer.shape == (1, 8)
    wide = umfc.TextBank(names=["a", "b"], data=np.eye(9)[:2])

    def never(*args, **kwargs):
        raise AssertionError("ran past the preamble")

    monkeypatch.setattr(umfc.engine, "kmeans_fit", never)
    calls = {
        "fit_unsupervised": lambda: umfc.fit_unsupervised(x, wide, cfg),
        "transduce": lambda: umfc.transduce(x, wide, cfg),
        "predict": lambda: umfc.predict(fit, x, wide, cfg),
        "predict-zero-shot": lambda: umfc.predict(None, x, wide, cfg),
        "stream_step-fresh": lambda: umfc.stream_step(umfc.stream_init(cfg), x[:16], wide, cfg),
        "stream_step-bootstrapping": lambda: umfc.stream_step(bootstrapping, x[1:2], wide, cfg),
        "stream_step-fitted": lambda: umfc.stream_step(fit, x[:16], wide, cfg),
        "run_stream": lambda: umfc.run_stream(x, wide, cfg, on_batch=never),
    }
    with pytest.raises(umfc.DimensionMismatch, match="^rows of dim 8 against a bank of dim 9$"):
        calls[call]()


def test_predict_matches_transduce():
    ds = small_benchmark()
    cfg = cfg2()
    preds, state = umfc.transduce(ds.images, ds.text_bank, cfg)
    batch = umfc.predict(state, ds.images, ds.text_bank, cfg)
    assert np.array_equal(batch.labels, preds.labels)
    assert np.array_equal(batch.clusters, preds.clusters)
    assert np.allclose(batch.probs, preds.probs, rtol=0, atol=1e-12)
    # one row at a time gives the same answers
    for i in range(ds.images.n):
        single = umfc.predict(state, ds.images.data[i : i + 1], ds.text_bank, cfg)
        assert single.labels[0] == preds.labels[i]
        assert single.clusters[0] == preds.clusters[i]
        assert np.allclose(single.probs[0], preds.probs[i], rtol=0, atol=1e-12)


def test_predict_empty_and_mismatched_rows():
    ds = small_benchmark()
    cfg = cfg2()
    state = umfc.fit_unsupervised(ds.images, ds.text_bank, cfg)
    empty = umfc.predict(state, np.empty((0, 0)), ds.text_bank, cfg)
    assert len(empty) == 0 and empty.probs.shape == (0, ds.text_bank.k)
    with pytest.raises(umfc.DimensionMismatch):
        umfc.predict(state, np.ones((3, 5)), ds.text_bank, cfg)


def test_zero_rows_without_keep_probs_have_no_probs():
    ds = small_benchmark()
    cfg = cfg2()
    state = umfc.fit_unsupervised(ds.images, ds.text_bank, cfg)
    none = np.empty((0, ds.images.dim))
    for preds in (
        umfc.predict(state, none, ds.text_bank, cfg, keep_probs=False),
        umfc.predict(None, none, ds.text_bank, cfg, keep_probs=False),
        umfc.stream_step(umfc.stream_init(cfg), none, ds.text_bank, cfg, keep_probs=False)[0],
        umfc.stream_step(state, none, ds.text_bank, cfg, keep_probs=False)[0],
        umfc.run_stream(none, ds.text_bank, cfg, keep_probs=False)[0],
    ):
        assert len(preds) == 0 and preds.probs is None and preds.top.shape == (0,)


def test_predict_without_a_state_scores_zero_shot():
    ds = small_benchmark()
    cfg = cfg2()
    preds = umfc.predict(None, ds.images, ds.text_bank, cfg)
    oracle = umfc.oracle_zero_shot(ds, cfg.tau)
    assert np.array_equal(preds.labels, oracle.labels)
    assert (preds.clusters == -1).all()
    assert (preds.flags == umfc.Predictions.UNCALIBRATED).all()
    assert np.allclose(preds.probs, oracle.probs, rtol=0, atol=1e-12)
    top1 = umfc.predict(None, ds.images, ds.text_bank, cfg, keep_probs=False)
    assert top1.probs is None
    for name in ("labels", "top", "clusters", "flags"):
        assert getattr(top1, name).tobytes() == getattr(preds, name).tobytes()
    assert len(umfc.predict(None, np.empty((0, 0)), ds.text_bank, cfg)) == 0


def test_predict_without_a_model_is_format_error():
    ds = small_benchmark()
    cfg = cfg2()
    with pytest.raises(umfc.FormatError, match="no fitted model"):
        umfc.predict(umfc.stream_init(cfg), ds.images, ds.text_bank, cfg)


@pytest.mark.parametrize("case", [
    "short-counts", "extra-shift-row", "other-cluster-count", "narrow-running-sums",
    "wrong-width-buffer", "calib-without-model", "doubled-running-sums", "nan-centroids",
    "float32-centroids", "float64-counts", "negative-samples-seen", "fractional-batches-seen",
    "list-centroids", "tuple-counts",
])
def test_malformed_in_memory_state_is_format_error(tmp_path, case):
    # the rules restore_state applies to a snapshot hold for a state built
    # in memory: each is refused by name, never by a raw numpy error, and
    # the library does not write a snapshot that it would refuse to read
    ds = umfc.default_benchmark()
    cfg = umfc.EngineConfig(clusters=3)
    state = umfc.fit_unsupervised(ds.images, ds.text_bank, cfg)
    x = ds.images.data[:10]
    if case == "short-counts":
        state = dataclasses.replace(state, counts=state.counts[:2])
    elif case == "extra-shift-row":
        state = dataclasses.replace(
            state, calib_text_shifts=np.vstack([state.calib_text_shifts, x[:1]])
        )
    elif case == "other-cluster-count":
        cfg = umfc.EngineConfig(clusters=4)
    elif case == "narrow-running-sums":
        state = dataclasses.replace(state, running_sums=state.running_sums[:, :5])
    elif case == "wrong-width-buffer":
        state = dataclasses.replace(state, bootstrap_buffer=x[:2, :7])
    elif case == "doubled-running-sums":
        state = dataclasses.replace(state, running_sums=2 * state.running_sums)
    elif case == "nan-centroids":
        centroids = state.centroids.copy()
        centroids[1, 3] = np.nan
        state = dataclasses.replace(state, centroids=centroids)
    elif case == "float32-centroids":
        state = dataclasses.replace(state, centroids=state.centroids.astype(np.float32))
    elif case == "float64-counts":
        state = dataclasses.replace(state, counts=state.counts.astype(np.float64))
    elif case == "negative-samples-seen":
        # without the accumulators, which -7 would break too
        state = dataclasses.replace(state, running_sums=None, global_sum=None, samples_seen=-7)
    elif case == "fractional-batches-seen":
        state = dataclasses.replace(state, batches_seen=2.5)
    elif case == "list-centroids":
        state = dataclasses.replace(state, centroids=state.centroids.tolist())
    elif case == "tuple-counts":
        state = dataclasses.replace(state, counts=tuple(state.counts))
    else:
        state = dataclasses.replace(state, centroids=None, counts=None)
    p = tmp_path / "s.state"
    for mode in ("memory", "ema"):
        cfg = dataclasses.replace(cfg, mode=mode)
        with pytest.raises(umfc.FormatError):
            umfc.predict(state, x, ds.text_bank, cfg)
        with pytest.raises(umfc.FormatError):
            umfc.stream_step(state, x, ds.text_bank, cfg)
        with pytest.raises(umfc.FormatError):
            umfc.snapshot_state(state, cfg, p)
    assert not p.exists()


@pytest.mark.parametrize("name", ["centroids", "running_sums", "global_sum",
                                  "calib_global_mean", "calib_text_shifts"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_state_array_with_a_nan_or_infinity_is_non_finite_payload(tmp_path, name, bad):
    # refused by name before any arithmetic sees it, as restore_state
    # refuses such a snapshot
    ds = small_benchmark()
    cfg = cfg2()
    fit = umfc.fit_unsupervised(ds.images, ds.text_bank, cfg)
    arr = getattr(fit, name).copy()
    arr.flat[1] = bad
    state = dataclasses.replace(fit, **{name: arr})
    x = ds.images.data[:10]
    p = tmp_path / "s.state"
    for call in (lambda: umfc.predict(state, x, ds.text_bank, cfg),
                 lambda: umfc.stream_step(state, x, ds.text_bank, cfg),
                 lambda: umfc.snapshot_state(state, cfg, p)):
        with pytest.raises(umfc.NonFinitePayload, match=f"array {name} contains NaN"):
            call()
    assert not p.exists()


def test_bootstrap_buffer_of_more_rows_than_clusters_is_format_error(tmp_path):
    # two rows buffered under 3 clusters, then read under 1: the buffer
    # cannot seed that many clusters, so it is refused by name rather
    # than failing inside stream_step with an IndexError
    ds = umfc.default_benchmark()
    x = ds.images.data
    _, state = umfc.stream_step(umfc.stream_init(umfc.EngineConfig(clusters=3)), x[:2],
                                ds.text_bank, umfc.EngineConfig(clusters=3))
    assert state.bootstrap_buffer.shape == (2, ds.images.dim)
    p = tmp_path / "s.state"
    for mode in ("memory", "ema"):
        cfg = umfc.EngineConfig(clusters=1, mode=mode)
        with pytest.raises(umfc.FormatError, match="bootstrap buffer of 2 rows"):
            umfc.stream_step(state, x[2:7], ds.text_bank, cfg)
        with pytest.raises(umfc.FormatError, match="bootstrap buffer of 2 rows"):
            umfc.predict(state, x[2:7], ds.text_bank, cfg)
        with pytest.raises(umfc.FormatError, match="bootstrap buffer of 2 rows"):
            umfc.snapshot_state(state, cfg, p)
        assert not p.exists()
        # a buffer of exactly `clusters` rows seeds one cluster each
        cfg = umfc.EngineConfig(clusters=2, mode=mode)
        preds, seeded = umfc.stream_step(state, x[2:7], ds.text_bank, cfg)
        assert len(preds) == 5 and seeded.counts.sum() == 7


@pytest.mark.parametrize("mode", ["memory", "ema"])
def test_stream_batch_of_another_width_is_dimension_mismatch(mode):
    # against a model and against a bootstrap buffer, before any numpy
    # product sees the batch
    ds = small_benchmark()
    cfg = cfg2(clusters=3, mode=mode)
    fit = umfc.fit_unsupervised(ds.images, ds.text_bank, cfg)
    _, buffering = umfc.stream_step(umfc.stream_init(cfg), ds.images.data[:1], ds.text_bank, cfg)
    assert buffering.centroids is None and buffering.bootstrap_buffer.shape == (1, 8)
    for state in (fit, buffering):
        with pytest.raises(umfc.DimensionMismatch, match="rows of dim 7 against a state of dim 8"):
            umfc.stream_step(state, ds.images.data[:5, :7], ds.text_bank, cfg)


@pytest.mark.parametrize("call", [
    "predict", "transduce", "fit_unsupervised", "stream_step-memory", "stream_step-ema",
])
def test_raw_rows_with_a_nan_or_infinity_are_non_finite_input(call):
    # an EmbeddingMatrix checks its own rows; a raw array is checked on
    # entry, before a row is clustered, scored or folded into a statistic
    ds = small_benchmark()
    name, _, mode = call.partition("-")
    cfg = cfg2(mode=mode or "memory")
    fit = umfc.fit_unsupervised(ds.images, ds.text_bank, cfg)
    states = {"predict": [(fit,)], "stream_step": [(fit,), (umfc.stream_init(cfg),)]}
    for args in states.get(name, [()]):
        for bad in (np.nan, np.inf, -np.inf):
            x = ds.images.data[:10].copy()
            x[3, 2] = bad
            with pytest.raises(umfc.NonFiniteInput, match="^input row 3 contains NaN or infinity$"):
                getattr(umfc, name)(*args, x, ds.text_bank, cfg)


@pytest.mark.parametrize("field", ["tau", "eta"])
@pytest.mark.parametrize("value", [True, "0.5", None, 1j])
def test_config_refuses_a_non_real_tau_or_eta(field, value):
    with pytest.raises(ValueError, match=field):
        umfc.EngineConfig(**{field: value})


@pytest.mark.parametrize("field", ["tau", "eta"])
def test_config_takes_ints_and_numpy_scalars_for_tau_and_eta(field):
    for value in (1, np.float32(0.5), np.float64(0.25), np.int64(1)):
        assert getattr(umfc.EngineConfig(**{field: value}), field) == value


def test_predictions_rows_and_concat():
    preds = umfc.Predictions(
        probs=np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]]),
        labels=np.array([0, 1, 0]),
        clusters=np.array([-1, 0, 1]),
        flags=np.array(
            [umfc.Predictions.UNCALIBRATED, 0, umfc.Predictions.DEGENERATE], dtype=np.uint8
        ),
    )
    rows = list(preds)
    assert [p.flags for p in rows] == [("uncalibrated",), (), ("degenerate",)]
    assert [(p.label, p.cluster) for p in rows] == [(0, -1), (1, 0), (0, 1)]
    assert np.array_equal(rows[1].probs, [0.2, 0.8])
    both = umfc.Predictions.concat([umfc.Predictions.empty(2), preds, preds])
    assert len(both) == 6 and both.flags.dtype == np.uint8
    assert np.array_equal(both.labels, [0, 1, 0, 0, 1, 0])


def test_predictions_without_probs():
    full = umfc.Predictions(
        probs=np.array([[0.9, 0.1], [0.2, 0.8]]),
        labels=np.array([0, 1]),
        clusters=np.array([-1, 0]),
        flags=np.zeros(2, dtype=np.uint8),
    )
    assert full.top.tolist() == [0.9, 0.8]
    bare = dataclasses.replace(full, probs=None)
    both = umfc.Predictions.concat([umfc.Predictions.empty(2), full, bare])
    assert both.probs is None
    assert both.top.tolist() == [0.9, 0.8, 0.9, 0.8]
    assert both[3].probs is None and (both[3].label, both[3].cluster) == (1, 0)
    kept = umfc.Predictions.concat([umfc.Predictions.empty(2), full])
    assert np.array_equal(kept.probs, full.probs)


def test_transduce_cluster_field_matches_assignment():
    ds = small_benchmark()
    cfg = cfg2()
    preds, _ = umfc.transduce(ds.images, ds.text_bank, cfg)
    x = umfc.l2_normalize_rows(ds.images.data)
    model, labels = umfc.kmeans_fit(x, 2, seed=1)
    assert np.array_equal([p.label >= 0 for p in preds], [True] * ds.images.n)
    assert np.array_equal([p.cluster for p in preds], labels)


def _state_arrays(s):
    return [s.centroids, s.counts, s.calib_global_mean, s.calib_text_shifts,
            s.running_sums, s.global_sum]


def _assert_same_states(a, b):
    for x, y in zip(_state_arrays(a), _state_arrays(b)):
        assert x.tobytes() == y.tobytes()
    assert (a.samples_seen, a.batches_seen) == (b.samples_seen, b.batches_seen)


@pytest.mark.parametrize("spec", [{}, {"n_domains": 5, "noise_sigma": 1.0}],
                         ids=["default", "5-domains-noise-1"])
@pytest.mark.parametrize("clusters", [3, 6])
@pytest.mark.parametrize("seed", [7, 8, 9])
def test_stream_full_batch_equals_transduce_bitwise(spec, clusters, seed):
    ds = umfc.generate_benchmark(umfc.SynthSpec(seed=seed, **spec))
    cfg = umfc.EngineConfig(clusters=clusters, batch_size=ds.images.n)
    t_preds, t_state = umfc.transduce(ds.images, ds.text_bank, cfg)
    s_preds, s_state = umfc.run_stream(ds.images, ds.text_bank, cfg)
    for name in ("probs", "labels", "clusters", "flags", "top"):
        assert getattr(t_preds, name).tobytes() == getattr(s_preds, name).tobytes()
    _assert_same_states(t_state, s_state)
    _assert_memory_invariant(t_state)
    fit = umfc.fit_unsupervised(ds.images, ds.text_bank, cfg)
    _assert_same_states(fit, t_state)


@pytest.mark.parametrize("mode", ["memory", "ema"])
def test_fit_then_memory_stream_equals_stream_from_the_start(mode):
    # a fit state continues as a memory stream bit for bit, whatever mode
    # the fit was configured with
    ds = small_benchmark()
    cfg, a = cfg2(clusters=3), 70
    x = ds.images.data
    fit = umfc.fit_unsupervised(x[:a], ds.text_bank, dataclasses.replace(cfg, mode=mode))
    _, first = umfc.stream_step(umfc.stream_init(cfg), x[:a], ds.text_bank, cfg)
    _assert_same_states(fit, first)
    p_fit, s_fit = umfc.stream_step(fit, x[a:], ds.text_bank, cfg)
    p_str, s_str = umfc.stream_step(first, x[a:], ds.text_bank, cfg)
    for name in ("probs", "labels", "clusters", "flags", "top"):
        assert getattr(p_fit, name).tobytes() == getattr(p_str, name).tobytes()
    _assert_same_states(s_fit, s_str)
    _assert_memory_invariant(s_fit)


def test_memory_prototypes_equal_stored_means():
    ds = small_benchmark()
    cfg = cfg2(batch_size=13)  # ragged batches on purpose
    preds, state = umfc.run_stream(ds.images, ds.text_bank, cfg)
    assert len(preds) == ds.images.n
    x = umfc.l2_normalize_rows(ds.images.data)
    assigned = np.array([p.cluster for p in preds])
    for m in range(cfg.clusters):
        members = x[assigned == m]
        assert state.counts[m] == members.shape[0]
        if members.shape[0]:
            assert np.allclose(
                state.centroids[m], members.mean(axis=0), rtol=0, atol=1e-9
            )
    assert np.allclose(state.global_sum, x.sum(axis=0), rtol=0, atol=1e-9)
    assert state.samples_seen == ds.images.n


def _unit_blobs(rng, sizes, center, sigma=0.01):
    """Unit rows (l2_normalize_rows') of two tight blobs, sizes[0] rows
    about center and then sizes[1] about -center."""
    c = np.asarray(center, dtype=np.float64)
    rows = [rng.normal(0, sigma, (n, c.size)) + sign * c for n, sign in zip(sizes, (1, -1))]
    return umfc.l2_normalize_rows(np.vstack(rows))


def test_ema_closed_form():
    rng = np.random.default_rng(20)
    # two tight, far-apart blobs of unit rows, which the engine takes as
    # they are, so clustering is unambiguous
    b1 = _unit_blobs(rng, (8, 8), [5, 0, 0])
    b2 = _unit_blobs(rng, (6, 10), [5, 0, 0])
    bank = umfc.TextBank(names=["a", "b"], data=np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    cfg = umfc.EngineConfig(clusters=2, mode="ema", eta=0.3, batch_size=16, seed=0)

    st = umfc.stream_init(cfg)
    _, st1 = umfc.stream_step(st, b1, bank, cfg)
    c1 = st1.centroids.copy()
    _, st2 = umfc.stream_step(st1, b2, bank, cfg)

    labels = umfc.assign_batch(st1.centroids, b2)
    bm, bc = batch_cluster_means(b2, labels, 2)
    expect = c1.copy()
    present = bc > 0
    expect[present] = 0.7 * c1[present] + 0.3 * bm[present]
    assert np.allclose(st2.centroids, expect, rtol=0, atol=1e-12)
    # convex blend with both clusters present: mu_avg is the prototype mean
    assert np.allclose(
        st2.calib_global_mean, st2.centroids.mean(axis=0), rtol=0, atol=1e-12
    )
    assert st2.running_sums is None and st2.global_sum is None


def test_ema_eta_one_replaces():
    rng = np.random.default_rng(21)
    b1 = _unit_blobs(rng, (5, 5), [3, 0])
    b2 = _unit_blobs(rng, (4, 4), [3, 0])
    bank = umfc.TextBank(names=["a", "b"], data=np.eye(2))
    cfg = umfc.EngineConfig(clusters=2, mode="ema", eta=1.0, batch_size=10, seed=0)
    st = umfc.stream_init(cfg)
    _, st1 = umfc.stream_step(st, b1, bank, cfg)
    labels = umfc.assign_batch(st1.centroids, b2)
    bm, bc = batch_cluster_means(b2, labels, 2)
    _, st2 = umfc.stream_step(st1, b2, bank, cfg)
    assert np.allclose(st2.centroids[bc > 0], bm[bc > 0], rtol=0, atol=1e-12)


def test_absent_cluster_keeps_prototype_and_shift():
    rng = np.random.default_rng(23)
    b1 = _unit_blobs(rng, (5, 5), [3, 0])
    b2 = _unit_blobs(rng, (6, 0), [3, 0])  # only the first blob shows up
    bank = umfc.TextBank(names=["a", "b"], data=np.eye(2))
    cfg = umfc.EngineConfig(clusters=2, mode="ema", eta=0.5, batch_size=10, seed=0)
    st = umfc.stream_init(cfg)
    _, st1 = umfc.stream_step(st, b1, bank, cfg)
    absent = 0 if st1.centroids[0, 0] < 0 else 1
    _, st2 = umfc.stream_step(st1, b2, bank, cfg)
    assert np.array_equal(st2.centroids[absent], st1.centroids[absent])
    assert np.array_equal(st2.calib_text_shifts[absent], st1.calib_text_shifts[absent])
    # the present cluster's shift did refresh
    other = 1 - absent
    assert not np.array_equal(st2.calib_text_shifts[other], st1.calib_text_shifts[other])


def test_bootstrap_batch_size_one():
    ds = small_benchmark()
    cfg = cfg2(clusters=3, batch_size=1)
    preds, state = umfc.run_stream(ds.images, ds.text_bank, cfg)
    assert len(preds) == ds.images.n
    flagged = np.flatnonzero(preds.flags & umfc.Predictions.UNCALIBRATED)
    assert flagged.tolist() == [0, 1, 2]
    assert (preds.clusters[:3] == -1).all()
    assert (preds.clusters[3:] >= 0).all()
    # the uncalibrated answers are plain zero-shot scores
    x = umfc.l2_normalize_rows(ds.images.data[:3])
    ref = umfc.classify_batch(x, ds.text_bank.data, cfg.tau)
    for i in range(3):
        assert np.allclose(preds[i].probs, ref[i], rtol=0, atol=1e-12)
    assert state.samples_seen == ds.images.n
    assert state.batches_seen == ds.images.n


def test_bootstrap_completing_batch_splits():
    ds = small_benchmark()
    cfg = cfg2(clusters=3, batch_size=2)
    st = umfc.stream_init(cfg)
    p1, st = umfc.stream_step(st, ds.images.data[:2], ds.text_bank, cfg)
    assert [p.flags for p in p1] == [("uncalibrated",), ("uncalibrated",)]
    assert st.centroids is None and st.bootstrap_buffer.shape == (2, 8)
    p2, st = umfc.stream_step(st, ds.images.data[2:4], ds.text_bank, cfg)
    # row 2 completed the seed set (still uncalibrated), row 3 went through
    # the fitted path
    assert p2[0].flags == ("uncalibrated",) and p2[0].cluster == -1
    assert p2[1].flags == () and p2[1].cluster >= 0
    assert st.centroids is not None and st.bootstrap_buffer is None
    assert st.samples_seen == 4 and st.batches_seen == 2
    # memory invariant: every prototype with members equals its running mean
    nz = st.counts > 0
    assert np.allclose(
        st.centroids[nz],
        st.running_sums[nz] / st.counts[nz, None],
        rtol=0,
        atol=1e-12,
    )


def test_bootstrap_first_batch_exactly_m():
    ds = small_benchmark()
    cfg = cfg2(clusters=4, batch_size=4)
    st = umfc.stream_init(cfg)
    p1, st1 = umfc.stream_step(st, ds.images.data[:4], ds.text_bank, cfg)
    # batch size == clusters: the kmeans path runs (nothing is buffered),
    # but every sample is its own singleton centroid, so all residuals
    # collapse and the rows fall back flagged "degenerate"
    assert all(p.flags == ("degenerate",) for p in p1)
    assert all(p.cluster >= 0 for p in p1)
    assert all(np.isfinite(p.probs).all() for p in p1)
    assert st1.centroids is not None
    assert st1.samples_seen == 4 and st1.batches_seen == 1
    # the next batch proceeds normally
    p2, st2 = umfc.stream_step(st1, ds.images.data[4:8], ds.text_bank, cfg)
    assert all(p.flags == () for p in p2)
    assert st2.samples_seen == 8


def test_empty_batch_leaves_state_untouched():
    ds = umfc.default_benchmark()
    cfg = umfc.EngineConfig(clusters=3)
    batch = ds.images.data[:100]
    empty_preds, st = umfc.stream_step(umfc.stream_init(cfg), batch[:0], ds.text_bank, cfg)
    assert len(empty_preds) == 0 and empty_preds.probs.shape == (0, ds.text_bank.k)
    assert st == umfc.stream_init(cfg)
    after, st_after = umfc.stream_step(st, batch, ds.text_bank, cfg)
    fresh, st_fresh = umfc.stream_step(umfc.stream_init(cfg), batch, ds.text_bank, cfg)
    assert not (after.flags & umfc.Predictions.UNCALIBRATED).any()
    assert np.array_equal(st_after.centroids, st_fresh.centroids)
    for name in ("probs", "labels", "clusters", "flags"):
        assert np.array_equal(getattr(after, name), getattr(fresh, name))
    # past the bootstrap an empty batch changes nothing either
    again_preds, again = umfc.stream_step(st_after, batch[:0], ds.text_bank, cfg)
    assert len(again_preds) == 0 and again is st_after


def test_degenerate_row_flagged_not_fatal():
    rng = np.random.default_rng(24)
    # eleven unit rows about one direction and a lone one far from them,
    # which k-means makes a cluster of its own: its mean is that row
    base = _unit_blobs(rng, (11, 1), [2, 0])
    bank = umfc.TextBank(names=["a", "b"], data=np.eye(2))
    cfg = umfc.EngineConfig(clusters=2, batch_size=12, seed=0)
    _, st = umfc.run_stream(base, bank, cfg)
    assert sorted(st.counts.tolist()) == [1, 11]
    # a sample exactly on a prototype has no direction left after centering
    probe = base[-1:]
    assert np.array_equal(probe[0], st.centroids[st.counts.tolist().index(1)])
    preds, _ = umfc.stream_step(st, probe, bank, cfg)
    assert preds[0].flags == ("degenerate",)
    assert np.isfinite(preds[0].probs).all()


def test_run_stream_checks_its_rows_for_nan_once(monkeypatch):
    # the batches it hands stream_step are rows it has already checked
    ds = small_benchmark()
    calls = []
    check = umfc.core._check_finite
    monkeypatch.setattr(umfc.core, "_check_finite", lambda *a: calls.append(a) or check(*a))
    umfc.run_stream(ds.images.data, ds.text_bank, cfg2(batch_size=16))
    assert len(calls) == 1


def _unit_rule_cases():
    """(rows, bank) pairs: the default synth and a 512-d one."""
    ds = umfc.default_benchmark()
    rng = np.random.default_rng(5)
    wide = umfc.TextBank(names=["a", "b", "c"], data=rng.standard_normal((3, 512)))
    return [(ds.images.data, ds.text_bank), (rng.standard_normal((300, 512)), wide)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", [0, 1], ids=["synth", "dim512"])
def test_unit_rows_are_taken_as_they_are(dtype, case):
    x, bank = _unit_rule_cases()[case]
    u = umfc.l2_normalize_rows(x.astype(dtype))
    assert engine._rows(u, bank) is u
    assert engine._rows(umfc.EmbeddingMatrix(data=u), bank) is u


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_transduce_of_unit_rows_has_the_bits_of_the_raw_rows(dtype):
    ds = small_benchmark()
    x = ds.images.data.astype(dtype)
    raw_preds, raw_state = umfc.transduce(x, ds.text_bank, cfg2())
    preds, state = umfc.transduce(umfc.l2_normalize_rows(x), ds.text_bank, cfg2())
    for name in ("labels", "top", "clusters", "flags"):
        assert getattr(preds, name).tobytes() == getattr(raw_preds, name).tobytes()
    for name, *_ in engine._STATE_ARRAYS:
        a, b = getattr(state, name), getattr(raw_state, name)
        assert (a is None and b is None) or a.tobytes() == b.tobytes()


# past the tolerance of the dtype: 8 float32 epsilons, and for float64,
# whose tolerance grows with the dimension, 2**-40
@pytest.mark.parametrize("dtype, scale", [(np.float32, 1 + 8 * np.finfo(np.float32).eps),
                                          (np.float64, 1 + 2.0**-40)])
@pytest.mark.parametrize("case", [0, 1], ids=["synth", "dim512"])
def test_rows_just_off_unit_are_normalized(dtype, scale, case):
    x, bank = _unit_rule_cases()[case]
    v = umfc.l2_normalize_rows(x.astype(dtype)) * dtype(scale)
    out = engine._rows(v, bank)
    assert out is not v and out.tobytes() == umfc.l2_normalize_rows(v).tobytes()


def test_run_stream_partial_final_batch():
    ds = small_benchmark()
    cfg = cfg2(batch_size=7)
    preds, state = umfc.run_stream(ds.images, ds.text_bank, cfg)
    assert len(preds) == ds.images.n
    assert state.batches_seen == -(-ds.images.n // 7)


def test_property_relabel_invariance_small():
    check_relabel_invariance(100)


def test_property_snapshot_roundtrip_small(tmp_path):
    check_snapshot_roundtrip(60, tmpdir=str(tmp_path))


# --- float32 rows -------------------------------------------------------------

FLOAT64_ARRAYS = ("centroids", "running_sums", "global_sum", "calib_global_mean",
                  "calib_text_shifts", "bootstrap_buffer")


@pytest.mark.parametrize("batch_size", [1, 7])
def test_float32_stream_keeps_every_state_array_float64(tmp_path, batch_size):
    # batch size 1 seeds the clusters from the bootstrap buffer, 7 runs k-means
    ds = small_benchmark()
    x = ds.images.data.astype(np.float32)
    cfg = cfg2(clusters=3, batch_size=batch_size)
    batches = [umfc.EmbeddingMatrix(x[i : i + batch_size])
               for i in range(0, x.shape[0], batch_size)]
    assert batches[0].data.dtype == np.float32
    half = len(batches) // 2
    preds, state = [], umfc.stream_init(cfg)
    for i, batch in enumerate(batches):
        p, state = umfc.stream_step(state, batch, ds.text_bank, cfg)
        preds.append(p)
        for name in FLOAT64_ARRAYS:
            arr = getattr(state, name)
            assert arr is None or arr.dtype == np.float64, (i, name)
        assert state.counts is None or state.counts.dtype == np.int64
        if state.centroids is not None:
            _assert_memory_invariant(state)
            assert np.array_equal(state.calib_global_mean, state.global_sum / state.samples_seen)
        if i == half:
            umfc.snapshot_state(state, cfg, tmp_path / "s.state")
    # the snapshot taken halfway resumes bit for bit
    resumed, rcfg = umfc.restore_state(tmp_path / "s.state")
    resumed_preds = []
    for batch in batches[half + 1 :]:
        p, resumed = umfc.stream_step(resumed, batch, ds.text_bank, rcfg)
        resumed_preds.append(p)
    for name in FLOAT64_ARRAYS + ("counts",):
        a, b = getattr(resumed, name), getattr(state, name)
        assert (a is None and b is None) or a.tobytes() == b.tobytes(), name
    got = umfc.Predictions.concat(resumed_preds)
    want = umfc.Predictions.concat(preds[half + 1 :])
    for name in ("probs", "labels", "clusters", "flags"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_float32_transduce_within_the_tolerance_of_the_float64_oracle():
    # noisy rows at tau 0.05: probabilities well below 1 and top-2 margins
    # down to about 2e-4, so the bounds of the engine's precision note are
    # tested where they bite
    ds = umfc.generate_benchmark(umfc.SynthSpec(noise_sigma=0.5, samples_per_cell=20))
    x32 = ds.images.data.astype(np.float32)
    wide = dataclasses.replace(ds, images=umfc.EmbeddingMatrix(x32.astype(np.float64)))
    cfg = umfc.EngineConfig(clusters=3, tau=0.05)
    oracle, ostate = umfc.oracle_transduce(wide, cfg)
    preds, _ = umfc.transduce(x32, ds.text_bank, cfg)
    # the argument presumes the clusters k-means gives the widened rows
    assert np.array_equal(preds.clusters, oracle.clusters)
    x = umfc.l2_normalize_rows(wide.images.data)
    rho = np.linalg.norm(x - ostate.centroids[oracle.clusters], axis=1).min()
    delta = (x.shape[1] + 8 + 8 / rho) * 2.0**-24
    # c_1 - c_2 = tau log(p_1 / p_2) of the float64 cosines
    top2 = np.sort(oracle.probs, axis=1)[:, -2:]
    margin = cfg.tau * np.log(top2[:, 1] / top2[:, 0])
    assert margin.min() < 1e-3
    wide_margin = margin >= 2 * delta
    assert np.array_equal(preds.labels[wide_margin], oracle.labels[wide_margin])
    growth = np.expm1(2 * delta / cfg.tau)
    assert (np.abs(preds.top - oracle.top) <= oracle.top * growth).all()
    # every log-probability, not just the top one, moves by at most 2 delta / tau
    assert (np.abs(np.log(preds.probs) - np.log(oracle.probs)) <= 2 * delta / cfg.tau).all()


@pytest.mark.parametrize("tau", [1e-300, 1e-40, 1e300])
def test_float32_transduce_at_a_tau_past_the_float32_range(tau):
    # 1 / tau over- or underflows float32; the scale is clamped to its
    # range, so the mass goes to the top cosine, or spreads evenly, as it
    # does for the same rows in float64
    ds = umfc.generate_benchmark(umfc.SynthSpec())
    x32 = ds.images.data.astype(np.float32)
    cfg = umfc.EngineConfig(clusters=3, tau=tau)
    preds, _ = umfc.transduce(x32, ds.text_bank, cfg)
    wide, _ = umfc.transduce(x32.astype(np.float64), ds.text_bank, cfg)
    assert np.isfinite(preds.probs).all() and np.isfinite(preds.top).all()
    # each float32 probability is rounded once, and so is their sum
    sums = preds.probs.sum(axis=1)
    assert (np.abs(sums - 1.0) <= ds.text_bank.k * 2.0**-24).all()
    assert np.array_equal(preds.labels, wide.labels)
