"""Row-block passes: the block size changes no result and bounds memory."""

import dataclasses
import sys
import time
import tracemalloc

import numpy as np
import pytest

import umfc
from umfc import cli, core
from umfc.clustering import _cluster_sums

SMALL_BLOCK = 7  # odd, so blocks end at every remainder of a 4-row BLAS kernel
ONE_BLOCK = 1 << 30
DEFAULT_BLOCK = core.CHUNK_ROWS


def _spec():
    # 60 rows: eight full blocks of SMALL_BLOCK and a 4-row remainder
    return umfc.SynthSpec(n_classes=5, n_domains=3, dim=16, samples_per_cell=4, seed=2)


def _at_block_size(monkeypatch, rows, fn):
    monkeypatch.setattr(core, "CHUNK_ROWS", rows)
    return fn()


def _assert_same_predictions(a, b):
    # labels, clusters and flags must be bit-identical; probs come from a
    # BLAS matrix product whose rows can move by an ulp or so when the
    # product is split into other row blocks
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.clusters, b.clusters)
    assert np.array_equal(a.flags, b.flags)
    assert a.probs.shape == b.probs.shape
    np.testing.assert_allclose(a.probs, b.probs, rtol=0, atol=1e-12)


def test_row_blocks_cover_rows_in_order(monkeypatch):
    monkeypatch.setattr(core, "CHUNK_ROWS", SMALL_BLOCK)
    blocks = list(core.row_blocks(23))
    assert [(b.start, b.stop) for b in blocks] == [(0, 7), (7, 14), (14, 21), (21, 23)]
    assert list(core.row_blocks(0)) == []


def test_normalize_rows_bit_identical_across_block_sizes(monkeypatch):
    m = np.random.default_rng(4).standard_normal((60, 16))
    small = _at_block_size(monkeypatch, SMALL_BLOCK, lambda: umfc.l2_normalize_rows(m))
    whole = _at_block_size(monkeypatch, ONE_BLOCK, lambda: umfc.l2_normalize_rows(m))
    assert np.array_equal(small, whole)


def test_normalize_rows_reports_global_row_index(monkeypatch):
    m = np.ones((20, 3))
    m[9] = 0.0  # second block at SMALL_BLOCK
    monkeypatch.setattr(core, "CHUNK_ROWS", SMALL_BLOCK)
    with pytest.raises(umfc.DegenerateVector, match="row 9 "):
        umfc.l2_normalize_rows(m)


def test_transduce_same_across_block_sizes(monkeypatch):
    ds = umfc.generate_benchmark(_spec())
    cfg = umfc.EngineConfig(clusters=3)
    small = _at_block_size(monkeypatch, SMALL_BLOCK, lambda: umfc.transduce(ds.images, ds.text_bank, cfg))
    whole = _at_block_size(monkeypatch, ONE_BLOCK, lambda: umfc.transduce(ds.images, ds.text_bank, cfg))
    _assert_same_predictions(small[0], whole[0])
    for name in ("calib_global_mean", "calib_text_shifts", "centroids", "counts"):
        assert np.array_equal(getattr(small[1], name), getattr(whole[1], name))


def test_predict_same_across_block_sizes_with_degenerate_row(monkeypatch):
    ds = umfc.generate_benchmark(_spec())
    cfg = umfc.EngineConfig(clusters=3)
    state = umfc.fit_unsupervised(ds.images, ds.text_bank, cfg)
    # put cluster 0's mean on row 9 (in the second block), so that row
    # calibrates to a zero residual; the accumulators, which no longer
    # give the means, are dropped
    means = state.centroids.copy()
    means[0] = umfc.l2_normalize_rows(ds.images.data[9:10])[0]
    state = dataclasses.replace(
        state, centroids=means, calib_text_shifts=means - state.calib_global_mean,
        running_sums=None, global_sum=None,
    )

    def run():
        return umfc.predict(state, ds.images, ds.text_bank, cfg)

    small = _at_block_size(monkeypatch, SMALL_BLOCK, run)
    whole = _at_block_size(monkeypatch, ONE_BLOCK, run)
    _assert_same_predictions(small, whole)
    degenerate = np.flatnonzero(small.flags & umfc.Predictions.DEGENERATE)
    assert degenerate.tolist() == [9]


def test_read_embeddings_bit_identical_across_block_sizes(monkeypatch, tmp_path):
    ds = umfc.generate_benchmark(_spec())
    path = tmp_path / "m.bin"
    umfc.write_embeddings(ds.images, path)
    small = _at_block_size(monkeypatch, SMALL_BLOCK, lambda: umfc.read_embeddings(path))
    whole = _at_block_size(monkeypatch, ONE_BLOCK, lambda: umfc.read_embeddings(path))
    assert np.array_equal(small.data, whole.data)
    assert np.array_equal(small.data, ds.images.data.astype(np.float32).astype(np.float64))
    assert small.ids == whole.ids
    assert np.array_equal(small.class_labels, whole.class_labels)


def test_transduce_traced_peak_within_twice_input_plus_probs():
    ds = umfc.generate_benchmark(
        umfc.SynthSpec(n_classes=50, n_domains=4, dim=64, samples_per_cell=100)
    )
    n, d = ds.images.data.shape
    k = ds.text_bank.k
    assert (n, d, k) == (20_000, 64, 50)
    cfg = umfc.EngineConfig(clusters=4)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        umfc.transduce(ds.images, ds.text_bank, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the normalized copy of the input and the N x K probabilities, twice
    assert peak <= 2 * (n * d * 8 + n * k * 8)


@pytest.mark.parametrize("rows", [SMALL_BLOCK, ONE_BLOCK])
def test_normalize_rows_in_place_bit_identical(monkeypatch, rows):
    monkeypatch.setattr(core, "CHUNK_ROWS", rows)
    m = np.random.default_rng(5).standard_normal((60, 16))
    copied = umfc.l2_normalize_rows(m)
    assert umfc.l2_normalize_rows(m, out=m) is m
    assert m.tobytes() == copied.tobytes()


def test_normalize_rows_rejects_mismatched_out():
    m = np.ones((4, 3))
    with pytest.raises(ValueError):
        umfc.l2_normalize_rows(m, out=np.empty((4, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        umfc.l2_normalize_rows(m, out=np.empty((3, 3)))


def _per_cluster_sums(x, labels, m):
    # one np.sum over each cluster's rows: the reference the blocked sums keep
    sums = np.zeros((m, x.shape[1]))
    for j in range(m):
        if np.any(labels == j):
            sums[j] = np.sum(x[labels == j], axis=0)
    return sums


# 4096, the block size before 1024, holds all 3,077 rows in one block
@pytest.mark.parametrize("rows", [SMALL_BLOCK, DEFAULT_BLOCK, 4096])
def test_cluster_sums_bit_identical_to_one_sum_per_cluster(monkeypatch, rows):
    monkeypatch.setattr(core, "CHUNK_ROWS", rows)
    rng = np.random.default_rng(6)
    n = 3 * DEFAULT_BLOCK + 5
    x = rng.standard_normal((n, 8)) * 10.0 ** rng.integers(-8, 8, size=(n, 1))
    labels = rng.integers(0, 4, size=n)  # cluster 4 stays empty
    # a column of -0.0 only: its sum takes the sign np.sum gives it
    x[labels == 2, 0] = -0.0
    sums, counts = _cluster_sums(x, labels, 5)
    assert sums.tobytes() == _per_cluster_sums(x, labels, 5).tobytes()
    assert np.array_equal(counts, np.bincount(labels, minlength=5))


def _clustered_rows(n, d, seed):
    # four well-separated blobs, so several Lloyd steps run and converge
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)) + 4.0 * rng.standard_normal((4, d))[rng.integers(0, 4, n)]


def test_kmeans_same_across_block_sizes(monkeypatch):
    x = _clustered_rows(3 * DEFAULT_BLOCK + 5, 8, 7)
    fits = {}
    for rows in (SMALL_BLOCK, DEFAULT_BLOCK, ONE_BLOCK):
        monkeypatch.setattr(core, "CHUNK_ROWS", rows)
        model, labels = umfc.kmeans_fit(x, 6, seed=3)
        fits[rows] = model, labels, umfc.assign_batch(model.centroids, x)
    whole, whole_labels, _ = fits[ONE_BLOCK]
    assert len(whole.inertia_history) > 1
    for model, labels, assigned in fits.values():
        assert labels.tobytes() == whole_labels.tobytes()
        assert assigned.tobytes() == whole_labels.tobytes()
        assert model.centroids.tobytes() == whole.centroids.tobytes()
        assert np.bincount(labels).tobytes() == np.bincount(whole_labels).tobytes()
        np.testing.assert_allclose(model.inertia_history, whole.inertia_history, rtol=1e-12, atol=0)


@pytest.mark.parametrize("rows", [SMALL_BLOCK, DEFAULT_BLOCK, ONE_BLOCK])
def test_float32_normalize_and_cluster_sums_bit_identical_across_block_sizes(monkeypatch, rows):
    monkeypatch.setattr(core, "CHUNK_ROWS", rows)
    rng = np.random.default_rng(6)
    n = 3 * DEFAULT_BLOCK + 5
    x = (rng.standard_normal((n, 8)) * 10.0 ** rng.integers(-8, 8, size=(n, 1))).astype(np.float32)
    labels = rng.integers(0, 4, size=n)
    wide = x.astype(np.float64)
    # each row is its float64 quotient rounded once, in place or not
    normalized = umfc.l2_normalize_rows(x)
    assert normalized.dtype == np.float32
    rounded = (wide / np.linalg.norm(wide, axis=1)[:, None]).astype(np.float32)
    assert normalized.tobytes() == rounded.tobytes()
    assert umfc.l2_normalize_rows(x.copy(), out=x).tobytes() == normalized.tobytes()
    # float32 rows sum to the bits of one float64 sum of their widening
    sums, counts = _cluster_sums(normalized, labels, 5)
    assert sums.tobytes() == _per_cluster_sums(normalized.astype(np.float64), labels, 5).tobytes()
    assert np.array_equal(counts, np.bincount(labels, minlength=5))


def test_float32_kmeans_same_across_block_sizes(monkeypatch):
    x = _clustered_rows(3 * DEFAULT_BLOCK + 5, 8, 7).astype(np.float32)
    fits = {}
    for rows in (SMALL_BLOCK, DEFAULT_BLOCK, ONE_BLOCK):
        monkeypatch.setattr(core, "CHUNK_ROWS", rows)
        model, labels = umfc.kmeans_fit(x, 6, seed=3)
        fits[rows] = model, labels, umfc.assign_batch(model.centroids, x)
    whole, whole_labels, _ = fits[ONE_BLOCK]
    assert len(whole.inertia_history) > 1 and whole.centroids.dtype == np.float64
    for model, labels, assigned in fits.values():
        assert labels.tobytes() == whole_labels.tobytes()
        assert assigned.tobytes() == whole_labels.tobytes()
        assert model.centroids.tobytes() == whole.centroids.tobytes()
        np.testing.assert_allclose(model.inertia_history, whole.inertia_history, rtol=1e-12, atol=0)


def test_kmeans_traced_peak_within_n_by_m():
    n, d, m = 20_000, 64, 16
    x = _clustered_rows(n, d, 8)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        umfc.kmeans_fit(x, m, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # length-N labels and distances and one block's CHUNK_ROWS x M
    # scratch; an assignment over all rows at once holds N x M
    # temporaries, over twice n * m * 8 bytes
    assert peak <= n * m * 8


def test_write_predictions_traced_peak_within_one_megabyte(tmp_path):
    n, k = 20_000, 50
    rng = np.random.default_rng(6)
    preds = umfc.Predictions(probs=None, labels=rng.integers(0, k, n), clusters=rng.integers(0, 4, n),
                             flags=rng.integers(0, 4, n).astype(np.uint8), top=rng.random(n))
    ids = [str(i) for i in range(n)]
    names = [f"class_{c:03d}" for c in range(k)]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cli._write_predictions(tmp_path / "p.tsv", preds, ids, names)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one row block's lines at a time; the whole 0.84 MB file as a list of
    # lines, a joined str and its encoding holds several times that
    assert peak <= 1 << 20


def test_cli_transduce_traced_peak_within_input_plus_probs(tmp_path):
    ds = umfc.generate_benchmark(
        umfc.SynthSpec(n_classes=50, n_domains=4, dim=64, samples_per_cell=100)
    )
    n, d = ds.images.data.shape
    k = ds.text_bank.k
    assert (n, d, k) == (20_000, 64, 50)
    umfc.write_embeddings(ds.images, tmp_path / "images.bin")
    umfc.write_text_bank(ds.text_bank, tmp_path / "bank.bin", tmp_path / "names.txt")
    argv = ["transduce", "--test", str(tmp_path / "images.bin"), "--bank", str(tmp_path / "bank.bin"),
            "--names", str(tmp_path / "names.txt"), "--out", str(tmp_path / "preds.tsv"),
            "--report", str(tmp_path / "report.tsv"), "--clusters", "4"]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the input, normalized where it was read, and the N x K probabilities;
    # a second float64 copy of the input alone adds 0.56 to the ratio
    assert peak <= 1.0 * (n * d * 8 + n * k * 8)


def test_cli_transduce_traced_peak_holds_no_float64_copy_of_the_input(tmp_path):
    ds = umfc.generate_benchmark(
        umfc.SynthSpec(n_classes=50, n_domains=4, dim=64, samples_per_cell=100)
    )
    n, d = ds.images.data.shape
    k = ds.text_bank.k
    assert (n, d, k) == (20_000, 64, 50)
    umfc.write_embeddings(ds.images, tmp_path / "images.bin")
    umfc.write_text_bank(ds.text_bank, tmp_path / "bank.bin", tmp_path / "names.txt")
    argv = ["transduce", "--test", str(tmp_path / "images.bin"), "--bank", str(tmp_path / "bank.bin"),
            "--names", str(tmp_path / "names.txt"), "--out", str(tmp_path / "preds.tsv"),
            "--report", str(tmp_path / "report.tsv"), "--clusters", "4"]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the float32 input, normalized where it was read, is 0.28 of the
    # ratio; a float64 copy of it adds 0.56
    assert peak <= 0.7 * (n * d * 8 + n * k * 8)


def _outlier_images():
    # row 9 (in the second block at SMALL_BLOCK) points away from every
    # other row; at 6 clusters and seed 0 it is a cluster of its own, so
    # its residual is zero and it is flagged DEGENERATE
    ds = umfc.generate_benchmark(_spec())
    x = umfc.l2_normalize_rows(ds.images.data)
    x[9] = -umfc.l2_normalize_rows(x.mean(axis=0)[None, :])[0]
    return x, ds.text_bank, umfc.EngineConfig(clusters=6)


def _assert_top1_bit_identical(top1, full):
    assert top1.probs is None
    assert np.flatnonzero(full.flags & umfc.Predictions.DEGENERATE).tolist() == [9]
    for name in ("labels", "top", "clusters", "flags"):
        assert getattr(top1, name).tobytes() == getattr(full, name).tobytes(), name
    assert full.top.tobytes() == full.probs[np.arange(len(full)), full.labels].tobytes()


def _float64_and_float32(x):
    # float32 rows are scored in float32: without probs, labels and top
    # come from a float32 block, with them from its widening
    return x, x.astype(np.float32)


def test_transduce_top1_bit_identical_to_full_probs(monkeypatch):
    monkeypatch.setattr(core, "CHUNK_ROWS", SMALL_BLOCK)
    x, bank, cfg = _outlier_images()
    for rows in _float64_and_float32(x):
        full, _ = umfc.transduce(rows, bank, cfg)
        top1, _ = umfc.transduce(rows, bank, cfg, keep_probs=False)
        _assert_top1_bit_identical(top1, full)


def test_predict_top1_bit_identical_to_full_probs(monkeypatch):
    monkeypatch.setattr(core, "CHUNK_ROWS", SMALL_BLOCK)
    x, bank, cfg = _outlier_images()
    for rows in _float64_and_float32(x):
        state = umfc.fit_unsupervised(rows, bank, cfg)
        full = umfc.predict(state, rows, bank, cfg)
        top1 = umfc.predict(state, rows, bank, cfg, keep_probs=False)
        _assert_top1_bit_identical(top1, full)


@pytest.mark.parametrize("batch_size", [1, 7])
def test_run_stream_top1_bit_identical_to_full_probs(batch_size):
    # batch size 1 answers the first rows zero-shot, 7 clusters them at once
    x, bank, cfg = _outlier_images()
    cfg = dataclasses.replace(cfg, batch_size=batch_size)
    for rows in _float64_and_float32(x):
        full, _ = umfc.run_stream(rows, bank, cfg)
        top1, _ = umfc.run_stream(rows, bank, cfg, keep_probs=False)
        assert top1.probs is None
        for name in ("labels", "top", "clusters", "flags"):
            assert getattr(top1, name).tobytes() == getattr(full, name).tobytes(), name


@pytest.fixture(scope="module")
def peak_files(tmp_path_factory):
    """20,000 x 64 rows, 50 classes, and a 4-cluster fit state of them."""
    ds = umfc.generate_benchmark(
        umfc.SynthSpec(n_classes=50, n_domains=4, dim=64, samples_per_cell=100)
    )
    assert (ds.images.n, ds.images.dim, ds.text_bank.k) == (20_000, 64, 50)
    d = tmp_path_factory.mktemp("peak")
    umfc.write_embeddings(ds.images, d / "images.bin")
    umfc.write_text_bank(ds.text_bank, d / "bank.bin", d / "names.txt")
    files = ["--bank", str(d / "bank.bin"), "--names", str(d / "names.txt")]
    assert cli.main(["fit", "--train", str(d / "images.bin"), *files,
                     "--out-state", str(d / "s.state"), "--clusters", "4"]) == 0
    return d, files


@pytest.mark.parametrize("command", [
    ["transduce", "--report", "{d}/report.tsv", "--clusters", "4"],
    ["predict", "--state", "{d}/s.state"],
    ["sweep", "clusters", "--values", "4"],
    ["sweep", "batch-size", "--values", "100"],
    ["sweep", "batch-size", "--values", "20000"],
    ["sweep", "eta", "--values", "0.5"],
    ["diagnose", "hist"],
    ["stream", "--batch-size", "20000", "--clusters", "4"],
], ids=["transduce", "predict", "sweep", "sweep-batch-size", "sweep-one-batch", "sweep-eta", "hist",
        "stream"])
def test_cli_top1_traced_peak_within_input_plus_probs(peak_files, command):
    d, files = peak_files
    n, dim, k = 20_000, 64, 50
    argv = [a.format(d=d) for a in command] + ["--test", str(d / "images.bin"), *files,
                                               "--out", str(d / "out.tsv")]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the input, normalized where it was read, and no N x K probabilities:
    # holding them adds 0.44 to the ratio, a normalized copy of the input 0.56
    assert peak <= 1.15 * (n * dim * 8 + n * k * 8)


def test_cli_fit_then_predict_matches_transduce_across_blocks(monkeypatch, tmp_path):
    monkeypatch.setattr(core, "CHUNK_ROWS", SMALL_BLOCK)
    ds = umfc.default_benchmark()
    umfc.write_embeddings(ds.images, tmp_path / "images.bin")
    umfc.write_text_bank(ds.text_bank, tmp_path / "bank.bin", tmp_path / "names.txt")
    files = ["--bank", str(tmp_path / "bank.bin"), "--names", str(tmp_path / "names.txt")]
    images = str(tmp_path / "images.bin")
    assert cli.main(["transduce", "--test", images, *files, "--clusters", "3",
                     "--out", str(tmp_path / "t.tsv")]) == 0
    assert cli.main(["fit", "--train", images, *files, "--clusters", "3",
                     "--out-state", str(tmp_path / "s.state")]) == 0
    assert cli.main(["predict", "--state", str(tmp_path / "s.state"), "--test", images, *files,
                     "--out", str(tmp_path / "p.tsv")]) == 0
    assert (tmp_path / "p.tsv").read_bytes() == (tmp_path / "t.tsv").read_bytes()


# --- the block executor (core._for_blocks) --------------------------------


@pytest.fixture
def workers(monkeypatch):
    """workers(w): run pooled passes on w workers.  Where no OpenBLAS
    thread count can be set, a stand-in lets the pooled path run anyway."""
    if core._find_blas() is None:
        count = [1]
        monkeypatch.setattr(core, "_blas", (lambda: count[0], lambda w: count.__setitem__(0, w)))

    def use(w):
        monkeypatch.setattr(core, "_worker_count", lambda: w)

    return use


def _by_workers(workers, fn):
    """fn() on one worker and then on two; both results."""
    out = []
    for w in (1, 2):
        workers(w)
        out.append(fn())
    return out


def _assert_bytes_equal(a, b, names):
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or x.tobytes() == y.tobytes(), name


PRED_COLUMNS = ("probs", "labels", "top", "clusters", "flags")
STATE_ARRAYS = ("centroids", "counts", "running_sums", "global_sum", "calib_global_mean",
                "calib_text_shifts")


def test_transduce_bit_identical_on_one_and_two_workers(monkeypatch, workers):
    monkeypatch.setattr(core, "CHUNK_ROWS", SMALL_BLOCK)
    x, bank, cfg = _outlier_images()
    (p1, s1), (p2, s2) = _by_workers(workers, lambda: umfc.transduce(x, bank, cfg))
    assert core._pool is not None  # the second run was pooled
    _assert_bytes_equal(p1, p2, PRED_COLUMNS)
    _assert_bytes_equal(s1, s2, STATE_ARRAYS)


def test_fit_then_predict_bit_identical_on_one_and_two_workers(monkeypatch, workers):
    monkeypatch.setattr(core, "CHUNK_ROWS", SMALL_BLOCK)
    x, bank, cfg = _outlier_images()

    def fit_predict():
        state = umfc.fit_unsupervised(x, bank, cfg)
        return state, umfc.predict(state, x, bank, cfg), umfc.predict(state, x, bank, cfg,
                                                                         keep_probs=False)

    (s1, p1, t1), (s2, p2, t2) = _by_workers(workers, fit_predict)
    _assert_bytes_equal(s1, s2, STATE_ARRAYS)
    _assert_bytes_equal(p1, p2, PRED_COLUMNS)
    _assert_bytes_equal(t1, t2, PRED_COLUMNS)


def test_run_stream_bit_identical_on_one_and_two_workers(monkeypatch, workers):
    # batches of 25 rows are four blocks each
    monkeypatch.setattr(core, "CHUNK_ROWS", SMALL_BLOCK)
    x, bank, cfg = _outlier_images()
    cfg = dataclasses.replace(cfg, batch_size=25)
    (p1, s1), (p2, s2) = _by_workers(workers, lambda: umfc.run_stream(x, bank, cfg))
    _assert_bytes_equal(p1, p2, PRED_COLUMNS)
    _assert_bytes_equal(s1, s2, STATE_ARRAYS)


def test_kmeans_and_cluster_sums_bit_identical_on_one_and_two_workers(monkeypatch, workers):
    monkeypatch.setattr(core, "CHUNK_ROWS", 64)
    x = _clustered_rows(1000, 8, 9)
    (m1, l1), (m2, l2) = _by_workers(workers, lambda: umfc.kmeans_fit(x, 6, seed=3))
    assert len(m1.inertia_history) > 1
    assert m1.inertia_history == m2.inertia_history
    assert l1.tobytes() == l2.tobytes()
    _assert_bytes_equal(m1, m2, ("centroids",))
    assert np.bincount(l1).tobytes() == np.bincount(l2).tobytes()
    (sums1, counts1), (sums2, counts2) = _by_workers(workers, lambda: _cluster_sums(x, l1, 7))
    assert sums1.tobytes() == sums2.tobytes() == _per_cluster_sums(x, l1, 7).tobytes()
    assert counts1.tobytes() == counts2.tobytes()


@pytest.mark.parametrize("regime", ["transduce", "fit-predict", "run_stream"])
def test_float32_regimes_bit_identical_on_one_and_two_workers(monkeypatch, workers, regime):
    monkeypatch.setattr(core, "CHUNK_ROWS", SMALL_BLOCK)
    x, bank, cfg = _outlier_images()
    x = x.astype(np.float32)

    def run():
        if regime == "transduce":
            return umfc.transduce(x, bank, cfg)
        if regime == "fit-predict":
            state = umfc.fit_unsupervised(x, bank, cfg)
            return umfc.predict(state, x, bank, cfg), state
        # batches of 25 rows are four blocks each
        return umfc.run_stream(x, bank, dataclasses.replace(cfg, batch_size=25))

    (p1, s1), (p2, s2) = _by_workers(workers, run)
    assert core._pool is not None  # the second run was pooled
    assert p1.probs.dtype == s1.centroids.dtype == np.float64
    _assert_bytes_equal(p1, p2, PRED_COLUMNS)
    _assert_bytes_equal(s1, s2, STATE_ARRAYS)


def test_float32_kmeans_and_cluster_sums_bit_identical_on_one_and_two_workers(monkeypatch, workers):
    monkeypatch.setattr(core, "CHUNK_ROWS", 64)
    x = _clustered_rows(1000, 8, 9).astype(np.float32)
    (m1, l1), (m2, l2) = _by_workers(workers, lambda: umfc.kmeans_fit(x, 6, seed=3))
    assert len(m1.inertia_history) > 1
    assert m1.inertia_history == m2.inertia_history
    assert l1.tobytes() == l2.tobytes()
    _assert_bytes_equal(m1, m2, ("centroids",))
    assert np.bincount(l1).tobytes() == np.bincount(l2).tobytes()
    (sums1, _), (sums2, _) = _by_workers(workers, lambda: _cluster_sums(x, l1, 7))
    want = _per_cluster_sums(x.astype(np.float64), l1, 7)
    assert sums1.tobytes() == sums2.tobytes() == want.tobytes()


def test_pooled_pass_raises_from_the_lowest_block(monkeypatch, workers):
    monkeypatch.setattr(core, "CHUNK_ROWS", SMALL_BLOCK)
    workers(2)

    def fail_late_blocks(sl):
        # the first block to fail is slow, so the next one fails first
        if sl.start == 21:
            time.sleep(0.05)
        if sl.start >= 21:
            raise ValueError(f"block at {sl.start}")

    with pytest.raises(ValueError, match="block at 21$"):
        core._for_blocks(fail_late_blocks, 70)
    m = np.ones((60, 3))
    m[[9, 30, 52]] = 0.0
    with pytest.raises(umfc.DegenerateVector, match="row 9 "):
        umfc.l2_normalize_rows(m)


def test_failed_pass_restores_blas_and_starts_no_block_after_it_raises(monkeypatch, workers):
    monkeypatch.setattr(core, "CHUNK_ROWS", 1)
    workers(2)
    get_threads, set_threads = core._find_blas() or core._blas  # real, or the stand-in
    before = get_threads()
    set_threads(2)
    try:
        started, pinned = [], []

        def fail_at_five(sl):
            started.append(sl.start)
            pinned.append(get_threads())
            if sl.start == 5:
                raise ValueError("block at 5")
            if sl.start > 5:  # slow, so blocks are still pending when 5 raises
                time.sleep(0.01)

        with pytest.raises(ValueError, match="block at 5$"):
            core._for_blocks(fail_at_five, 200)
        assert get_threads() == 2 and set(pinned) == {1}
        count = len(started)
        time.sleep(0.05)
        assert len(started) == count < 200
        assert set(range(6)) <= set(started)
    finally:
        set_threads(before)


def test_pooled_read_names_the_lowest_nonfinite_row(monkeypatch, workers, tmp_path):
    monkeypatch.setattr(core, "CHUNK_ROWS", SMALL_BLOCK)
    workers(2)
    data = np.ones((60, 3), dtype="<f4")
    data[[11, 40], 1] = np.nan
    data[55, 0] = np.inf
    p = tmp_path / "m.bin"
    umfc.write_embeddings(umfc.EmbeddingMatrix(data=np.ones((60, 3))), p)
    p.write_bytes(p.read_bytes()[:20] + data.tobytes())
    with pytest.raises(umfc.NonFinitePayload, match="row 11 "):
        umfc.read_embeddings(p)


def test_every_block_runs_once_on_more_workers_than_cores(monkeypatch, workers):
    # workers take blocks from one shared queue: a lost update there would
    # run a block twice or skip one
    monkeypatch.setattr(core, "CHUNK_ROWS", 1)
    workers(8)
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        t0 = time.monotonic()
        core._for_blocks(lambda sl: seen.append(sl.start), 3000)
    finally:
        sys.setswitchinterval(interval)
    assert time.monotonic() - t0 < 60
    assert sorted(seen) == list(range(3000))


def test_pass_pins_blas_to_one_thread_and_restores_it(monkeypatch, workers):
    blas = core._find_blas()
    if blas is None:
        pytest.skip("no OpenBLAS thread count to read")
    get_threads, set_threads = blas
    monkeypatch.setattr(core, "CHUNK_ROWS", SMALL_BLOCK)
    workers(2)
    before = get_threads()
    set_threads(2)
    try:
        seen = []
        core._for_blocks(lambda sl: seen.append(get_threads()), 70)
        assert seen == [1] * 10
        assert get_threads() == 2
    finally:
        set_threads(before)


def test_one_block_runs_inline_without_a_pool(monkeypatch, workers):
    # 60 rows fit in one default block: no pass makes a pool or sets BLAS
    workers(2)
    monkeypatch.setattr(core, "_pool", None)
    calls = []  # a pooled pass would read and set the BLAS thread count
    monkeypatch.setattr(core, "_blas", (lambda: calls.append("get") or 2, calls.append))
    x, bank, cfg = _outlier_images()
    state = umfc.fit_unsupervised(x, bank, cfg)
    umfc.predict(state, x, bank, cfg)
    umfc.transduce(x, bank, dataclasses.replace(cfg, clusters=3))
    umfc.run_stream(x, bank, dataclasses.replace(cfg, batch_size=7))
    assert core._pool is None and calls == []
