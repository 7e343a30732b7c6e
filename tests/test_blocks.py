"""Row-block passes: the block size changes no result and bounds memory."""

import dataclasses
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
    # calibrates to a zero residual
    means = state.centroids.copy()
    means[0] = umfc.l2_normalize_rows(ds.images.data[9:10])[0]
    state = dataclasses.replace(
        state, centroids=means, calib_text_shifts=means - state.calib_global_mean
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
        assert model.counts.tobytes() == whole.counts.tobytes()
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


def test_transduce_top1_bit_identical_to_full_probs(monkeypatch):
    monkeypatch.setattr(core, "CHUNK_ROWS", SMALL_BLOCK)
    x, bank, cfg = _outlier_images()
    full, _ = umfc.transduce(x, bank, cfg)
    top1, _ = umfc.transduce(x, bank, cfg, keep_probs=False)
    _assert_top1_bit_identical(top1, full)


def test_predict_top1_bit_identical_to_full_probs(monkeypatch):
    monkeypatch.setattr(core, "CHUNK_ROWS", SMALL_BLOCK)
    x, bank, cfg = _outlier_images()
    state = umfc.fit_unsupervised(x, bank, cfg)
    full = umfc.predict(state, x, bank, cfg)
    top1 = umfc.predict(state, x, bank, cfg, keep_probs=False)
    _assert_top1_bit_identical(top1, full)


@pytest.mark.parametrize("batch_size", [1, 7])
def test_run_stream_top1_bit_identical_to_full_probs(batch_size):
    # batch size 1 answers the first rows zero-shot, 7 clusters them at once
    x, bank, cfg = _outlier_images()
    cfg = dataclasses.replace(cfg, batch_size=batch_size)
    full, _ = umfc.run_stream(x, bank, cfg)
    top1, _ = umfc.run_stream(x, bank, cfg, keep_probs=False)
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
    ["sweep", "--param", "clusters", "--values", "4"],
    ["sweep", "--param", "batch-size", "--values", "100"],
    ["sweep", "--param", "batch-size", "--values", "20000"],
    ["sweep", "--param", "eta", "--values", "0.5"],
    ["diagnose", "--which", "hist"],
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
