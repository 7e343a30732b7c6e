"""Randomized invariant checks shared by the unit and acceptance tests.

Each check_* function runs `cases` independently seeded trials and
asserts inside the loop, so a failure report carries the trial index.
The unit tests run them at small counts for fast iteration; the
acceptance suite runs every one of them at >= 1000 cases.
"""

import os
import tempfile

import numpy as np

import umfc
from umfc.engine import _predict_rows


def calibrate_row(t: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Text calibration of the single vector t: calibrate_bank of a one-row bank."""
    one = umfc.TextBank._unchecked(["t"], np.asarray(t, dtype=np.float64)[None, :])
    return umfc.calibrate_bank(one, shifts).data[0]


def check_normalize_idempotent(cases: int, seed: int = 101) -> None:
    """Normalizing an already normalized row changes nothing measurable."""
    rng = np.random.default_rng(seed)
    for i in range(cases):
        dim = int(rng.integers(1, 40))
        v = rng.standard_normal((1, dim)) * float(10.0 ** rng.integers(-3, 4))
        u = umfc.l2_normalize_rows(v)
        again = umfc.l2_normalize_rows(u)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12, f"case {i}: norm {np.linalg.norm(u)}"
        assert np.allclose(u, again, rtol=0, atol=1e-12), f"case {i}: not idempotent"


def check_softmax_argmax_tau_invariant(cases: int, seed: int = 202) -> None:
    """Temperature reshapes probabilities but never moves the argmax.

    Against the unit axes as the bank, a feature's cosines are its
    entries over its norm, so the feature sets the logits' order.
    """
    rng = np.random.default_rng(seed)
    for i in range(cases):
        k = int(rng.integers(2, 30))
        logits = rng.standard_normal(k)
        # clear winner so float reshuffling cannot flip a near-tie
        logits[rng.integers(k)] += 1.0
        ref = int(np.argmax(logits))
        for tau in (0.01, 0.37, 1.0, 55.0):
            probs = umfc.classify_batch(logits[None, :], np.eye(k), tau)[0]
            assert abs(probs.sum() - 1.0) < 1e-9, f"case {i}: sum {probs.sum()}"
            assert int(np.argmax(probs)) == ref, f"case {i}: argmax moved at tau={tau}"


def check_lloyd_monotone(cases: int, seed: int = 303) -> None:
    """Recorded within-cluster squared error never increases across
    iterations and ends at the objective of the returned model."""
    rng = np.random.default_rng(seed)
    for i in range(cases):
        n = int(rng.integers(8, 40))
        dim = int(rng.integers(2, 6))
        k = int(rng.integers(2, min(5, n)))
        x = rng.standard_normal((n, dim))
        model, labels = umfc.kmeans_fit(x, k, seed=int(rng.integers(2**31)))
        hist = model.inertia_history
        assert hist is not None and len(hist) >= 1
        for a, b in zip(hist, hist[1:]):
            assert b <= a + 1e-9 * max(1.0, abs(a)), f"case {i}: inertia rose {a} -> {b}"
        # the last entry is the returned model's objective
        objective = float(np.sum((x - model.centroids[labels]) ** 2))
        assert abs(hist[-1] - objective) <= 1e-9 * objective, f"case {i}: {hist[-1]} != {objective}"
        # the returned labels must be reproducible from the final centroids
        again = umfc.assign_batch(model.centroids, x)
        assert np.array_equal(again, labels), f"case {i}: assignment drifted"


def check_relabel_invariance(cases: int, seed: int = 404) -> None:
    """Permuting cluster identities leaves probabilities bit-identical.

    Covers both halves of the pipeline: the image side (residual against
    the same mean values) and the text side (shift rows are summed in a
    canonical order, so row order cannot matter), scoring against the
    built bank and in factored form.
    """
    rng = np.random.default_rng(seed)
    for i in range(cases):
        m = int(rng.integers(2, 6))
        dim = int(rng.integers(3, 8))
        k = int(rng.integers(2, 5))
        n = int(rng.integers(3, 12))
        feats = rng.standard_normal((n, dim))
        means = rng.standard_normal((m, dim))
        shifts = rng.standard_normal((m, dim))
        bank = rng.standard_normal((k, dim))
        clusters = rng.integers(0, m, size=n)

        perm = rng.permutation(m)
        moved_clusters = np.argsort(perm)[clusters]
        # against the bank built row by row, and in factored form
        for form in (lambda s: np.stack([calibrate_row(bank[j], s) for j in range(k)]),
                     lambda s: (bank, s)):
            base = _predict_rows(feats, clusters, means, form(shifts), tau=0.05)
            moved = _predict_rows(feats, moved_clusters, means[perm], form(shifts[perm]), tau=0.05)
            for a, b in zip(base, moved):
                assert a.label == b.label, f"case {i}: label changed under relabeling"
                assert np.array_equal(a.probs, b.probs), f"case {i}: probs changed under relabeling"


def _random_state(rng) -> tuple:
    m = int(rng.integers(2, 5))
    dim = int(rng.integers(3, 8))
    k = int(rng.integers(2, 5))
    counts = rng.integers(1, 50, size=m)
    seen = int(counts.sum())
    # the means are divided from the accumulators, as the update divides them
    sums = rng.standard_normal((m, dim)) * counts[:, None]
    global_sum = rng.standard_normal(dim) * seen
    state = umfc.StreamState(
        centroids=sums / counts[:, None],
        counts=counts,
        running_sums=sums,
        global_sum=global_sum,
        calib_global_mean=global_sum / seen,
        calib_text_shifts=rng.standard_normal((m, dim)),
        samples_seen=seen,
        batches_seen=int(rng.integers(1, 9)),
    )
    cfg = umfc.EngineConfig(
        clusters=m,
        tau=float(rng.uniform(0.005, 2.0)),
        eta=float(rng.uniform(0.01, 1.0)),
        mode="memory" if rng.integers(2) else "ema",
        batch_size=int(rng.integers(1, 200)),
        seed=int(rng.integers(2**31)),
    )
    return state, cfg, k, dim


def check_snapshot_roundtrip(cases: int, seed: int = 505, tmpdir=None) -> None:
    """Snapshot -> restore reproduces every array bit-for-bit, and a
    restored stream continues exactly like the uninterrupted one."""
    rng = np.random.default_rng(seed)
    own = tmpdir is None
    tmpdir = tmpdir or tempfile.mkdtemp(prefix="umfc-snap-")
    path = os.path.join(tmpdir, "state.bin")
    try:
        for i in range(cases):
            state, cfg, k, dim = _random_state(rng)
            umfc.snapshot_state(state, cfg, path)
            back, cfg2 = umfc.restore_state(path)
            assert cfg2 == cfg, f"case {i}: config changed"
            assert np.array_equal(back.centroids, state.centroids)
            assert np.array_equal(back.counts, state.counts)
            assert np.array_equal(back.running_sums, state.running_sums)
            assert np.array_equal(back.global_sum, state.global_sum)
            assert np.array_equal(back.calib_global_mean, state.calib_global_mean)
            assert np.array_equal(back.calib_text_shifts, state.calib_text_shifts)
            assert back.samples_seen == state.samples_seen
            assert back.batches_seen == state.batches_seen

            bank = umfc.TextBank(
                names=[f"c{j}" for j in range(k)], data=rng.standard_normal((k, dim))
            )
            batch = rng.standard_normal((int(rng.integers(1, 12)), dim))
            p_direct, s_direct = umfc.stream_step(state, batch, bank, cfg)
            p_resumed, s_resumed = umfc.stream_step(back, batch, bank, cfg)
            for a, b in zip(p_direct, p_resumed):
                assert a.label == b.label and np.array_equal(a.probs, b.probs), (
                    f"case {i}: continuation diverged"
                )
            assert np.array_equal(
                s_direct.calib_text_shifts, s_resumed.calib_text_shifts
            ), f"case {i}: continued state diverged"
    finally:
        if own:
            for name in os.listdir(tmpdir):
                os.unlink(os.path.join(tmpdir, name))
            os.rmdir(tmpdir)


def check_format_roundtrip(cases: int, seed: int = 606, tmpdir=None) -> None:
    """Embedding files survive a write/read cycle at float32 precision and
    every corruption mode raises its typed error."""
    rng = np.random.default_rng(seed)
    own = tmpdir is None
    tmpdir = tmpdir or tempfile.mkdtemp(prefix="umfc-fmt-")
    path = os.path.join(tmpdir, "m.bin")
    try:
        for i in range(cases):
            n = int(rng.integers(1, 12))
            dim = int(rng.integers(1, 10))
            data = rng.standard_normal((n, dim)).astype(np.float32).astype(np.float64)
            labeled = bool(rng.integers(2))
            mat = umfc.EmbeddingMatrix(
                data=data,
                class_labels=rng.integers(0, 5, size=n) if labeled else None,
                domain_labels=rng.integers(0, 3, size=n) if labeled else None,
            )
            umfc.write_embeddings(mat, path)
            back = umfc.read_embeddings(path)
            assert np.array_equal(back.data, data), f"case {i}: payload changed"
            if labeled:
                assert np.array_equal(back.class_labels, mat.class_labels)
                assert np.array_equal(back.domain_labels, mat.domain_labels)
            else:
                assert back.class_labels is None and back.domain_labels is None

            raw = bytearray(open(path, "rb").read())
            mode = int(rng.integers(4))
            bad = os.path.join(tmpdir, "bad.bin")
            if mode == 0:
                raw[0] ^= 0xFF
                expect = umfc.BadMagic
            elif mode == 1:
                # drop at least one payload byte; the header still promises all of them
                cut = int(rng.integers(0, n * dim * 4))
                raw = raw[: 20 + cut]
                expect = umfc.TruncatedPayload
            elif mode == 2:
                raw[4] = 99
                expect = umfc.UnsupportedVersion
            else:
                raw[20:24] = np.array([np.nan], dtype="<f4").tobytes()
                expect = umfc.NonFinitePayload
            with open(bad, "wb") as fh:
                fh.write(bytes(raw))
            try:
                umfc.read_embeddings(bad)
                raise AssertionError(f"case {i}: corruption mode {mode} went unnoticed")
            except expect:
                pass
            for leftover in (bad, bad + ".labels", path + ".labels"):
                if os.path.exists(leftover):
                    os.unlink(leftover)
    finally:
        if own:
            for name in os.listdir(tmpdir):
                os.unlink(os.path.join(tmpdir, name))
            os.rmdir(tmpdir)
