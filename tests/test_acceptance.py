"""Top-level acceptance checks, one test per shipping criterion.

Run with -v to get a pass/fail line per criterion.  Each test states its
tolerance inline; timed criteria measure wall-clock around the exact
region they constrain.
"""

import time

import numpy as np
import pytest

import umfc
from umfc import cli
from umfc.core import l2_normalize_rows

from properties import (
    check_format_roundtrip,
    check_lloyd_monotone,
    check_normalize_idempotent,
    check_relabel_invariance,
    check_snapshot_roundtrip,
    check_softmax_argmax_tau_invariant,
)


def _macro(preds, images) -> float:
    return umfc.per_domain_accuracy(preds, images.class_labels, images.domain_labels).overall()


@pytest.fixture(scope="module")
def bench():
    """Default benchmark: 10 classes x 3 domains x 50/cell, dim 32, sigma 0.05, seed 7."""
    return umfc.default_benchmark()


@pytest.fixture(scope="module")
def bench_files(tmp_path_factory):
    """The same benchmark written through the synth command."""
    prefix = str(tmp_path_factory.mktemp("acceptance") / "bench")
    assert cli.main(["synth", "--out-prefix", prefix, "--emit-domain-bank"]) == 0
    return prefix


def test_criterion_01_transductive_oracle_equivalence(bench):
    # engine vs store-everything reimplementation: probs within 1e-6,
    # labels identical, under 5 s
    cfg = umfc.EngineConfig(clusters=3)
    t0 = time.perf_counter()
    engine_preds, _ = umfc.transduce(bench.images, bench.text_bank, cfg)
    oracle_preds, _ = umfc.oracle_transduce(bench, cfg)
    elapsed = time.perf_counter() - t0

    ep = np.stack([p.probs for p in engine_preds])
    op = np.stack([p.probs for p in oracle_preds])
    assert np.max(np.abs(ep - op)) <= 1e-6
    assert [p.label for p in engine_preds] == [p.label for p in oracle_preds]
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_stream_full_batch_equals_transduce_cli(bench_files, tmp_path):
    # memory-mode stream with batch size = N against transduce, through
    # the command line: labels identical, probs within 1e-6, under 5 s
    t_out, s_out = tmp_path / "t.tsv", tmp_path / "s.tsv"
    base = ["--test", f"{bench_files}_images.bin", "--bank", f"{bench_files}_bank.bin",
            "--names", f"{bench_files}_names.txt", "--clusters", "3"]
    t0 = time.perf_counter()
    assert cli.main(["transduce", *base, "--out", str(t_out)]) == 0
    assert cli.main(["stream", *base, "--out", str(s_out),
                     "--mode", "memory", "--batch-size", "1500"]) == 0
    elapsed = time.perf_counter() - t0

    t_rows = [line.split("\t") for line in t_out.read_text().splitlines()]
    s_rows = [line.split("\t") for line in s_out.read_text().splitlines()]
    assert len(t_rows) == len(s_rows) == 1500
    assert [r[1] for r in t_rows] == [r[1] for r in s_rows]
    for tr, sr in zip(t_rows, s_rows):
        assert abs(float(tr[2]) - float(sr[2])) <= 1e-6
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_03_memory_mode_prototypes_are_exact_means():
    # 20 batches of 100: every prototype equals the mean of all rows
    # ever assigned to it, recomputed from scratch, within 1e-9
    spec = umfc.SynthSpec(n_classes=10, n_domains=4, dim=32, samples_per_cell=50, seed=7)
    ds = umfc.generate_benchmark(spec)
    assert ds.images.n == 2000
    cfg = umfc.EngineConfig(clusters=4, mode="memory", batch_size=100)
    preds, state = umfc.run_stream(ds.images, ds.text_bank, cfg)
    assert state.batches_seen == 20

    x = l2_normalize_rows(ds.images.data)
    assigned = np.array([p.cluster for p in preds])
    assert (assigned >= 0).all()
    for m in range(cfg.clusters):
        members = x[assigned == m]
        assert members.shape[0] > 0
        naive = members.mean(axis=0)
        assert np.max(np.abs(state.centroids[m] - naive)) <= 1e-9
        assert state.counts[m] == members.shape[0]
    assert np.max(np.abs(state.calib_global_mean - x.mean(axis=0))) <= 1e-9


def test_criterion_04_noiseless_recovery():
    # sigma=0, clusters = domains: calibrated same-class features agree
    # across domains to cosine >= 1 - 1e-9 and accuracy is exactly 1.0
    ds = umfc.generate_benchmark(umfc.SynthSpec(noise_sigma=0.0))
    cfg = umfc.EngineConfig(clusters=3)
    preds, state = umfc.transduce(ds.images, ds.text_bank, cfg)

    table = umfc.per_domain_accuracy(preds, ds.images.class_labels, ds.images.domain_labels)
    assert np.array_equal(table.accuracies, np.ones(3))

    x = l2_normalize_rows(ds.images.data)
    assigned = np.array([p.cluster for p in preds])
    calibrated = l2_normalize_rows(x - state.centroids[assigned])
    for c in range(10):
        rows = calibrated[np.asarray(ds.images.class_labels) == c]
        gram = rows @ rows.T  # includes every cross-domain pair
        assert gram.min() >= 1.0 - 1e-9


def test_criterion_05_calibration_beats_zero_shot(bench):
    cfg = umfc.EngineConfig(clusters=3)
    calibrated_preds, _ = umfc.transduce(bench.images, bench.text_bank, cfg)
    zero_shot_preds = umfc.oracle_zero_shot(bench)
    calibrated = _macro(calibrated_preds, bench.images)
    zero_shot = _macro(zero_shot_preds, bench.images)
    assert calibrated > zero_shot, f"{calibrated:.4f} vs {zero_shot:.4f}"


def test_criterion_06_transition_direction_fidelity(bench):
    refs = umfc.pairwise_directions(bench.true_transition_directions)
    noisy = umfc.transition_direction_check(bench.images, refs)
    off = ~np.eye(3, dtype=bool)
    assert np.all(noisy.cosines[off] >= 0.99)

    clean_ds = umfc.generate_benchmark(umfc.SynthSpec(noise_sigma=0.0))
    clean = umfc.transition_direction_check(clean_ds.images, refs)
    assert np.all(np.abs(clean.cosines[off] - 1.0) <= 1e-9)


def test_criterion_07_text_calibration_flattens_domain_bias(bench):
    raw = umfc.domain_bias_probe(bench.text_bank, bench.domain_anchor_texts)
    _, state = umfc.transduce(bench.images, bench.text_bank, umfc.EngineConfig(clusters=3))
    calibrated_bank = umfc.calibrate_bank(bench.text_bank, state.calib_text_shifts)
    cal = umfc.domain_bias_probe(calibrated_bank, bench.domain_anchor_texts)
    kl_raw = umfc.kl_to_uniform(raw.aggregate)
    kl_cal = umfc.kl_to_uniform(cal.aggregate)
    assert kl_cal < kl_raw, f"{kl_cal:.6e} vs {kl_raw:.6e}"


def test_criterion_08_robustness_sweeps_cli(bench, bench_files, tmp_path):
    base = ["--test", f"{bench_files}_images.bin", "--bank", f"{bench_files}_bank.bin",
            "--names", f"{bench_files}_names.txt", "--clusters", "3"]

    bs_out = tmp_path / "bs.tsv"
    assert cli.main(["sweep", "--param", "batch-size", "--values", "1,10,32,100",
                     *base, "--out", str(bs_out)]) == 0
    rows = [line.split("\t") for line in bs_out.read_text().splitlines()[1:]]
    accs = [float(r[2]) for r in rows]
    assert len(accs) == 4
    spread_points = (max(accs) - min(accs)) * 100.0
    assert spread_points <= 2.0, f"spread {spread_points:.2f} points"

    zero_shot = _macro(umfc.oracle_zero_shot(bench), bench.images)
    m_out = tmp_path / "m.tsv"
    assert cli.main(["sweep", "--param", "clusters", "--values", "2,3,6",
                     *base, "--out", str(m_out)]) == 0
    rows = [line.split("\t") for line in m_out.read_text().splitlines()[1:]]
    assert len(rows) == 3
    for r in rows:
        assert float(r[2]) > zero_shot, f"clusters={r[1]}: {r[2]} vs {zero_shot:.4f}"


def test_criterion_09_property_suite_1000_cases(tmp_path):
    cases = 1000
    t0 = time.perf_counter()
    check_normalize_idempotent(cases)
    check_softmax_argmax_tau_invariant(cases)
    check_lloyd_monotone(cases)
    check_relabel_invariance(cases)
    check_snapshot_roundtrip(cases, tmpdir=tmp_path)
    check_format_roundtrip(cases, tmpdir=tmp_path)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_10_throughput_100k_by_512():
    # 100k+ 512-dim rows against a 345-class bank through the
    # transductive path in under 10 s (generation not included)
    spec = umfc.SynthSpec(n_classes=345, n_domains=5, dim=512, samples_per_cell=58, seed=7)
    ds = umfc.generate_benchmark(spec)
    assert ds.images.n == 100050
    cfg = umfc.EngineConfig(clusters=5)

    t0 = time.perf_counter()
    preds, _ = umfc.transduce(ds.images, ds.text_bank, cfg)
    elapsed = time.perf_counter() - t0
    assert len(preds) == 100050
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
