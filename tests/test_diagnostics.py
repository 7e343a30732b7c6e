"""Accuracy tables, histograms, bias probe, direction check, subsampling."""

import numpy as np
import pytest

import umfc


def _preds(labels):
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    return umfc.Predictions(
        probs=np.eye(int(labels.max()) + 1)[labels],
        labels=labels,
        clusters=np.full(n, -1, dtype=np.int64),
        flags=np.zeros(n, dtype=np.uint8),
    )


def test_per_domain_accuracy_all_correct():
    y = np.array([0, 1, 2, 0])
    d = np.array([0, 0, 1, 1])
    table = umfc.per_domain_accuracy(_preds(y), y, d)
    assert np.array_equal(table.accuracies, [1.0, 1.0])
    assert table.overall() == 1.0


def test_per_domain_accuracy_macro_mean():
    # domain 0 fully right, domain 1 fully wrong: macro overall is 0.5
    y = np.array([0, 0, 1, 1])
    d = np.array([0, 0, 1, 1])
    got = _preds([0, 0, 0, 0])
    table = umfc.per_domain_accuracy(got, y, d)
    assert np.array_equal(table.accuracies, [1.0, 0.0])
    assert table.overall() == 0.5


def test_macro_vs_micro_unbalanced():
    # 1 sample in domain 0 (right), 3 in domain 1 (wrong):
    # macro (1 + 0)/2 = 0.5, micro 1/4
    y = np.array([0, 1, 1, 1])
    d = np.array([0, 1, 1, 1])
    table = umfc.per_domain_accuracy(_preds([0, 0, 0, 0]), y, d)
    assert table.overall() == 0.5
    assert table.overall(micro=True) == 0.25
    tsv = table.to_tsv()
    assert "overall_macro" in tsv and tsv.endswith("\n")
    assert "overall_micro" in table.to_tsv(micro=True)


def test_per_domain_accuracy_accepts_label_array():
    y = np.array([0, 1])
    d = np.array([0, 1])
    table = umfc.per_domain_accuracy(np.array([0, 1]), y, d)
    assert table.overall() == 1.0


def test_per_domain_accuracy_missing_labels():
    with pytest.raises(umfc.MissingLabels):
        umfc.per_domain_accuracy(_preds([0]), None, np.array([0]))
    with pytest.raises(umfc.MissingLabels):
        umfc.per_domain_accuracy(_preds([0]), np.array([-1]), np.array([0]))
    with pytest.raises(umfc.MissingLabels):
        umfc.per_domain_accuracy(_preds([0]), np.array([0]), None)


def test_prediction_histogram():
    hist = umfc.prediction_histogram(_preds([0, 2, 2, 1, 2]), 4)
    assert np.array_equal(hist.counts, [1, 1, 3, 0])
    assert hist.counts.sum() == 5
    assert hist.top(2) == [(2, 3), (0, 1)]  # tie 0 vs 1 broken by class index
    assert hist.top() == [(2, 3), (0, 1), (1, 1), (3, 0)]
    assert hist.to_tsv().startswith("class\tcount\n")


def test_histogram_tsv_names_its_classes_when_given_names():
    hist = umfc.prediction_histogram(_preds([0, 2, 2]), 3)
    assert hist.to_tsv() == "class\tcount\n2\t2\n0\t1\n1\t0\n"
    assert hist.to_tsv(["a", "b", "c"]) == "class\tcount\nc\t2\na\t1\nb\t0\n"


def test_histogram_rejects_out_of_range():
    with pytest.raises(ValueError):
        umfc.prediction_histogram(_preds([0, 3]), 2)


def test_domain_bias_probe_flat_when_unbiased():
    # bank orthogonal to every anchor: all cosines 0, softmax uniform
    bank = umfc.TextBank(names=["a", "b"], data=np.eye(4)[:2])
    anchors = np.eye(4)[2:]
    result = umfc.domain_bias_probe(bank, anchors, tau=1.0)
    assert np.allclose(result.rows, 0.5, rtol=0, atol=1e-12)
    assert np.allclose(result.aggregate, 0.5, rtol=0, atol=1e-12)
    assert umfc.kl_to_uniform(result.aggregate) < 1e-15


def test_domain_bias_probe_detects_lean():
    d0 = np.array([0.0, 0.0, 1.0, 0.0])
    d1 = np.array([0.0, 0.0, 0.0, 1.0])
    lean = umfc.l2_normalize(np.array([1.0, 0.0, 0.6, 0.0]))
    neutral = np.array([0.0, 1.0, 0.0, 0.0])
    bank = umfc.TextBank(names=["a", "b"], data=np.stack([lean, neutral]))
    result = umfc.domain_bias_probe(bank, np.stack([d0, d1]), tau=1.0)
    assert result.rows[0, 0] > result.rows[0, 1]
    assert np.allclose(result.rows[1], 0.5, rtol=0, atol=1e-12)
    assert result.aggregate[0] > 0.5
    assert np.allclose(result.aggregate, result.rows.mean(axis=0), rtol=0, atol=1e-15)
    csv = result.to_csv()
    assert csv.count("\n") == 1 + 2 + 1  # header, two classes, aggregate


def test_probe_kl_decreases_after_text_calibration():
    ds = umfc.default_benchmark()
    raw = umfc.domain_bias_probe(ds.text_bank, ds.domain_anchor_texts)
    _, state = umfc.transduce(ds.images, ds.text_bank, umfc.EngineConfig(clusters=3))
    cal = umfc.domain_bias_probe(
        umfc.calibrate_bank(ds.text_bank, state.calib_text_shifts), ds.domain_anchor_texts
    )
    assert umfc.kl_to_uniform(cal.aggregate) < umfc.kl_to_uniform(raw.aggregate)


def _probe_rows_cell_by_cell(bank, anchors, tau):
    """The probe written out: one cosine per (class, anchor) cell, then a
    softmax over each class's row."""
    sims = np.array([[umfc.cosine_sim(t, a) for a in anchors] for t in bank.data])
    return umfc.softmax_temp(sims, tau)


@pytest.mark.parametrize(
    "spec",
    [umfc.SynthSpec(), umfc.SynthSpec(n_classes=345, n_domains=5, dim=512, samples_per_cell=1)],
    ids=["default", "345x5x512"],
)
@pytest.mark.parametrize("tau", [1.0, 0.01])
def test_domain_bias_probe_matches_cell_by_cell_reference(spec, tau):
    ds = umfc.generate_benchmark(spec)
    want = _probe_rows_cell_by_cell(ds.text_bank, ds.domain_anchor_texts, tau)
    got = umfc.domain_bias_probe(ds.text_bank, ds.domain_anchor_texts, tau=tau)
    assert got.rows.shape == want.shape
    assert np.allclose(got.rows, want, rtol=0, atol=1e-15)
    assert np.allclose(got.aggregate, want.sum(axis=0) / want.shape[0], rtol=0, atol=1e-15)


def test_kl_to_uniform_hand_values():
    assert umfc.kl_to_uniform(np.array([0.5, 0.5])) == 0.0
    # all mass on one of two bins: KL = ln 2
    assert np.isclose(umfc.kl_to_uniform(np.array([1.0, 0.0])), np.log(2.0), atol=1e-12)
    with pytest.raises(ValueError):
        umfc.kl_to_uniform(np.array([0.5, 0.6]))


def test_transition_direction_check_exact():
    ds = umfc.generate_benchmark(umfc.SynthSpec(noise_sigma=0.0))
    refs = umfc.pairwise_directions(ds.true_transition_directions)
    table = umfc.transition_direction_check(ds.images, refs)
    assert table.cosines.shape == (3, 3)
    off = ~np.eye(3, dtype=bool)
    assert np.all(table.cosines[off] >= 1.0 - 1e-9)
    assert np.isnan(table.cosines[np.eye(3, dtype=bool)]).all()
    assert table.min_off_diagonal() >= 1.0 - 1e-9
    tsv = table.to_tsv()
    assert tsv.startswith("from\\to") or "\t" in tsv


def test_transition_direction_check_errors():
    ds = umfc.generate_benchmark(umfc.SynthSpec(n_classes=4, n_domains=2, dim=8))
    refs = umfc.pairwise_directions(ds.true_transition_directions)
    unlabeled = umfc.EmbeddingMatrix(data=ds.images.data)
    with pytest.raises(umfc.MissingLabels):
        umfc.transition_direction_check(unlabeled, refs)
    # a domain named by the reference table but absent from the data
    refs3 = umfc.pairwise_directions(np.eye(3)[:, :8] if False else np.random.default_rng(0).standard_normal((3, 8)))
    with pytest.raises(umfc.EmptyDomain):
        umfc.transition_direction_check(ds.images, refs3)


def test_balanced_subsample_exact_cells():
    ds = umfc.generate_benchmark(umfc.SynthSpec(n_classes=3, n_domains=2, dim=8,
                                                samples_per_cell=10, seed=5))
    idx, shortfalls = umfc.balanced_subsample(ds.images, per_cell=4, seed=0)
    assert shortfalls == []
    assert idx.shape == (3 * 2 * 4,)
    assert np.array_equal(idx, np.sort(idx))
    cls = ds.images.class_labels[idx]
    dom = ds.images.domain_labels[idx]
    for c in range(3):
        for z in range(2):
            assert np.sum((cls == c) & (dom == z)) == 4
    again, _ = umfc.balanced_subsample(ds.images, per_cell=4, seed=0)
    assert np.array_equal(idx, again)
    other, _ = umfc.balanced_subsample(ds.images, per_cell=4, seed=1)
    assert not np.array_equal(idx, other)


def test_balanced_subsample_shortfall():
    ds = umfc.generate_benchmark(umfc.SynthSpec(n_classes=3, n_domains=2, dim=8,
                                                samples_per_cell=5, seed=5))
    idx, shortfalls = umfc.balanced_subsample(ds.images, per_cell=9, seed=0)
    assert len(shortfalls) == 6
    for c, z, have, want in shortfalls:
        assert have == 5 and want == 9
    assert idx.shape == (30,)


def test_balanced_subsample_missing_labels():
    m = umfc.EmbeddingMatrix(data=np.ones((4, 2)))
    with pytest.raises(umfc.MissingLabels):
        umfc.balanced_subsample(m, per_cell=1, seed=0)
