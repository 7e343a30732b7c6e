"""Accuracy tables, histograms, bias probe, direction check, subsampling."""

import numpy as np
import pytest

import umfc
from umfc.synth import _cosine_sim, _softmax_temp


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
    tsv = table.to_tsv()
    assert "overall_macro" in tsv and tsv.endswith("\n")
    # micro accuracy is the ratio of the summed columns the overall row carries
    assert table.correct.sum() / table.totals.sum() == 0.25
    assert tsv.splitlines()[-1] == "overall_macro\t1\t4\t0.500000"


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
    with pytest.raises(ValueError, match="mismatched lengths"):
        umfc.per_domain_accuracy(_preds([0, 1]), np.array([0]), np.array([0]))


def test_prediction_histogram():
    hist = umfc.prediction_histogram(_preds([0, 2, 2, 1, 2]), 4)
    assert np.array_equal(hist.counts, [1, 1, 3, 0])
    assert hist.counts.sum() == 5
    assert hist.top()[:2] == [(2, 3), (0, 1)]  # tie 0 vs 1 broken by class index
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
    lean = umfc.l2_normalize_rows(np.array([[1.0, 0.0, 0.6, 0.0]]))[0]
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
    sims = np.array([[_cosine_sim(t, a) for a in anchors] for t in bank.data])
    return _softmax_temp(sims, tau)


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
    for not_a_vector in (np.full((2, 2), 0.25), np.empty(0)):
        with pytest.raises(ValueError, match="1-D"):
            umfc.kl_to_uniform(not_a_vector)


def test_transition_direction_check_exact():
    ds = umfc.generate_benchmark(umfc.SynthSpec(noise_sigma=0.0))
    table = umfc.transition_direction_check(ds.images, ds.true_transition_directions)
    assert table.cosines.shape == (3, 3)
    off = ~np.eye(3, dtype=bool)
    assert np.all(table.cosines[off] >= 1.0 - 1e-9)
    assert np.isnan(table.cosines[np.eye(3, dtype=bool)]).all()
    assert table.min_off_diagonal() >= 1.0 - 1e-9
    lines = table.to_tsv().splitlines()
    assert lines[0] == "from_domain\tto_domain\tcosine"
    assert len(lines) == 1 + 3 * 2  # one row per ordered pair of distinct domains


def test_transition_direction_check_errors():
    ds = umfc.generate_benchmark(umfc.SynthSpec(n_classes=4, n_domains=2, dim=8))
    anchors = ds.true_transition_directions
    unlabeled = umfc.EmbeddingMatrix(data=ds.images.data)
    with pytest.raises(umfc.MissingLabels):
        umfc.transition_direction_check(unlabeled, anchors)
    # a domain with an anchor but absent from the data
    anchors3 = np.random.default_rng(0).standard_normal((3, 8))
    with pytest.raises(umfc.EmptyDomain):
        umfc.transition_direction_check(ds.images, anchors3)
    # one domain: no pair to compare
    with pytest.raises(umfc.TooFewSamples, match="at least 2"):
        umfc.transition_direction_check(ds.images, anchors[:1])
    # anchors of another dimension than the images
    wide = np.random.default_rng(0).standard_normal((2, 9))
    with pytest.raises(umfc.DimensionMismatch, match="dim 9"):
        umfc.transition_direction_check(ds.images, wide)
    # two domains with equal means: their difference has no direction
    same = ds.images.data.copy()
    same[ds.images.domain_labels == 1] = same[ds.images.domain_labels == 0]
    flat = umfc.EmbeddingMatrix(data=same, domain_labels=ds.images.domain_labels)
    with pytest.raises(umfc.DegenerateVector):
        umfc.transition_direction_check(flat, anchors)
    # two coinciding anchors: no reference direction between them
    with pytest.raises(umfc.DegenerateVector):
        umfc.transition_direction_check(ds.images, anchors[[0, 0]])
    # anchors must be a Z x D array
    with pytest.raises(ValueError, match="2-d"):
        umfc.transition_direction_check(ds.images, anchors[None])


def _direction_cosines_pair_by_pair(images, anchors):
    """The direction check written out: one cosine per ordered pair,
    against the pair's anchor difference normalized on its own."""
    z = anchors.shape[0]
    means = []
    for zi in range(z):
        rows = images.data[images.domain_labels == zi]
        means.append(np.sum(rows, axis=0) / rows.shape[0])
    cos = np.full((z, z), np.nan)
    for i in range(z):
        for j in range(z):
            if i != j:
                d = anchors[i] - anchors[j]
                ref = d / np.sqrt(np.einsum("i,i", d, d))
                cos[i, j] = _cosine_sim(means[i] - means[j], ref)
    return cos


@pytest.mark.parametrize(
    "spec",
    [umfc.SynthSpec(), umfc.SynthSpec(n_classes=345, n_domains=5, dim=512, samples_per_cell=1)],
    ids=["default", "345x5x512"],
)
def test_transition_direction_check_matches_pair_by_pair_reference(spec):
    ds = umfc.generate_benchmark(spec)
    # rows labelled -1 (unlabeled) and Z (no such domain) count for neither side
    stray = np.random.default_rng(1).standard_normal((4, spec.dim))
    dom = np.concatenate([ds.images.domain_labels[:7], [-1, spec.n_domains],
                          ds.images.domain_labels[7:], [spec.n_domains, -1]])
    data = np.concatenate([ds.images.data[:7], stray[:2], ds.images.data[7:], stray[2:]])
    images = umfc.EmbeddingMatrix(data=data, domain_labels=dom)
    for anchors in (ds.true_transition_directions, ds.domain_anchor_texts):
        want = _direction_cosines_pair_by_pair(images, anchors)
        got = umfc.transition_direction_check(images, anchors)
        off = ~np.eye(spec.n_domains, dtype=bool)
        assert np.isnan(got.cosines[~off]).all()
        assert np.allclose(got.cosines[off], want[off], rtol=0, atol=1e-15)
        assert got.to_tsv() == umfc.DirectionTable(got.domains, want).to_tsv()


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


def test_balanced_subsample_refuses_a_quota_below_one():
    ds = umfc.generate_benchmark(umfc.SynthSpec(n_classes=3, n_domains=2, dim=8, samples_per_cell=5))
    with pytest.raises(ValueError, match="per_cell must be >= 1, got 0"):
        umfc.balanced_subsample(ds.images, per_cell=0, seed=0)


def test_balanced_subsample_refuses_absent_labels():
    # -1 is "absent", not a class or domain of its own
    ds = umfc.generate_benchmark(umfc.SynthSpec(n_classes=3, n_domains=2, dim=8, samples_per_cell=5))
    for name in ("class_labels", "domain_labels"):
        labels = {n: getattr(ds.images, n).copy() for n in ("class_labels", "domain_labels")}
        labels[name][::7] = -1
        m = umfc.EmbeddingMatrix(data=ds.images.data, **labels)
        with pytest.raises(umfc.MissingLabels):
            umfc.balanced_subsample(m, per_cell=1, seed=0)


def _balanced_subsample_cell_by_cell(images, per_cell, seed):
    """The subsample written out: one scan of the rows per cell."""
    rng = np.random.default_rng(seed)
    cls, dom = images.class_labels, images.domain_labels
    chosen, shortfalls = [], []
    for c in np.unique(cls):
        for z in np.unique(dom):
            members = np.flatnonzero((cls == c) & (dom == z))
            if members.size < per_cell:
                shortfalls.append((int(c), int(z), int(members.size), per_cell))
                chosen.append(members)
            else:
                chosen.append(rng.choice(members, size=per_cell, replace=False))
    return np.sort(np.concatenate(chosen)), shortfalls


@pytest.mark.parametrize("per_cell", [1, 4, 5])
def test_balanced_subsample_matches_cell_by_cell_reference(per_cell):
    # cells of 2 to 8 rows, and cell (class 2, domain 1) emptied
    spec = umfc.SynthSpec(n_classes=4, n_domains=3, dim=8, samples_per_cell=8, seed=5)
    ds = umfc.generate_benchmark(spec)
    cls, dom = ds.images.class_labels, ds.images.domain_labels
    rank = np.zeros_like(cls)  # each row's place among the rows of its cell
    for c in range(4):
        for z in range(3):
            rank[(cls == c) & (dom == z)] = np.arange(8)
    sizes = np.array([(2, 4, 6, 8), (8, 6, 0, 2), (5, 5, 5, 5)])  # [domain, class]
    keep = rank < sizes[dom, cls]
    images = umfc.EmbeddingMatrix(data=ds.images.data[keep],
                                  class_labels=ds.images.class_labels[keep],
                                  domain_labels=ds.images.domain_labels[keep])
    for seed in range(3):
        want_idx, want_short = _balanced_subsample_cell_by_cell(images, per_cell, seed)
        idx, shortfalls = umfc.balanced_subsample(images, per_cell, seed)
        assert idx.dtype == np.int64
        assert np.array_equal(idx, want_idx)
        assert shortfalls == want_short
        assert (2, 1, 0, per_cell) in shortfalls
