"""Benchmark generator and its brute-force oracles."""

import numpy as np
import pytest

import umfc


def test_determinism_bit_exact():
    a = umfc.generate_benchmark(umfc.SynthSpec(seed=42))
    b = umfc.generate_benchmark(umfc.SynthSpec(seed=42))
    assert np.array_equal(a.images.data, b.images.data)
    assert np.array_equal(a.images.class_labels, b.images.class_labels)
    assert np.array_equal(a.text_bank.data, b.text_bank.data)
    assert np.array_equal(a.domain_anchor_texts, b.domain_anchor_texts)
    c = umfc.generate_benchmark(umfc.SynthSpec(seed=43))
    assert not np.array_equal(a.images.data, c.images.data)


def test_shapes_and_counts():
    spec = umfc.SynthSpec(n_classes=5, n_domains=2, dim=16, samples_per_cell=7)
    ds = umfc.generate_benchmark(spec)
    assert ds.images.data.shape == (5 * 2 * 7, 16)
    assert ds.text_bank.data.shape == (5, 16)
    assert ds.domain_anchor_texts.shape == (2, 16)
    assert ds.true_transition_directions.shape == (2, 16)
    for z in range(2):
        for c in range(5):
            n = np.sum((ds.images.class_labels == c) & (ds.images.domain_labels == z))
            assert n == 7


def test_rows_interleave_domains():
    ds = umfc.default_benchmark()
    z = ds.spec.n_domains
    dom = ds.images.domain_labels
    # equal cells: the round-robin covers every domain in each window of Z
    assert np.array_equal(dom, np.tile(np.arange(z), ds.images.n // z))


def test_basis_orthonormal():
    spec = umfc.SynthSpec(noise_sigma=0.0)
    ds = umfc.generate_benchmark(spec)
    axes = ds.true_transition_directions
    gram = axes @ axes.T
    assert np.allclose(gram, np.eye(3), rtol=0, atol=1e-12)
    # noiseless image = class anchor + offset; components recoverable by dot
    f = ds.images.data[0]
    z = ds.images.domain_labels[0]
    assert np.isclose(f @ axes[z], spec.domain_offset_norm, rtol=0, atol=1e-12)


def test_text_bank_construction():
    spec = umfc.SynthSpec()
    ds = umfc.generate_benchmark(spec)
    axes = ds.true_transition_directions
    for c in range(spec.n_classes):
        home = spec.home_domain(c)
        lean = ds.text_bank.data[c] @ axes[home]
        # the planted lean plus jitter at the 1e-3 scale
        assert abs(lean - spec.text_domain_bias) < 0.01
        for other in range(spec.n_domains):
            if other != home:
                assert abs(ds.text_bank.data[c] @ axes[other]) < 0.01


def test_dim_too_small():
    with pytest.raises(umfc.DimensionTooSmall):
        umfc.SynthSpec(n_classes=10, n_domains=3, dim=12)


def test_spec_validation():
    with pytest.raises(ValueError):
        umfc.SynthSpec(n_classes=1)
    with pytest.raises(ValueError, match="at least 1 domain"):
        umfc.SynthSpec(n_domains=0)
    with pytest.raises(ValueError, match="class_sep"):
        umfc.SynthSpec(class_sep=0.0)
    with pytest.raises(ValueError):
        umfc.SynthSpec(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        umfc.SynthSpec(samples_per_cell=0)


def test_single_domain_zero_shot_perfect():
    # one domain: every class leans on the same axis, so the lean cancels
    # in the comparison and the orthonormal anchors decide alone
    spec = umfc.SynthSpec(n_domains=1, noise_sigma=0.0, dim=16)
    ds = umfc.generate_benchmark(spec)
    preds = umfc.oracle_zero_shot(ds)
    assert np.mean([p.label for p in preds] == ds.images.class_labels) == 1.0


def test_zero_shot_enumeration_oracle():
    # noiseless default geometry, worked by enumeration: for a sample of
    # class c in domain z the score of class j is
    #     1[j == c] * class_sep^2 + 1[home(j) == z] * bias * offset
    # (identical norms cancel).  With class_sep^2 = 1 < bias*offset = 1.5
    # the argmax lands on the lowest-indexed class homed in z unless c
    # itself is homed there.  Accuracy per domain is therefore the
    # fraction of classes homed in it: 4/10, 3/10, 3/10.
    spec = umfc.SynthSpec(noise_sigma=0.0)
    ds = umfc.generate_benchmark(spec)
    preds = umfc.oracle_zero_shot(ds)
    table = umfc.per_domain_accuracy(preds, ds.images.class_labels, ds.images.domain_labels)
    assert np.allclose(table.accuracies, [0.4, 0.3, 0.3], rtol=0, atol=1e-12)
    # every sample is claimed by a class homed in its own domain: the
    # right one when it is homed there, otherwise whichever homed class
    # the 1e-3 text jitter happens to favor
    for p, c, z in zip(preds, ds.images.class_labels, ds.images.domain_labels):
        assert spec.home_domain(p.label) == int(z)
        if spec.home_domain(int(c)) == int(z):
            assert p.label == c


def test_oracle_transduce_m1_reduces_to_centered_zero_shot():
    ds = umfc.generate_benchmark(umfc.SynthSpec(n_classes=4, n_domains=2, dim=8,
                                                samples_per_cell=10, seed=9))
    cfg = umfc.EngineConfig(clusters=1, tau=0.01)
    preds, state = umfc.oracle_transduce(ds, cfg)
    x = umfc.l2_normalize_rows(ds.images.data)
    mu = x.mean(axis=0)
    assert np.allclose(state.centroids[0], mu, rtol=0, atol=1e-12)
    assert np.allclose(state.calib_text_shifts, 0.0, rtol=0, atol=1e-12)
    f = umfc.l2_normalize_rows(x - mu)
    ref = umfc.classify_batch(f, ds.text_bank.data, cfg.tau)
    assert np.array_equal(preds.labels, np.argmax(ref, axis=1))
    assert np.allclose(preds.probs, ref, rtol=0, atol=1e-10)


def test_oracle_transduce_noiseless_per_domain_equal():
    spec = umfc.SynthSpec(noise_sigma=0.0)
    ds = umfc.generate_benchmark(spec)
    preds, _ = umfc.oracle_transduce(ds, umfc.EngineConfig(clusters=3))
    table = umfc.per_domain_accuracy(preds, ds.images.class_labels, ds.images.domain_labels)
    assert np.array_equal(table.accuracies, [1.0, 1.0, 1.0])


def test_measured_directions_match_construction():
    # noiseless, offset-dominant: measured cluster travel equals the
    # planted axis difference exactly
    spec = umfc.SynthSpec(noise_sigma=0.0, domain_offset_norm=4.0)
    ds = umfc.generate_benchmark(spec)
    table = umfc.transition_direction_check(ds.images, ds.true_transition_directions)
    assert table.min_off_diagonal() >= 1.0 - 1e-9
