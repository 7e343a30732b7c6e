"""Vector helpers and container validation."""

import numpy as np
import pytest

import umfc
from umfc.core import _check_tau
from umfc.synth import _cosine_sim, _softmax_temp

from properties import check_normalize_idempotent, check_softmax_argmax_tau_invariant


def test_l2_normalize_hand_value():
    # 3-4-5 triangle: (3,4)/5
    out = umfc.l2_normalize_rows(np.array([[3.0, 4.0]]))
    assert np.allclose(out, [[0.6, 0.8]], rtol=0, atol=1e-15)


def test_l2_normalize_rejects_zero():
    with pytest.raises(umfc.DegenerateVector):
        umfc.l2_normalize_rows(np.zeros((1, 4)))
    with pytest.raises(umfc.DegenerateVector):
        umfc.l2_normalize_rows(np.full((1, 3), 1e-13))


def test_l2_normalize_rows_matches_per_row():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((20, 7))
    rows = umfc.l2_normalize_rows(m)
    for i in range(20):
        assert np.array_equal(rows[i : i + 1], umfc.l2_normalize_rows(m[i : i + 1]))


def test_l2_normalize_rows_flags_zero_row():
    m = np.ones((3, 4))
    m[1] = 0.0
    with pytest.raises(umfc.DegenerateVector, match="row 1"):
        umfc.l2_normalize_rows(m)
    m[1] = 1e-13
    with pytest.raises(umfc.DegenerateVector, match="row 1"):
        umfc.l2_normalize_rows(m)


def test_cosine_sim_dimension_mismatch():
    with pytest.raises(umfc.DimensionMismatch):
        _cosine_sim(np.ones(3), np.ones(4))


def test_cosine_sim_clamped():
    # parallel vectors with rounding noise cannot exceed the [-1, 1] range
    v = np.full(64, 0.1230000000000001)
    assert _cosine_sim(v, v * 3.0) <= 1.0


def test_softmax_extreme_logits_stable():
    # cosines 1 and -1 at tau 1e-3 are logits 1000 and -1000: without the
    # max subtraction exp would overflow
    probs = umfc.classify_batch(np.array([[1.0, 0.0]]), np.array([[2.0, 0.0], [-1.0, 0.0]]), 1e-3)
    assert np.isfinite(probs).all()
    assert probs[0, 0] == 1.0


def test_softmax_batched_rows():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((6, 5))
    batch = _softmax_temp(logits, 0.3)
    for i in range(6):
        assert np.array_equal(batch[i], _softmax_temp(logits[i], 0.3))


def test_temperature_validation():
    assert _check_tau(0.01) == 0.01
    assert _check_tau(2) == 2.0 and isinstance(_check_tau(2), float)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            _check_tau(bad)
        with pytest.raises(ValueError):
            _softmax_temp(np.array([1.0, 0.0]), bad)
        with pytest.raises(ValueError):
            umfc.classify_batch(np.eye(2), np.eye(2), bad)


def test_public_names_are_unique_and_resolve():
    names = umfc.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(umfc, name), name


def test_embedding_matrix_validation():
    with pytest.raises(umfc.NonFiniteInput):
        umfc.EmbeddingMatrix(data=np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        umfc.EmbeddingMatrix(data=np.ones(3))
    with pytest.raises(ValueError):
        umfc.EmbeddingMatrix(data=np.ones((2, 2)), class_labels=np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError, match="1 ids for 2 rows"):
        umfc.EmbeddingMatrix(data=np.ones((2, 2)), ids=["a"])
    m = umfc.EmbeddingMatrix(data=np.ones((2, 3)))
    assert m.ids == ["0", "1"]
    assert m.n == 2 and m.dim == 3


@pytest.mark.parametrize("call, error", [
    (lambda: umfc.classify_batch(np.ones(3), np.eye(3), 1.0), ValueError),
    (lambda: umfc.classify_batch(np.ones((2, 3)), np.ones(3), 1.0), ValueError),
    (lambda: umfc.batch_cluster_means(np.ones(3), np.zeros(3, dtype=np.int64), 2), ValueError),
    (lambda: umfc.l2_normalize_rows(np.ones(3)), ValueError),
    (lambda: umfc.l2_normalize_rows(np.ones((2, 3, 2), dtype=np.float32)), ValueError),
    (lambda: umfc.assign_batch(np.eye(3), np.ones(3)), ValueError),
    (lambda: umfc.assign_batch(np.eye(3), np.ones((2, 4))), umfc.DimensionMismatch),
    (lambda: umfc.assign_batch(np.eye(3), np.ones((2, 4), dtype=np.float32)), umfc.DimensionMismatch),
], ids=["classify-feats", "classify-bank", "cluster-means", "normalize", "normalize-3d",
        "assign", "assign-dim", "assign-dim-float32"])
def test_row_kernels_reject_bad_shapes_with_a_typed_error(call, error):
    # one 2-d check (core._float_rows) instead of numpy's IndexError,
    # AxisError or matmul ValueError from inside a kernel
    match = {ValueError: "expected a 2-d array", umfc.DimensionMismatch: "rows of dim 4"}[error]
    with pytest.raises(error, match=match):
        call()


def test_text_bank_validation():
    data = np.eye(3)
    with pytest.raises(ValueError):
        umfc.TextBank(names=["a", "a", "b"], data=data)
    with pytest.raises(ValueError):
        umfc.TextBank(names=["a"], data=np.eye(1))
    with pytest.raises(ValueError):
        umfc.TextBank(names=["a", "b"], data=data)
    with pytest.raises(umfc.NonFiniteInput):
        umfc.TextBank(names=["a", "b", "c"], data=np.where(data == 1, np.nan, data))
    bank = umfc.TextBank(names=["a", "b", "c"], data=data)
    assert bank.k == 3 and bank.dim == 3


def test_property_normalize_idempotent_small():
    check_normalize_idempotent(100)


def test_property_softmax_argmax_small():
    check_softmax_argmax_tau_invariant(100)
