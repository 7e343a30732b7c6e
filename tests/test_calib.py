"""Feature and text calibration math, frozen against hand-worked cases."""

import numpy as np
import pytest

import umfc
from umfc.calib import tfc_calibrate
from umfc.engine import _predict_rows

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def test_ifc_hand_value():
    # f=(1,0), mean=(0.5,0.5): residual (0.5,-0.5), norm sqrt(0.5), so the
    # calibrated feature is (r,-r): cosine 1 against (1,-1), 0 against (1,1)
    preds = _predict_rows(np.array([[1.0, 0.0]]), np.array([0]), np.array([[0.5, 0.5]]),
                          np.array([[1.0, -1.0], [1.0, 1.0]]), tau=1.0)
    e = np.e
    assert np.allclose(preds.probs[0], [e / (e + 1), 1 / (e + 1)], rtol=0, atol=1e-15)
    assert preds.labels[0] == 0 and preds.clusters[0] == 0 and preds.flags[0] == 0


def test_ifc_degenerate():
    # a feature on its cluster mean has no residual direction: it falls
    # back to the plain normalized feature and is flagged, not fatal
    f = np.array([[0.5, 0.5]])
    bank = np.array([[1.0, 0.0], [0.0, 2.0]])
    preds = _predict_rows(f, np.array([0]), f.copy(), bank, tau=1.0)
    assert preds.flags[0] == umfc.Predictions.DEGENERATE
    assert preds[0].flags == ("degenerate",)
    assert np.array_equal(preds.probs, umfc.classify_batch(umfc.l2_normalize_rows(f), bank, 1.0))


def test_compute_text_shifts_hand():
    means = np.array([[1.0, 0.0], [0.0, 2.0]])
    global_mean = np.array([0.5, 1.0])
    shifts = umfc.compute_text_shifts(means, global_mean)
    assert np.array_equal(shifts, [[0.5, -1.0], [-0.5, 1.0]])


def test_tfc_hand_value():
    # t = e1, shifts e2 and e3:
    #   normalize(e1-e2) = (r, -r, 0), normalize(e1-e3) = (r, 0, -r)
    #   mean = (r, -r/2, -r/2) with r = sqrt(1/2)
    shifts = np.stack([E2, E3])
    out = tfc_calibrate(E1, shifts)
    r = np.sqrt(0.5)
    assert np.allclose(out, [r, -r / 2, -r / 2], rtol=0, atol=1e-15)


def test_tfc_zero_shifts_is_plain_normalization():
    shifts = np.zeros((2, 3))
    t = np.array([3.0, 0.0, 4.0])
    out = tfc_calibrate(t, shifts)
    assert np.allclose(out, [0.6, 0.0, 0.8], rtol=0, atol=1e-15)


def test_tfc_skips_degenerate_term_and_warns():
    # first shift equals the text row: that term vanishes and is dropped,
    # leaving only normalize(e1 - e2); the divisor is the kept count
    shifts = np.stack([E1, E2])
    with pytest.warns(RuntimeWarning):
        out = tfc_calibrate(E1, shifts)
    r = np.sqrt(0.5)
    assert np.allclose(out, [r, -r, 0.0], rtol=0, atol=1e-15)


def test_tfc_all_degenerate_raises():
    with pytest.raises(umfc.AllShiftsDegenerate):
        tfc_calibrate(E1, E1[None, :])


def test_tfc_shift_row_order_bit_invariant():
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = int(rng.integers(2, 7))
        d = int(rng.integers(2, 9))
        t = rng.standard_normal(d)
        shifts = rng.standard_normal((m, d))
        base = tfc_calibrate(t, shifts)
        perm = rng.permutation(m)
        assert np.array_equal(base, tfc_calibrate(t, shifts[perm]))


def test_calibrate_bank_matches_per_row():
    rng = np.random.default_rng(13)
    bank = umfc.TextBank(names=["a", "b", "c"], data=rng.standard_normal((3, 5)))
    shifts = rng.standard_normal((4, 5))
    cal = umfc.calibrate_bank(bank, shifts)
    assert isinstance(cal, umfc.CalibratedTextBank)
    assert cal.names == bank.names
    for j in range(3):
        assert np.array_equal(cal.data[j], tfc_calibrate(bank.data[j], shifts))


def test_calibrate_bank_bit_invariant_under_shift_permutation_and_duplicates():
    rng = np.random.default_rng(15)
    for _ in range(50):
        k = int(rng.integers(2, 9))
        m = int(rng.integers(2, 7))
        d = int(rng.integers(2, 9))
        bank = umfc.TextBank(names=[f"c{j}" for j in range(k)], data=rng.standard_normal((k, d)))
        shifts = rng.standard_normal((m, d))
        # repeat some rows, so equal sort keys are in play too
        shifts = np.vstack([shifts, shifts[rng.integers(0, m, size=2)]])
        base = umfc.calibrate_bank(bank, shifts).data
        for _ in range(3):
            perm = rng.permutation(shifts.shape[0])
            assert np.array_equal(base, umfc.calibrate_bank(bank, shifts[perm]).data)
        # and the batched sum stays the mean of the unit terms
        for j in range(k):
            terms = [umfc.l2_normalize(bank.data[j] - s) for s in shifts]
            assert np.allclose(base[j], np.mean(terms, axis=0), rtol=0, atol=1e-14)


def test_calibrate_bank_divisor_is_per_row():
    rng = np.random.default_rng(16)
    shifts = rng.standard_normal((4, 6))
    data = rng.standard_normal((5, 6))
    data[1] = shifts[2] + 1e-14  # a term below DEGENERACY_EPS but not zero
    data[3] = shifts[0]
    bank = umfc.TextBank(names=[f"c{j}" for j in range(5)], data=data)
    with pytest.warns(RuntimeWarning) as record:
        cal = umfc.calibrate_bank(bank, shifts)
    assert len(record) == 1
    # a row that lost a term equals the calibration against the other
    # shifts alone: the dropped term adds nothing, the divisor is 3
    assert np.array_equal(cal.data[1], tfc_calibrate(data[1], np.delete(shifts, 2, axis=0)))
    assert np.array_equal(cal.data[3], tfc_calibrate(data[3], np.delete(shifts, 0, axis=0)))
    for j in (0, 2, 4):
        assert np.array_equal(cal.data[j], tfc_calibrate(data[j], shifts))


def test_calibrate_bank_raises_when_one_row_loses_every_term():
    bank = umfc.TextBank(names=["a", "b"], data=np.stack([E1, E2]))
    with pytest.raises(umfc.AllShiftsDegenerate):
        umfc.calibrate_bank(bank, np.stack([E2, E2]))


def test_calibrate_bank_rejects_dim_mismatch():
    bank = umfc.TextBank(names=["a", "b"], data=np.stack([E1, E2]))
    with pytest.raises(ValueError):
        umfc.calibrate_bank(bank, np.ones((2, 4)))
    with pytest.raises(ValueError):
        tfc_calibrate(E1, np.ones((2, 4)))


def test_calibrated_bank_rows_not_renormalized():
    # averaging unit vectors shrinks the result; the rows must keep that
    # shrunken norm since classification divides by it explicitly
    shifts = np.stack([E2, E3])
    bank = umfc.TextBank(names=["a", "b"], data=np.stack([E1, E2 * 2.0]))
    cal = umfc.calibrate_bank(bank, shifts)
    assert np.linalg.norm(cal.data[0]) < 0.95


def test_normalize_shift_rows():
    shifts = np.array([[3.0, 4.0], [0.0, 0.0], [0.0, 2.0]])
    out = umfc.normalize_shift_rows(shifts)
    assert np.allclose(out[0], [0.6, 0.8], rtol=0, atol=1e-15)
    assert np.array_equal(out[1], [0.0, 0.0])
    assert np.array_equal(out[2], [0.0, 1.0])


def test_classify_hand_value():
    bank = umfc.TextBank(names=["x", "y"], data=np.array([[1.0, 0.0], [0.0, 1.0]]))
    f = np.array([[2.0, 1.0]])
    probs = umfc.classify_batch(f, bank.data, tau=0.5)[0]
    # cosines (2,1)/sqrt(5) -> softmax at tau=0.5, worked by hand
    assert np.allclose(
        probs, [0.7098029437568892, 0.29019705624311065], rtol=0, atol=1e-14
    )
    assert int(np.argmax(probs)) == 0


def test_classify_batch_matches_scalar_within_float():
    rng = np.random.default_rng(14)
    bank_data = rng.standard_normal((6, 8))
    feats = rng.standard_normal((40, 8))
    probs = umfc.classify_batch(feats, bank_data, tau=0.05)
    for i in range(40):
        sims = np.array([umfc.cosine_sim(feats[i], t) for t in bank_data])
        single = umfc.softmax_temp(sims, 0.05)
        assert np.allclose(probs[i], single, rtol=0, atol=1e-12)
        assert int(np.argmax(probs[i])) == int(np.argmax(single))


def test_classify_rejects_zero_vectors():
    with pytest.raises(umfc.DegenerateVector):
        umfc.classify_batch(np.array([[1.0, 0.0], [0.0, 0.0]]), np.eye(2), tau=1.0)
    with pytest.raises(umfc.DegenerateVector):
        umfc.classify_batch(np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]]), tau=1.0)


def test_classify_batch_dimension_mismatch():
    with pytest.raises(umfc.DimensionMismatch):
        umfc.classify_batch(np.ones((2, 3)), np.eye(2), tau=1.0)


def test_calibration_state_from_means():
    means = np.array([[1.0, 0.0], [0.0, 1.0]])
    g = np.array([0.25, 0.25])
    state = umfc.CalibrationState.from_means(means, g)
    assert np.array_equal(state.text_shifts, means - g)
    with pytest.raises(ValueError):
        umfc.CalibrationState(
            cluster_means=means, global_mean=np.zeros(3), text_shifts=means
        )
    with pytest.raises(umfc.NonFiniteInput):
        umfc.CalibrationState.from_means(np.array([[np.inf, 0.0]]), np.zeros(2))


def test_classify_batch_into_out_is_bit_identical():
    rng = np.random.default_rng(15)
    bank_data = rng.standard_normal((7, 12))
    feats = rng.standard_normal((30, 12))
    fresh = umfc.classify_batch(feats, bank_data, tau=0.05)
    # the composed steps classify_batch runs in place
    fn = np.linalg.norm(feats, axis=1)
    bn = np.linalg.norm(bank_data, axis=1)
    sims = np.clip((feats @ bank_data.T) / np.outer(fn, bn), -1.0, 1.0)
    assert fresh.tobytes() == umfc.softmax_temp(sims, 0.05).tobytes()
    # into rows of a larger result, as _predict_rows scores a block
    buf = np.full((40, 7), np.nan)
    out = umfc.classify_batch(feats, bank_data, tau=0.05, out=buf[5:35])
    assert out.base is buf
    assert buf[5:35].tobytes() == fresh.tobytes()
    assert np.isnan(buf[:5]).all() and np.isnan(buf[35:]).all()
