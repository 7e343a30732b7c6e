"""Feature and text calibration math, frozen against hand-worked cases."""

import warnings

import numpy as np
import pytest

import umfc
from umfc.engine import StreamState, _empty, _predict_rows, _update
from umfc.synth import _cosine_sim, _l2_normalize, _softmax_temp

from properties import calibrate_row

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
    # scored as the feature itself, whose norm classify_batch takes
    assert preds.probs.tobytes() == umfc.classify_batch(f, bank, 1.0).tobytes()


def test_compute_text_shifts_hand():
    # one row per cluster: the means are the rows, the global mean is
    # (0.5, 1.0), and each shift is its mean minus the global mean
    rows = np.array([[1.0, 0.0], [0.0, 2.0]])
    state = _update(_empty(np.zeros((2, 2)), True), rows, np.array([0, 1]))
    assert np.array_equal(state.calib_global_mean, [0.5, 1.0])
    assert np.array_equal(state.calib_text_shifts, [[0.5, -1.0], [-0.5, 1.0]])


def test_tfc_hand_value():
    # t = e1, shifts e2 and e3:
    #   normalize(e1-e2) = (r, -r, 0), normalize(e1-e3) = (r, 0, -r)
    #   mean = (r, -r/2, -r/2) with r = sqrt(1/2)
    shifts = np.stack([E2, E3])
    out = calibrate_row(E1, shifts)
    r = np.sqrt(0.5)
    assert np.allclose(out, [r, -r / 2, -r / 2], rtol=0, atol=1e-15)


def test_tfc_zero_shifts_is_plain_normalization():
    shifts = np.zeros((2, 3))
    t = np.array([3.0, 0.0, 4.0])
    out = calibrate_row(t, shifts)
    assert np.allclose(out, [0.6, 0.0, 0.8], rtol=0, atol=1e-15)


def test_tfc_skips_degenerate_term_and_warns():
    # first shift equals the text row: that term vanishes and is dropped,
    # leaving only normalize(e1 - e2); the divisor is the kept count
    shifts = np.stack([E1, E2])
    with pytest.warns(RuntimeWarning):
        out = calibrate_row(E1, shifts)
    r = np.sqrt(0.5)
    assert np.allclose(out, [r, -r, 0.0], rtol=0, atol=1e-15)


def test_tfc_all_degenerate_raises():
    with pytest.raises(umfc.AllShiftsDegenerate):
        calibrate_row(E1, E1[None, :])


def test_tfc_shift_row_order_bit_invariant():
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = int(rng.integers(2, 7))
        d = int(rng.integers(2, 9))
        t = rng.standard_normal(d)
        shifts = rng.standard_normal((m, d))
        base = calibrate_row(t, shifts)
        perm = rng.permutation(m)
        assert np.array_equal(base, calibrate_row(t, shifts[perm]))


def test_calibrate_bank_matches_per_row():
    rng = np.random.default_rng(13)
    bank = umfc.TextBank(names=["a", "b", "c"], data=rng.standard_normal((3, 5)))
    shifts = rng.standard_normal((4, 5))
    cal = umfc.calibrate_bank(bank, shifts)
    assert isinstance(cal, umfc.TextBank)
    assert cal.names == bank.names
    for j in range(3):
        assert np.array_equal(cal.data[j], calibrate_row(bank.data[j], shifts))


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
            terms = [_l2_normalize(bank.data[j] - s) for s in shifts]
            assert np.allclose(base[j], np.mean(terms, axis=0), rtol=0, atol=1e-14)


def test_calibrate_bank_bit_invariant_when_shift_rows_share_leading_columns():
    # rows that only differ after their first columns still have one order
    rng = np.random.default_rng(21)
    for _ in range(50):
        m = int(rng.integers(3, 9))
        shifts = rng.standard_normal((m, 12))
        shifts[:, :3] = rng.standard_normal(3)
        bank = umfc.TextBank(names=list("abcd"), data=rng.standard_normal((4, 12)))
        base = umfc.calibrate_bank(bank, shifts).data
        for _ in range(3):
            assert np.array_equal(base, umfc.calibrate_bank(bank, shifts[rng.permutation(m)]).data)


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
    assert np.array_equal(cal.data[1], calibrate_row(data[1], np.delete(shifts, 2, axis=0)))
    assert np.array_equal(cal.data[3], calibrate_row(data[3], np.delete(shifts, 0, axis=0)))
    for j in (0, 2, 4):
        assert np.array_equal(cal.data[j], calibrate_row(data[j], shifts))


def test_calibrate_bank_dropped_term_changes_no_bit_with_many_shifts():
    # past 8 shifts a pairwise sum would group the weights differently
    # once a zero is among them; the terms must still add one by one
    for seed in range(40):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(8, 20))
        d = int(rng.integers(2, 40))
        shifts = rng.standard_normal((m, d))
        data = rng.standard_normal((3, d))
        j = int(rng.integers(m))
        data[1] = shifts[j]
        with pytest.warns(RuntimeWarning):
            cal = umfc.calibrate_bank(umfc.TextBank(names=list("abc"), data=data), shifts)
        assert np.array_equal(cal.data[1], calibrate_row(data[1], np.delete(shifts, j, axis=0)))


def test_calibrate_bank_drops_a_nan_shift_from_every_row():
    rng = np.random.default_rng(20)
    shifts = rng.standard_normal((4, 6))
    shifts[1, 3] = np.nan
    bank = umfc.TextBank(names=list("abc"), data=rng.standard_normal((3, 6)))
    with pytest.warns(RuntimeWarning):
        cal = umfc.calibrate_bank(bank, shifts)
    rest = umfc.calibrate_bank(bank, np.delete(shifts, 1, axis=0))
    assert np.array_equal(cal.data, rest.data)


def test_calibrate_bank_raises_when_one_row_loses_every_term():
    bank = umfc.TextBank(names=["a", "b"], data=np.stack([E1, E2]))
    with pytest.raises(umfc.AllShiftsDegenerate):
        umfc.calibrate_bank(bank, np.stack([E2, E2]))


def test_calibrate_bank_rejects_dim_mismatch():
    bank = umfc.TextBank(names=["a", "b"], data=np.stack([E1, E2]))
    with pytest.raises(ValueError):
        umfc.calibrate_bank(bank, np.ones((2, 4)))
    with pytest.raises(ValueError):
        calibrate_row(E1, np.ones((2, 4)))


def _plain_calibration(t, shifts):
    """Text calibration term by term: the mean of the kept unit vectors t - s."""
    diffs = [t - s for s in shifts]
    return np.mean([d / np.linalg.norm(d) for d in diffs
                    if np.linalg.norm(d) >= umfc.DEGENERACY_EPS], axis=0)


def _unit(rng, d):
    u = rng.standard_normal(d)
    return u / np.linalg.norm(u)


def test_calibrate_bank_near_term_matches_plain_loop():
    # t - s_1 is 1e-7 long against |t|, |s| near 6: the expanded distance
    # |t|^2 - 2 t.s + |s|^2 keeps almost no digits of it, so the row must
    # be summed term by term
    rng = np.random.default_rng(17)
    shifts = rng.standard_normal((5, 32))
    data = rng.standard_normal((4, 32))
    data[2] = shifts[1] + 1e-7 * _unit(rng, 32)
    cal = umfc.calibrate_bank(umfc.TextBank(names=list("abcd"), data=data), shifts)
    for j in range(4):
        assert np.max(np.abs(cal.data[j] - _plain_calibration(data[j], shifts))) <= 1e-14


def test_calibrate_bank_mixed_rows_bit_identical_to_one_row():
    # far rows, a kept near term and a dropped term in one call: every row
    # takes its own path and gets the bits of its one-row calibration
    rng = np.random.default_rng(18)
    shifts = rng.standard_normal((5, 512))
    data = rng.standard_normal((345, 512))
    data[7] = shifts[3] + 1e-7 * _unit(rng, 512)  # near, kept
    data[200] = shifts[0] + 1e-14 * _unit(rng, 512)  # near, dropped
    bank = umfc.TextBank(names=[f"c{j}" for j in range(345)], data=data)
    with pytest.warns(RuntimeWarning) as record:
        cal = umfc.calibrate_bank(bank, shifts)
    assert len(record) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for j in range(345):
            assert cal.data[j].tobytes() == calibrate_row(data[j], shifts).tobytes(), j
    assert np.max(np.abs(cal.data[7] - _plain_calibration(data[7], shifts))) <= 1e-14
    assert np.max(np.abs(cal.data[200] - _plain_calibration(data[200], shifts))) <= 1e-14


def test_calibrate_bank_large_and_small_rows_match_plain_loop():
    rng = np.random.default_rng(19)
    for shift_scale in (1e-3, 1.0, 1e3):
        shifts = shift_scale * rng.standard_normal((5, 16))
        data = rng.standard_normal((6, 16))
        data /= np.linalg.norm(data, axis=1)[:, None]
        data[:3] *= 1e3
        data[3:] *= 1e-3
        cal = umfc.calibrate_bank(umfc.TextBank(names=list("abcdef"), data=data), shifts)
        for j in range(6):
            plain = _plain_calibration(data[j], shifts)
            assert np.max(np.abs(cal.data[j] - plain)) <= 1e-13 * np.max(np.abs(plain))


def test_calibrated_bank_rows_not_renormalized():
    # averaging unit vectors shrinks the result; the rows must keep that
    # shrunken norm since classification divides by it explicitly
    shifts = np.stack([E2, E3])
    bank = umfc.TextBank(names=["a", "b"], data=np.stack([E1, E2 * 2.0]))
    cal = umfc.calibrate_bank(bank, shifts)
    assert np.linalg.norm(cal.data[0]) < 0.95


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
        sims = np.array([_cosine_sim(feats[i], t) for t in bank_data])
        single = _softmax_temp(sims, 0.05)
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


def test_calibrate_bank_names_a_bank_and_shifts_of_other_dimensions():
    bank = umfc.TextBank(names=["a", "b"], data=np.eye(3)[:2])
    with pytest.raises(umfc.DimensionMismatch, match="^a bank of dim 3 against shifts of dim 2$"):
        umfc.calibrate_bank(bank, np.eye(2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ["calib_global_mean", "calib_text_shifts"])
def test_update_refuses_a_non_finite_statistic(name):
    big = np.finfo(np.float64).max
    if name == "calib_global_mean":
        # two finite rows whose exact running sum overflows
        state = _empty(np.zeros((1, 2)), True)
        rows, labels, eta = np.full((2, 2), big), [0, 0], None
    else:
        # eta 1 replaces the means by the rows: their mean, -big / 3, is
        # finite, but the first shift, big + big / 3, is not
        state = StreamState(centroids=np.zeros((3, 2)), counts=np.zeros(3, dtype=np.int64))
        rows, labels, eta = np.array([[big, 0.0], [-big, 0.0], [-big, 0.0]]), [0, 1, 2], 1.0
    with pytest.raises(umfc.NonFiniteInput, match=name):
        _update(state, rows, np.array(labels), eta)


def _composed_softmax(feats, bank_data, tau):
    # the steps classify_batch runs in place, in the rows' dtype: the
    # product over the bank norms, max-subtracted and scaled by
    # 1 / (tau |f|), then exp and the normalization
    dtype = feats.dtype
    bank_data = bank_data.astype(dtype)
    w, b = feats.astype(np.float64), bank_data.astype(np.float64)
    fn = np.sqrt(np.einsum("ij,ij->i", w, w))
    bn = np.sqrt(np.einsum("ij,ij->i", b, b)).astype(dtype)
    scale = np.minimum(1.0 / (tau * fn), np.finfo(dtype).max).astype(dtype)
    part = (feats @ bank_data.T) / bn
    e = np.exp((part - part.max(axis=1, keepdims=True)) * scale[:, None])
    return (e / e.sum(axis=1, keepdims=True)).astype(np.float64)


def test_classify_batch_into_out_is_bit_identical():
    rng = np.random.default_rng(15)
    bank_data = rng.standard_normal((7, 12))
    for dtype in (np.float64, np.float32):
        feats = rng.standard_normal((30, 12)).astype(dtype)
        fresh = umfc.classify_batch(feats, bank_data, tau=0.05)
        assert fresh.dtype == np.float64
        assert fresh.tobytes() == _composed_softmax(feats, bank_data, 0.05).tobytes()
        # into rows of a larger result, as _predict_rows scores a block
        buf = np.full((40, 7), np.nan)
        out = umfc.classify_batch(feats, bank_data, tau=0.05, out=buf[5:35])
        assert out.base is buf
        assert buf[5:35].tobytes() == fresh.tobytes()
        assert np.isnan(buf[:5]).all() and np.isnan(buf[35:]).all()
        # into an array of the rows' dtype, as _predict_rows scores a
        # block without keep_probs
        own = umfc.classify_batch(feats, bank_data, tau=0.05, out=np.empty((30, 7), dtype))
        assert own.astype(np.float64).tobytes() == fresh.tobytes()


def test_calibrate_bank_rows_just_above_near_threshold_match_plain_loop():
    # bank rows whose squared distance to one shift is a small fraction
    # of |t|^2 + |s|^2: the expansion loses about 1e-17 / ratio of each
    # such term, so rows on either side of the near threshold must stay
    # within a few ulps of the term-by-term mean
    ratios = (2e-4, 1e-3, 1.1e-2, 1e-1)
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(200):
        shifts = rng.standard_normal((5, 64))
        data = np.empty((len(ratios), 64))
        for j, r in enumerate(ratios):
            s = shifts[j]
            u = rng.standard_normal(64)
            u -= (u @ s) / (s @ s) * s
            # t = s + delta u with u orthogonal to s: d^2 / (|t|^2 + |s|^2) = r
            delta = np.sqrt(2.0 * r / (1.0 - r)) * np.linalg.norm(s)
            data[j] = s + delta * u / np.linalg.norm(u)
        cal = umfc.calibrate_bank(umfc.TextBank(names=list("abcd"), data=data), shifts)
        for j in range(len(ratios)):
            worst = max(worst, np.max(np.abs(cal.data[j] - _plain_calibration(data[j], shifts))))
    assert worst <= 3e-15
