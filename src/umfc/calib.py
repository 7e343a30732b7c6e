"""Feature and text-bank calibration.

Image side: a feature is re-expressed as the unit direction from its
cluster's mean, which cancels whatever additive component the cluster
shares (the domain's signature).  Text side: each class vector is moved
against every cluster's offset from the global mean and the normalized
results are averaged, which strips per-domain preference from the bank.
That average is computed in closed form from two row-local einsum
products, T S^T for the distances and W S for the weighted shifts, with
no pass over the bank per shift; the few terms whose distance the
expansion cannot resolve send their row to the exact per-shift loop.
One kernel, _factors, gives the parts of that form (the weights W,
their row sums and T S^T); calibrate_bank builds the K x D bank from
them, and _factored_classifier scores rows against that bank without
building it, from F T^T, F S^T and the M x M S S^T: fewer multiplications
than building the bank when there are fewer rows than dimensions.  Both
end in one softmax, _softmax.
"""

import math
import warnings
from typing import Callable, Optional, Tuple

import numpy as np

from .core import DEGENERACY_EPS, TextBank, _check_tau, _float_rows, _row_norms, _sq_norms
from .errors import AllShiftsDegenerate, DegenerateVector, DimensionMismatch

# a text-minus-shift term whose expanded squared distance is below this
# fraction of |t|^2 + |s|^2 goes to the exact norm (see _factors);
# the expansion loses about 1e-17 / fraction of a term, so terms kept in
# closed form stay within about 1.5e-15 of the term-by-term sum
_NEAR_FACTOR = 1e-2
# bank rows _built_rows combines at a time
_BLOCK_ROWS = 64

__all__ = [
    "calibrate_bank",
    "classify_batch",
]


def _lex_order(a: np.ndarray) -> np.ndarray:
    """np.lexsort order of the rows of a, first column first.

    A stable sort of the first column alone gives the same order when
    that column already tells every row apart, at the cost of one
    argsort instead of one per column; otherwise the full lexsort decides.
    """
    order = np.argsort(a[:, 0], kind="stable")
    first = a[order, 0]
    if not (first[1:] > first[:-1]).all():  # a tie, or a NaN
        order = np.lexsort(a.T[::-1])
    return order


def _term_sums(rows: np.ndarray, shifts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sum of the unit terms (t - s_i) / |t - s_i| of every row and the
    number of terms kept, one pass over the whole block per shift row,
    in the given shift order.  A dropped term is zeroed before it is
    added, so each row keeps its own count.
    """
    out = np.zeros_like(rows)
    diff = np.empty_like(rows)
    kept = np.zeros(rows.shape[0], dtype=np.int64)
    for s in shifts:
        np.subtract(rows, s, out=diff)
        norms = _row_norms(diff)
        drop = ~(norms >= DEGENERACY_EPS)  # a NaN norm is dropped too
        diff[drop] = 0.0
        norms[drop] = 1.0
        kept += ~drop
        diff /= norms[:, None]
        out += diff
    return out, kept


def _near_terms(rows: np.ndarray, shifts: np.ndarray, near: np.ndarray,
                w: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The near terms of _factors: their exact norms, the dropped ones'
    weights in w zeroed, the exact rows summed term by term.  Returns
    each row's kept count (K x 1), the exact rows' indices, their
    calibrated rows and the shifts with a NaN zeroed; warns of dropped
    terms and raises AllShiftsDegenerate for a row that keeps none."""
    kk, ii = np.nonzero(near)
    diff = rows[kk] - shifts[ii]
    keep = _row_norms(diff) >= DEGENERACY_EPS
    exact = np.unique(kk[keep])
    w[kk[~keep], ii[~keep]] = 0.0
    kept = shifts.shape[0] - np.bincount(kk[~keep], minlength=rows.shape[0])
    exact_rows = np.zeros((0, rows.shape[1]))
    if exact.size:
        exact_rows, kept[exact] = _term_sums(rows[exact], shifts)
    if not kept.all():
        raise AllShiftsDegenerate("every text-minus-shift term of a row has zero norm")
    skipped = int(kept.size * shifts.shape[0] - kept.sum())
    if skipped:
        warnings.warn(
            f"skipped {skipped} degenerate calibration term(s); "
            f"each affected row averages only its remaining terms",
            RuntimeWarning,
            stacklevel=4,
        )
    exact_rows /= kept[exact, None]
    # a shift with a NaN is dropped from every row; 0 * NaN must not reach W S
    return kept[:, None], exact, exact_rows, np.where(np.isnan(shifts), 0.0, shifts)


def _factors(rows: np.ndarray, shifts: np.ndarray) -> tuple:
    """The parts of the text calibration of every row of a K x D array:
    (rows, shifts, ts, r2, w, wsum, exact, exact_rows).

    Closed form: with w_ki = 1 / |t_k - s_i|, calibrated row k is
    sum_i w_ki (t_k - s_i) / kept_k = (t_k sum_i w_ki - (W S)_k) / kept_k,
    and the distances come from |t|^2 - 2 T S^T + |s|^2; the divisor is
    folded into W.  rows are the bank rows in float64; shifts the shift
    rows in float64, sorted lexicographically (so a permutation or
    repetition of them changes no bit), with a NaN zeroed where its
    shift was dropped, as W S takes them; ts is T S^T and r2 |t|^2, both
    einsum products, so each bank row gets the bits it gets in a one-row
    call; w is W (K x M, over kept) and wsum its row sums, added one
    shift after another as einsum adds W S, so a zero weight changes no
    bit.

    A term whose expanded squared distance is below _NEAR_FACTOR times
    |t|^2 + |s|^2, or below (2 DEGENERACY_EPS)^2, or NaN, may have lost
    its digits to cancellation.  Its exact norm is computed; below
    DEGENERACY_EPS the term is dropped (weight 0, out of the row's kept
    count, no other bit changes), otherwise the row is summed by the
    exact per-shift loop, _term_sums: exact holds those rows' indices
    (sorted) and exact_rows their calibrated rows, which replace what
    the closed form gives them.  One RuntimeWarning covers every dropped
    term, and AllShiftsDegenerate is raised if a row keeps none.
    """
    rows = _float_rows(rows).astype(np.float64, copy=False)
    shifts = _float_rows(shifts).astype(np.float64, copy=False)
    if shifts.shape[1] != rows.shape[1]:
        raise DimensionMismatch(f"a bank of dim {rows.shape[1]} against shifts of dim {shifts.shape[1]}")
    shifts = shifts[_lex_order(shifts)]
    r2 = _sq_norms(rows)
    s2 = _sq_norms(shifts)
    ts = np.einsum("kd,md->km", rows, shifts)
    d2 = r2[:, None] - 2.0 * ts + s2
    near = ~(d2 >= np.maximum(_NEAR_FACTOR * (r2[:, None] + s2), 4.0 * DEGENERACY_EPS**2))
    exact = np.zeros(0, dtype=np.int64)  # rows summed term by term
    exact_rows = np.zeros((0, rows.shape[1]))
    ws_shifts, kept = shifts, shifts.shape[0]
    if near.any():
        d2[near] = 1.0
        w = 1.0 / np.sqrt(d2)
        kept, exact, exact_rows, ws_shifts = _near_terms(rows, shifts, near, w)
    elif not kept:
        raise AllShiftsDegenerate("every text-minus-shift term of a row has zero norm")
    else:
        w = 1.0 / np.sqrt(d2)
    w /= kept
    wsum = np.zeros(rows.shape[0])
    for col in w.T:
        wsum += col
    return rows, ws_shifts, ts, r2, w, wsum, exact, exact_rows


def _built_rows(rows: np.ndarray, shifts: np.ndarray, w: np.ndarray, wsum: np.ndarray) -> np.ndarray:
    """t sum_i w_i - (W S) of the given rows of _factors, a few rows at a
    time, so W S needs only a cache-sized buffer instead of a second
    K x D array; each row gets the same bits whichever rows are built."""
    out = np.empty_like(rows)
    ws = np.empty((min(_BLOCK_ROWS, rows.shape[0]), rows.shape[1]))
    for start in range(0, rows.shape[0], _BLOCK_ROWS):
        b = slice(start, start + _BLOCK_ROWS)
        np.multiply(rows[b], wsum[b, None], out=out[b])
        out[b] -= np.einsum("km,md->kd", w[b], shifts, out=ws[: out[b].shape[0]])
    return out


def _calibrated_rows(factors: tuple) -> np.ndarray:
    """The K x D calibrated bank that _factors describes."""
    rows, shifts, _, _, w, wsum, exact, exact_rows = factors
    out = _built_rows(rows, shifts, w, wsum)
    out[exact] = exact_rows
    return out


def calibrate_bank(bank: TextBank, shifts: np.ndarray) -> TextBank:
    """Average of the unit vectors (t - shift_i) over all shift rows, for
    every bank row t, as a bank with the same names.

    Terms whose difference has (near-)zero norm are skipped; each row
    keeps its own kept count as divisor, one RuntimeWarning covers all
    skipped terms, and AllShiftsDegenerate is raised if any row keeps
    none.  Terms are summed in the lexicographic order of the shift
    rows, an order that does not depend on the bank: any permutation of
    the shift rows, and any repetition of one, yields bit-identical
    output, and a row gets the same bits in a one-row bank.  Rows are
    left at whatever norm the average has; classification uses cosine
    similarity, which absorbs the row norm.
    """
    return TextBank._unchecked(list(bank.names), _calibrated_rows(_factors(bank.data, shifts)))


def classify_batch(
    feats: np.ndarray,
    bank_data: np.ndarray,
    tau: float,
    out: Optional[np.ndarray] = None,
    *,
    bank_norms: Optional[np.ndarray] = None,
    feat_norms: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Softmax over the cosine similarities between each feature row and
    every bank row; one probability row per feature.

    Every step runs in the dtype of the feature rows (float32 for float32
    rows, core._float_rows), with bank_data cast to it; both must be 2-d.  The
    probabilities go to out when given (N x K, float64 or the rows'
    dtype) and to a new float64 array otherwise, and that array is
    returned; float32 rows scored into a float64 out are scored in a
    float32 array of their own, and only the finished probability rows
    are widened.  bank_norms and feat_norms, when given, must be the row
    norms (core._row_norms) of bank_data in the rows' dtype and of feats:
    a caller scoring many blocks against one bank takes the bank's once,
    and the engine passes the norms it took to flag its calibrated rows.

    No row is normalized.  The product is divided by the bank norms, so
    row i holds |f_i| times its cosines c_ik; its max is subtracted, and
    the row is scaled by 1 / (tau |f_i|), taken in float64 and clamped to
    the largest finite value of the dtype, so the exponents are
    (c_ik - max_j c_ij) / tau; these steps, _softmax, run in place on the
    product.  A tau that under- or overflows the dtype
    still gives finite probabilities that sum to one: all the mass on the
    top cosine, or all classes alike.  The cosines are not clipped to
    [-1, 1]; one that rounds past it moves its exponent no more than any
    other rounding does (see the engine's precision note).  The bias
    probe calls it with the domain anchors as the bank
    (diagnostics.domain_bias_probe).
    """
    tau = _check_tau(tau)
    feats = _float_rows(feats)
    bank_data = _float_rows(bank_data).astype(feats.dtype, copy=False)
    if feats.shape[1] != bank_data.shape[1]:
        raise DimensionMismatch(
            f"features of dim {feats.shape[1]} against a bank of dim {bank_data.shape[1]}"
        )
    fn = _row_norms(feats) if feat_norms is None else feat_norms
    bn = _row_norms(bank_data) if bank_norms is None else bank_norms
    if bool(np.any(fn < DEGENERACY_EPS)) or bool(np.any(bn < DEGENERACY_EPS)):
        raise DegenerateVector("cosine similarity of a zero-norm vector is undefined")
    if out is None:
        out = np.empty((feats.shape[0], bank_data.shape[0]))
    return _softmax(feats, lambda f, work: np.matmul(f, bank_data.T, out=work), bn, fn, tau, out)


def _softmax(feats: np.ndarray, product: Callable, bank_norms: np.ndarray,
             feat_norms: np.ndarray, tau: float, out: np.ndarray) -> np.ndarray:
    """The scoring both forms share: product(feats, work) writes the N x K
    numerators of the cosines (feats times each bank row) into work, an
    array of the rows' dtype (out itself when it has that dtype), and
    the steps classify_batch describes turn them into the probabilities
    in out, which is returned.  The norms are those classify_batch
    takes, already checked."""
    dtype = feats.dtype
    work = out if out.dtype == dtype else np.empty(out.shape, dtype=dtype)
    bn = bank_norms.astype(dtype, copy=False)
    # a clamped scale may overflow the product to -inf, which exp takes to 0
    with np.errstate(over="ignore", divide="ignore"):
        scale = np.minimum(1.0 / (tau * feat_norms), np.finfo(dtype).max).astype(dtype, copy=False)
        product(feats, work)
        work /= bn
        work -= np.max(work, axis=-1, keepdims=True)
        work *= scale[:, None]
        np.exp(work, out=work)
        work /= np.sum(work, axis=-1, keepdims=True)
    if work is not out:
        out[...] = work
    return out


def _factored_classifier(bank_data: np.ndarray, shifts: np.ndarray, tau: float,
                         dtype: np.dtype) -> Callable:
    """classify_batch against the rows calibrate_bank builds from
    bank_data and shifts, for rows of dtype, without building them: a
    function classify(feats, out, feat_norms) taking classify_batch's
    out and the (nonzero) feature norms.

    With the parts of _factors and V = W / wsum, calibrated row k is
    wsum_k (t_k - (V S)_k), so a cosine's numerator is
    (F T^T)_jk - ((F S^T) V^T)_jk and its norm's square
    |t_k|^2 - 2 v_k . (T S^T)_k + v_k (S S^T) v_k^T: N K (D + M)
    products against the K M D of building the bank.  reach_k =
    |t_k| + max_i |s_i| bounds every term of both, so a row whose
    expanded norm is below sqrt(_NEAR_FACTOR) reach_k, or not finite,
    is built instead (its expansion would lose more than about 1e-14 of
    it, and its factored numerator round more than 10 times as much as
    the built row's; see the engine's precision note), as is every
    exact row; those columns are scored against the built rows and
    their norms.  A built row of zero norm raises DegenerateVector, as
    classify_batch does; every other row's calibrated norm is at least
    sqrt(_NEAR_FACTOR), since wsum_k reach_k >= 1.  A block whose
    largest |f| times max(1, reach) could overflow dtype is scored by
    classify_batch against the whole built bank, built once.
    """
    factors = _factors(bank_data, shifts)
    rows, shifts, ts, r2, w, wsum, exact, exact_rows = factors
    with np.errstate(over="ignore", invalid="ignore"):
        v = w / wsum[:, None]
        g = shifts @ shifts.T
        n2 = np.einsum("km,km->k", v, v @ g - 2.0 * ts)
        n2 += r2
        norms = np.sqrt(n2)
        reach = np.sqrt(r2) + math.sqrt(g.max())
        build = ~(norms >= math.sqrt(_NEAR_FACTOR) * reach)
        if exact.size:
            build[exact] = True
        idx = built = None
        if build.any():
            idx = np.flatnonzero(build)
            built = _built_rows(rows[idx], shifts, w[idx], wsum[idx])
            built[np.searchsorted(idx, exact)] = exact_rows
            built = built.astype(dtype, copy=False)
            norms[idx] = _row_norms(built)
            if not norms[idx].min() >= DEGENERACY_EPS:
                raise DegenerateVector("cosine similarity of a zero-norm vector is undefined")
        # every entry of the factored products is at most about |f| mag: a
        # block where that passes lim takes the built bank, and every block
        # does once mag itself (a row the cast to dtype may overflow) does
        lim = np.finfo(dtype).max / 16
        mag = max(1.0, float(reach.max()))
        mag = mag if mag < lim else math.inf
        t, s = rows, shifts
        if dtype != rows.dtype:
            t, s, v = t.astype(dtype), s.astype(dtype), v.astype(dtype)
    full = None  # the built bank, made once a block needs it

    def product(f, work):
        np.matmul(f, t.T, out=work)
        work -= (f @ s.T) @ v.T
        if built is not None:
            work[:, idx] = f @ built.T

    def classify(feats, out, feat_norms):
        nonlocal full
        if feat_norms.max() * mag < lim:
            return _softmax(feats, product, norms, feat_norms, tau, out)
        if full is None:  # two workers may both build it, to the same bits
            bank = _calibrated_rows(factors).astype(dtype, copy=False)
            full = bank, _row_norms(bank)
        return classify_batch(feats, full[0], tau, out, bank_norms=full[1], feat_norms=feat_norms)

    return classify
