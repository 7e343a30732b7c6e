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
"""

import warnings
from typing import Optional, Tuple

import numpy as np

from .core import DEGENERACY_EPS, TextBank, _check_tau
from .errors import AllShiftsDegenerate, DegenerateVector, DimensionMismatch

# a text-minus-shift term whose expanded squared distance is below this
# fraction of |t|^2 + |s|^2 goes to the exact norm (see _calibrate_rows);
# the expansion loses about 1e-17 / fraction of a term, so terms kept in
# closed form stay within about 1.5e-15 of the term-by-term sum
_NEAR_FACTOR = 1e-2
# bank rows _calibrate_rows combines at a time
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
        norms = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        drop = ~(norms >= DEGENERACY_EPS)  # a NaN norm is dropped too
        diff[drop] = 0.0
        norms[drop] = 1.0
        kept += ~drop
        diff /= norms[:, None]
        out += diff
    return out, kept


def _calibrate_rows(rows: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Text calibration of every row of a K x D array; the kernel behind
    calibrate_bank.

    Closed form: with w_ki = 1 / |t_k - s_i|, calibrated row k is
    sum_i w_ki (t_k - s_i) / kept_k = (t_k sum_i w_ki - (W S)_k) / kept_k,
    and the distances come from |t|^2 - 2 T S^T + |s|^2; the divisor is
    folded into W.  T S^T and W S are einsum products, not BLAS: each
    output row gets the bits it gets in a one-row call.  The shift rows
    are sorted lexicographically first, so a permutation or repetition
    of them changes no bit.

    A term whose expanded squared distance is below _NEAR_FACTOR times
    |t|^2 + |s|^2, or below (2 DEGENERACY_EPS)^2, or NaN, may have lost
    its digits to cancellation.  Its exact norm is computed; below
    DEGENERACY_EPS the term is dropped (weight 0, out of the row's kept
    count, no other bit changes), otherwise the row is recomputed by the
    exact per-shift loop, _term_sums.
    """
    rows = np.asarray(rows, dtype=np.float64)
    shifts = np.asarray(shifts, dtype=np.float64)
    if rows.ndim != 2 or shifts.ndim != 2:
        raise ValueError(f"expected 2-d rows and shifts, got {rows.shape} and {shifts.shape}")
    if shifts.shape[1] != rows.shape[1]:
        raise DimensionMismatch(
            f"shifts shape {shifts.shape} does not match rows of shape {rows.shape}"
        )
    shifts = shifts[_lex_order(shifts)]
    r2 = np.einsum("kd,kd->k", rows, rows)[:, None]
    s2 = np.einsum("md,md->m", shifts, shifts)
    d2 = r2 - 2.0 * np.einsum("kd,md->km", rows, shifts) + s2
    near = ~(d2 >= np.maximum(_NEAR_FACTOR * (r2 + s2), 4.0 * DEGENERACY_EPS**2))
    d2[near] = 1.0
    w = 1.0 / np.sqrt(d2)
    kept = np.full(rows.shape[0], shifts.shape[0], dtype=np.int64)
    exact = np.zeros(0, dtype=np.int64)  # rows summed term by term
    ws_shifts = shifts
    if near.any():
        kk, ii = np.nonzero(near)
        diff = rows[kk] - shifts[ii]
        keep = np.sqrt(np.einsum("ij,ij->i", diff, diff)) >= DEGENERACY_EPS
        exact = np.unique(kk[keep])
        w[kk[~keep], ii[~keep]] = 0.0
        kept -= np.bincount(kk[~keep], minlength=rows.shape[0])
        # a shift with a NaN is dropped from every row; 0 * NaN must not reach W S
        ws_shifts = np.where(np.isnan(shifts), 0.0, shifts)
    if exact.size:
        sums, kept[exact] = _term_sums(rows[exact], shifts)
    if not kept.all():
        raise AllShiftsDegenerate("every text-minus-shift term of a row has zero norm")
    skipped = int(kept.size * shifts.shape[0] - kept.sum())
    if skipped:
        warnings.warn(
            f"skipped {skipped} degenerate calibration term(s); "
            f"each affected row averages only its remaining terms",
            RuntimeWarning,
            stacklevel=3,
        )
    w /= kept[:, None]
    # summed one shift after another, as einsum sums W S, so a zero
    # weight changes no bit (np.sum of a row would go pairwise)
    wsum = np.zeros(rows.shape[0])
    for col in w.T:
        wsum += col
    # t sum_i w_i - (W S), a few rows at a time, so W S needs only a
    # cache-sized buffer instead of a second K x D array
    out = np.empty_like(rows)
    ws = np.empty((min(_BLOCK_ROWS, rows.shape[0]), rows.shape[1]))
    for start in range(0, rows.shape[0], _BLOCK_ROWS):
        b = slice(start, start + _BLOCK_ROWS)
        np.multiply(rows[b], wsum[b, None], out=out[b])
        out[b] -= np.einsum("km,md->kd", w[b], ws_shifts, out=ws[: out[b].shape[0]])
    if exact.size:
        out[exact] = sums / kept[exact, None]
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
    return TextBank._unchecked(list(bank.names), _calibrate_rows(bank.data, shifts))


def classify_batch(
    feats: np.ndarray,
    bank_data: np.ndarray,
    tau: float,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Softmax over the cosine similarities between each feature row and
    every bank row; one probability row per feature.

    The probabilities are written to out (float64, N x K) when given and
    to a new array otherwise; either way that array is returned.  Every
    step after the matrix product works in that array, with the bits of
    core.softmax_temp.
    """
    tau = _check_tau(tau)
    feats = np.asarray(feats, dtype=np.float64)
    if feats.shape[1] != bank_data.shape[1]:
        raise DimensionMismatch(
            f"features of dim {feats.shape[1]} against a bank of dim {bank_data.shape[1]}"
        )
    fn = np.linalg.norm(feats, axis=1)
    bn = np.linalg.norm(bank_data, axis=1)
    if bool(np.any(fn < DEGENERACY_EPS)) or bool(np.any(bn < DEGENERACY_EPS)):
        raise DegenerateVector("cosine similarity of a zero-norm vector is undefined")
    probs = np.matmul(feats, bank_data.T, out=out)
    probs /= np.outer(fn, bn)
    np.clip(probs, -1.0, 1.0, out=probs)
    probs -= np.max(probs, axis=-1, keepdims=True)
    probs /= tau
    np.exp(probs, out=probs)
    probs /= np.sum(probs, axis=-1, keepdims=True)
    return probs
