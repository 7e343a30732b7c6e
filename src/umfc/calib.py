"""Feature and text-bank calibration.

Image side: a feature is re-expressed as the unit direction from its
cluster's mean, which cancels whatever additive component the cluster
shares (the domain's signature).  Text side: each class vector is moved
against every cluster's offset from the global mean and the normalized
results are averaged, which strips per-domain preference from the bank.
"""

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import DEGENERACY_EPS, Temperature, TextBank, _as_tau
from .errors import AllShiftsDegenerate, DegenerateVector, DimensionMismatch, NonFiniteInput

__all__ = [
    "CalibrationState",
    "CalibratedTextBank",
    "compute_text_shifts",
    "tfc_calibrate",
    "calibrate_bank",
    "normalize_shift_rows",
    "classify_batch",
]


@dataclass(frozen=True)
class CalibrationState:
    """Everything needed to calibrate new features and the text bank.

    For states produced by a one-shot fit, text_shifts is exactly
    cluster_means - global_mean row for row.  Streaming states refresh a
    shift row only on batches where that cluster appears, so rows there
    reflect the global mean as of the cluster's last appearance.
    """

    cluster_means: np.ndarray
    global_mean: np.ndarray
    text_shifts: np.ndarray

    def __post_init__(self):
        cm = np.asarray(self.cluster_means, dtype=np.float64)
        gm = np.asarray(self.global_mean, dtype=np.float64)
        ts = np.asarray(self.text_shifts, dtype=np.float64)
        if cm.ndim != 2:
            raise ValueError(f"cluster_means must be 2-d, got shape {cm.shape}")
        if gm.shape != (cm.shape[1],):
            raise ValueError(f"global_mean shape {gm.shape} does not match dim {cm.shape[1]}")
        if ts.shape != cm.shape:
            raise ValueError(f"text_shifts shape {ts.shape} does not match {cm.shape}")
        for name, a in (("cluster_means", cm), ("global_mean", gm), ("text_shifts", ts)):
            if not np.isfinite(a).all():
                raise NonFiniteInput(f"{name} contains NaN or infinity")
        object.__setattr__(self, "cluster_means", cm)
        object.__setattr__(self, "global_mean", gm)
        object.__setattr__(self, "text_shifts", ts)

    @classmethod
    def from_means(cls, cluster_means: np.ndarray, global_mean: np.ndarray) -> "CalibrationState":
        cm = np.asarray(cluster_means, dtype=np.float64)
        gm = np.asarray(global_mean, dtype=np.float64)
        return cls(cluster_means=cm, global_mean=gm, text_shifts=cm - gm)

    @property
    def m(self) -> int:
        return self.cluster_means.shape[0]


@dataclass
class CalibratedTextBank:
    """Bank rows after text calibration.

    Rows are averages of unit vectors and are deliberately left at
    whatever norm that average has; classification uses cosine
    similarity, which absorbs the row norm.
    """

    names: Sequence[str]
    data: np.ndarray

    def __post_init__(self):
        self.names = [str(s) for s in self.names]
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.shape[0] != len(self.names):
            raise ValueError(
                f"bank shape {self.data.shape} does not match {len(self.names)} names"
            )

    @property
    def k(self) -> int:
        return self.data.shape[0]


def compute_text_shifts(cluster_means: np.ndarray, global_mean: np.ndarray) -> np.ndarray:
    """Per-cluster offset from the global mean, one exact subtraction per row."""
    cm = np.asarray(cluster_means, dtype=np.float64)
    gm = np.asarray(global_mean, dtype=np.float64)
    if cm.ndim != 2 or gm.shape != (cm.shape[1],):
        raise ValueError(f"incompatible shapes {cm.shape} and {gm.shape}")
    return cm - gm


def normalize_shift_rows(shifts: np.ndarray) -> np.ndarray:
    """Unit-normalize shift rows, leaving (near-)zero rows untouched."""
    shifts = np.asarray(shifts, dtype=np.float64)
    norms = np.linalg.norm(shifts, axis=1)
    out = shifts.copy()
    ok = norms >= DEGENERACY_EPS
    out[ok] = shifts[ok] / norms[ok, None]
    return out


def _calibrate_rows(rows: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Text calibration of every row of a K x D array; the kernel behind
    tfc_calibrate and calibrate_bank.

    One pass per shift row, each over the whole K x D block, in the
    lexicographic order of the shift rows.  A dropped term is zeroed
    before it is added, so each row keeps its own divisor.
    """
    rows = np.asarray(rows, dtype=np.float64)
    shifts = np.asarray(shifts, dtype=np.float64)
    if rows.ndim != 2 or shifts.ndim != 2:
        raise ValueError(f"expected 2-d rows and shifts, got {rows.shape} and {shifts.shape}")
    if shifts.shape[1] != rows.shape[1]:
        raise DimensionMismatch(
            f"shifts shape {shifts.shape} does not match rows of shape {rows.shape}"
        )
    out = np.zeros_like(rows)
    diff = np.empty_like(rows)
    kept = np.zeros(rows.shape[0], dtype=np.int64)
    for i in np.lexsort(shifts.T[::-1]):
        np.subtract(rows, shifts[i], out=diff)
        norms = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        drop = ~(norms >= DEGENERACY_EPS)  # a NaN norm is dropped too
        diff[drop] = 0.0
        norms[drop] = 1.0
        kept += ~drop
        diff /= norms[:, None]
        out += diff
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
    out /= kept[:, None]
    return out


def tfc_calibrate(t: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Average of unit vectors (t - shift_i) over all shift rows.

    Terms whose difference has (near-)zero norm are skipped with a
    warning and the divisor shrinks to the kept count; if every term is
    degenerate AllShiftsDegenerate is raised.  Kept terms are summed in
    the lexicographic order of the shift rows, an order that does not
    depend on t: any permutation of the shift rows, and any repetition
    of one, yields bit-identical output.  The same bits come back for t
    as a row of calibrate_bank.
    """
    return _calibrate_rows(np.asarray(t, dtype=np.float64)[None, :], shifts)[0]


def calibrate_bank(
    bank: Union[TextBank, CalibratedTextBank], shifts: np.ndarray
) -> CalibratedTextBank:
    """tfc_calibrate of every bank row, computed for the whole bank at once.

    Each row keeps its own kept count as divisor; one RuntimeWarning
    covers all skipped terms, and AllShiftsDegenerate is raised if any
    row keeps none.
    """
    return CalibratedTextBank(names=list(bank.names), data=_calibrate_rows(bank.data, shifts))


def classify_batch(
    feats: np.ndarray,
    bank_data: np.ndarray,
    tau: Union[float, Temperature],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Softmax over the cosine similarities between each feature row and
    every bank row; one probability row per feature.

    The probabilities are written to out (float64, N x K) when given and
    to a new array otherwise; either way that array is returned.  Every
    step after the matrix product works in that array, with the bits of
    core.softmax_temp.
    """
    tau = _as_tau(tau)
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
