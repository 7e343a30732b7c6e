"""Shared vector math and container types.

Everything downstream (clustering, calibration, the streaming engine) is
built on the handful of operations defined here.  All arithmetic is done
in float64 regardless of how the data was stored on disk; reductions walk
rows in sorted index order so repeated runs produce bit-identical output.
"""

from dataclasses import dataclass, fields
from typing import ClassVar, Optional, Sequence

import numpy as np

from .errors import DegenerateVector, NonFiniteInput

__all__ = [
    "EmbeddingMatrix",
    "TextBank",
    "Prediction",
    "Predictions",
    "l2_normalize_rows",
    "DEGENERACY_EPS",
]

# Norms below this are treated as zero everywhere in the package.
DEGENERACY_EPS = 1e-12

# Rows per block in every pass over the rows of a matrix (reading a
# container, normalizing, k-means assignment and cluster sums, scoring):
# a pass holds temporaries for one block, not for the whole matrix.
CHUNK_ROWS = 1024


def row_blocks(n: int):
    """Consecutive slices of at most CHUNK_ROWS rows that cover range(n)."""
    step = CHUNK_ROWS
    return (slice(start, min(start + step, n)) for start in range(0, n, step))


def _check_tau(tau: float) -> float:
    """tau as a float; raises ValueError unless it is finite and > 0."""
    if not np.isfinite(tau) or tau <= 0.0:
        raise ValueError(f"tau must be finite and > 0, got {tau}")
    return float(tau)


@dataclass
class EmbeddingMatrix:
    """N row vectors with ids and optional integer class/domain labels.

    Rows are stored as float64.  Labels use -1 (or None for the whole
    array) to mean "absent"; lengths must match the row count.
    """

    data: np.ndarray
    ids: Optional[Sequence[str]] = None
    class_labels: Optional[np.ndarray] = None
    domain_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {self.data.shape}")
        n = self.data.shape[0]
        if not all(np.isfinite(self.data[sl]).all() for sl in row_blocks(n)):
            raise NonFiniteInput("embedding matrix contains NaN or infinity")
        if self.ids is None:
            self.ids = [str(i) for i in range(n)]
        else:
            self.ids = [str(s) for s in self.ids]
            if len(self.ids) != n:
                raise ValueError(f"{len(self.ids)} ids for {n} rows")
        for name in ("class_labels", "domain_labels"):
            lab = getattr(self, name)
            if lab is not None:
                lab = np.asarray(lab, dtype=np.int64)
                if lab.shape != (n,):
                    raise ValueError(f"{name} has shape {lab.shape}, expected ({n},)")
                setattr(self, name, lab)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass
class TextBank:
    """One text embedding per class, aligned with a list of class names;
    a calibrated bank (calibrate_bank) is one too, its rows of any norm."""

    names: Sequence[str]
    data: np.ndarray

    def __post_init__(self):
        self.names = [str(s) for s in self.names]
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise NonFiniteInput("text bank contains NaN or infinity")
        if len(self.names) != self.data.shape[0]:
            raise ValueError(
                f"{len(self.names)} names for {self.data.shape[0]} text rows"
            )
        if len(self.names) < 2:
            raise ValueError("a text bank needs at least two classes")
        if len(set(self.names)) != len(self.names):
            raise ValueError("class names must be unique")

    @classmethod
    def _unchecked(cls, names: Sequence[str], data: np.ndarray) -> "TextBank":
        """A bank of rows derived from a checked bank, left unchecked."""
        bank = cls.__new__(cls)
        bank.names, bank.data = names, data
        return bank

    @property
    def k(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass
class Prediction:
    """Per-sample classification outcome.

    probs sums to 1 (None when its Predictions kept no probs); label is
    the argmax with ties broken toward the lowest class index; cluster
    is -1 when no cluster model was involved.  flags carries markers
    such as "uncalibrated" or "degenerate".
    """

    probs: Optional[np.ndarray]
    label: int
    cluster: int = -1
    flags: tuple = ()


@dataclass
class Predictions:
    """Classification outcome of N rows, one array per column.

    probs is N x K, or None when only the top-1 columns were kept;
    labels (int64) is the argmax of each probs row, ties broken toward
    the lowest class index; top (float64) is the probability of that
    label, probs[i, labels[i]], and is always filled (taken from probs
    when not given); clusters (int64) is -1 where no cluster model was
    involved; flags (uint8) is a bitmask of DEGENERATE and UNCALIBRATED.
    Indexing and iteration give Prediction rows, with the flags spelled
    out as names and probs None when the columns have none.  Columns
    are not validated.
    """

    DEGENERATE: ClassVar[int] = 1
    UNCALIBRATED: ClassVar[int] = 2

    probs: Optional[np.ndarray]
    labels: np.ndarray
    clusters: np.ndarray
    flags: np.ndarray
    top: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.top is None:
            self.top = self.probs[np.arange(self.labels.shape[0]), self.labels]

    @classmethod
    def empty(cls, k: int) -> "Predictions":
        """Zero rows over k classes."""
        return cls(
            probs=np.empty((0, k)),
            labels=np.empty(0, dtype=np.int64),
            clusters=np.empty(0, dtype=np.int64),
            flags=np.empty(0, dtype=np.uint8),
            top=np.empty(0),
        )

    @classmethod
    def concat(cls, parts: Sequence["Predictions"]) -> "Predictions":
        """Rows of every part, in order; parts must not be empty.  probs
        is None when any part has none."""

        def column(name):
            cols = [getattr(p, name) for p in parts]
            return None if any(c is None for c in cols) else np.concatenate(cols)

        return cls(**{f.name: column(f.name) for f in fields(cls)})

    def __len__(self) -> int:
        return self.labels.shape[0]

    def __getitem__(self, i: int) -> Prediction:
        code = int(self.flags[i])
        return Prediction(
            probs=None if self.probs is None else self.probs[i],
            label=int(self.labels[i]),
            cluster=int(self.clusters[i]),
            flags=tuple(name for bit, name in _FLAG_NAMES if code & bit),
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))


_FLAG_NAMES = ((Predictions.UNCALIBRATED, "uncalibrated"), (Predictions.DEGENERATE, "degenerate"))


def l2_normalize_rows(m: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Row-wise unit normalization of a matrix; rejects (near-)zero rows.

    Works through row_blocks, so besides the result it holds one block
    of temporaries; every row gets the same bits as in a single pass.
    The result goes to out (a float64 array of m's shape) when given;
    out=m normalizes m in place with the same bits, since a block's
    norms are taken before its rows are divided.  A DegenerateVector
    raised then leaves the rows of earlier blocks already overwritten.
    """
    m = np.asarray(m, dtype=np.float64)
    if out is None:
        out = np.empty(m.shape)
    elif out.dtype != np.float64 or out.shape != m.shape:
        raise ValueError(f"out is {out.dtype} {out.shape}, expected float64 {m.shape}")
    for sl in row_blocks(m.shape[0]):
        block = m[sl]
        norms = np.sqrt(np.add.reduce(block * block, axis=1))
        bad = np.flatnonzero(norms < DEGENERACY_EPS)
        if bad.size:
            raise DegenerateVector(f"row {sl.start + bad[0]} has norm {norms[bad[0]]:.3e}")
        np.divide(block, norms[:, None], out=out[sl])
    return out

