"""Shared vector math and container types.

Everything downstream (clustering, calibration, the streaming engine) is
built on the handful of operations defined here.  Rows keep float32 when
they come as float32 (as every embedding file stores them) and are
widened to float64 otherwise (_float_rows); the row-wise products then run
in the rows' dtype, while norms (all from one kernel, _sq_norms), sums,
means and probabilities are accumulated and kept in float64.  Passes over
the rows of a matrix work in blocks of CHUNK_ROWS rows on a pool of one
thread per usable CPU (_for_blocks).  Reductions walk rows in sorted
index order so repeated runs produce bit-identical output.
"""

import ctypes
import os
import threading
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Iterable, Optional, Sequence

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
# each worker of a pass (_for_blocks) holds temporaries for one block,
# not for the whole matrix.
CHUNK_ROWS = 1024


def _float_rows(a) -> np.ndarray:
    """a as a 2-d array of float32 if it is one, of float64 otherwise:
    the dtype in which the row-wise products on it run.  Raises
    ValueError unless a is 2-d."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    return a if a.dtype == np.float32 else a.astype(np.float64, copy=False)


def _sq_norms(m: np.ndarray) -> np.ndarray:
    """Squared row norms of m, accumulated in float64 whatever m's dtype;
    the one row-norm kernel of the package."""
    return np.einsum("ij,ij->i", m, m, dtype=np.float64)


def _row_norms(m: np.ndarray) -> np.ndarray:
    """Row norms of m in float64: the square roots of _sq_norms(m)."""
    return np.sqrt(_sq_norms(m))


def row_blocks(n: int):
    """Consecutive slices of at most CHUNK_ROWS rows that cover range(n)."""
    step = CHUNK_ROWS
    return (slice(start, min(start + step, n)) for start in range(0, n, step))


def _check_finite(m: np.ndarray, error: type, what: str, block: Optional[slice] = None) -> None:
    """Raise error naming the lowest row of m with a NaN or infinity: of
    block's rows (one call of a pooled pass), else of all, block by block."""
    for sl in row_blocks(m.shape[0]) if block is None else (block,):
        finite = np.isfinite(m[sl])
        if not finite.all():
            row = sl.start + int(np.flatnonzero(~finite.all(axis=1))[0])
            raise error(f"{what} row {row} contains NaN or infinity")


def _worker_count() -> int:
    """CPUs this process may run on; a pooled pass has a worker on each."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _find_blas():
    """(get, set) of the thread count of the OpenBLAS this process has
    loaded, or None where there is none or it cannot be told which."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("openblas", ""), ("openblas", "64_"),
                               ("scipy_openblas", "64_"), ("scipy_openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


_blas = ()  # _find_blas() once it has run
_pool = None  # (threads, ThreadPoolExecutor), made by the first pooled pass
_pass_lock = threading.Lock()  # held by the pooled pass in progress


def _forget_pool() -> None:
    """In a forked child the pool's threads do not exist: start afresh."""
    global _pool, _pass_lock
    _pool, _pass_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _for_blocks(fn: Callable, n: int, tasks: Optional[Iterable] = None) -> None:
    """Call fn(sl) for every slice sl of row_blocks(n), or fn(t) for every
    t of tasks when given (work that walks the n rows itself).

    Calls run on a pool of one thread per usable CPU, which takes them
    in order while the calling thread waits for each result in turn,
    with the loaded OpenBLAS pinned to one thread while they run and
    then set back to the count it had.  They run inline, one after
    another, when n fits in one block, when there is one call or one
    usable CPU, when the BLAS thread count cannot be set, or inside
    another pooled pass.  Callers write disjoint rows, so the bits do
    not depend on which of these happens.  An exception is re-raised
    from the lowest call that raised one: every call before it has run
    to its end, calls after it may not have run, and none starts once
    it is raised.
    """
    global _blas, _pool
    items = list(row_blocks(n) if tasks is None else tasks)
    cpus = _worker_count()
    if n > CHUNK_ROWS and len(items) > 1 and cpus > 1 and _pass_lock.acquire(blocking=False):
        try:
            if _blas == ():
                _blas = _find_blas()
            if _blas is not None:
                # imported on first use: it adds about 7 ms to `import umfc`
                from concurrent.futures import ThreadPoolExecutor, wait

                if _pool is None or _pool[0] != cpus:
                    if _pool is not None:
                        _pool[1].shutdown(wait=False)
                    _pool = (cpus, ThreadPoolExecutor(cpus, thread_name_prefix="umfc"))
                get_threads, set_threads = _blas
                found = get_threads()
                set_threads(1)
                futures = []
                try:
                    futures = [_pool[1].submit(fn, item) for item in items]
                    for future in futures:
                        future.result()
                finally:
                    for future in futures:  # after a failure, start no call
                        future.cancel()
                    wait(futures)
                    set_threads(found)
                return
        finally:
            _pass_lock.release()
    for item in items:
        fn(item)


def _check_tau(tau: float) -> float:
    """tau as a float; raises ValueError unless it is finite and > 0."""
    if not np.isfinite(tau) or tau <= 0.0:
        raise ValueError(f"tau must be finite and > 0, got {tau}")
    return float(tau)


@dataclass
class EmbeddingMatrix:
    """N row vectors with ids and optional integer class/domain labels.

    Rows are stored as float32 when given as float32 and as float64
    otherwise.  Labels use -1 (or None for the whole array) to mean
    "absent"; lengths must match the row count.
    """

    data: np.ndarray
    ids: Optional[Sequence[str]] = None
    class_labels: Optional[np.ndarray] = None
    domain_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.data = _float_rows(self.data)
        n = self.data.shape[0]
        _check_finite(self.data, NonFiniteInput, "embedding matrix")
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

    @classmethod
    def _unchecked(cls, data: np.ndarray, ids=None, class_labels=None,
                   domain_labels=None) -> "EmbeddingMatrix":
        """A matrix of float32 or float64 rows already checked finite,
        with ids (a list of str) and int64 labels already checked against
        the row count, left unchecked."""
        matrix = cls.__new__(cls)
        matrix.data, matrix.class_labels, matrix.domain_labels = data, class_labels, domain_labels
        matrix.ids = [str(i) for i in range(data.shape[0])] if ids is None else ids
        return matrix

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
        self.data = _float_rows(self.data).astype(np.float64, copy=False)
        _check_finite(self.data, NonFiniteInput, "text bank")
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

    Works through row_blocks (_for_blocks), so besides the result each
    worker holds one block of temporaries; every row gets the same bits
    as in a single pass.  Float32 rows stay float32: their norms are
    taken in float64 and each quotient is rounded once to float32.  The
    result goes to out (an array of m's shape and dtype) when given;
    out=m normalizes m in place with the same bits, since a block's norms
    are taken before its rows are divided.  A DegenerateVector names the
    lowest bad row; rows of other blocks may already be overwritten then.
    """
    m = _float_rows(m)
    if out is None:
        out = np.empty(m.shape, dtype=m.dtype)
    elif out.dtype != m.dtype or out.shape != m.shape:
        raise ValueError(f"out is {out.dtype} {out.shape}, expected {m.dtype} {m.shape}")

    def normalize(sl):
        block = m[sl]
        norms = _row_norms(block)
        bad = np.flatnonzero(norms < DEGENERACY_EPS)
        if bad.size:
            raise DegenerateVector(f"row {sl.start + bad[0]} has norm {norms[bad[0]]:.3e}")
        np.divide(block, norms[:, None], out=out[sl])

    _for_blocks(normalize, m.shape[0])
    return out

