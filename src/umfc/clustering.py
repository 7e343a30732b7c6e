"""Seeded, deterministic k-means.

Lloyd's algorithm with greedy k-means++ seeding.  All randomness flows
through numpy's PCG64 generator (``np.random.default_rng``), a named
64-bit PRNG with published reference outputs, so a seed value means the
same thing on every platform.  Centroid updates reduce rows in ascending
index order, which keeps refits bit-identical.  Float32 rows are
clustered with their distance products in float32 (core._float_rows);
squared norms and distances, cluster sums and centroids are float64.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import _float_rows, _for_blocks, _row_norms, _sq_norms, row_blocks
from .errors import DimensionMismatch, TooFewSamples

__all__ = [
    "ClusterModel",
    "kmeans_fit",
    "assign_batch",
    "batch_cluster_means",
]

# Lloyd's loop stops after MAX_ITERS updates, or once no centroid moves
# by TOL or more
MAX_ITERS = 100
TOL = 1e-4


@dataclass
class ClusterModel:
    """What kmeans_fit fits: the centroids.

    inertia_history is a diagnostic: after each Lloyd update, the sum of
    squared distances from every row to the nearest updated centroid.
    It is read off the assignment pass the update needs anyway, so it
    costs no pass of its own; it is non-increasing, and its last entry
    is the objective of the returned centroids and labels.
    """

    centroids: np.ndarray
    inertia_history: Optional[list] = None


def _assign_dense(
    x: np.ndarray, centroids: np.ndarray, x2: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Labels and squared distances to the assigned centroid.

    Uses the expansion |x-c|^2 = |x|^2 - 2 x.c + |c|^2 so the heavy part
    is a matrix product; negatives from cancellation are clamped to 0.
    Ties take the lowest centroid index (argmin keeps the first hit).
    x2, the squared row norms of x (core._sq_norms, which also gives the
    centroids'), is taken block by block unless given.  The product x.c
    runs in x's dtype, against the centroids cast to it; the distances
    are float64.  It runs over row_blocks (core._for_blocks), so each
    worker holds CHUNK_ROWS x M scratch (and the BLAS buffer of one
    block's product) besides the two length-N outputs.
    """
    c2 = _sq_norms(centroids)
    ct = centroids.T.astype(x.dtype, copy=False)
    labels = np.empty(x.shape[0], dtype=np.int64)
    dist = np.empty(x.shape[0], dtype=np.float64)

    def assign(sl):
        b2 = _sq_norms(x[sl]) if x2 is None else x2[sl]
        d2 = b2[:, None] - 2.0 * (x[sl] @ ct) + c2[None, :]
        np.maximum(d2, 0.0, out=d2)
        labels[sl] = np.argmin(d2, axis=1)
        dist[sl] = d2[np.arange(d2.shape[0]), labels[sl]]

    _for_blocks(assign, x.shape[0])
    return labels, dist


def _cluster_sums(x: np.ndarray, labels: np.ndarray, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-cluster float64 row sums and counts, rows taken in ascending
    index order (float32 rows are summed in float64).

    The clusters are shared out among the workers of a pass
    (core._for_blocks); each walks row_blocks, copying one block's rows
    of its cluster at a time.  numpy reduces axis 0 of C-contiguous rows
    one row after another, so carrying a cluster's sum in as the first
    row of its next block's reduction gives the bits of one np.sum over
    all its rows.  A sum starts from its first block's own reduction,
    not from a zero row, so signed zeros come out as np.sum gives them.
    """
    sums = np.zeros((m, x.shape[1]), dtype=np.float64)
    counts = np.bincount(labels, minlength=m).astype(np.int64, copy=False)
    if counts.shape[0] != m:
        raise ValueError(f"cluster labels must be below {m}, got {int(labels.max())}")

    def cluster_sum(j):
        started = False
        for sl in row_blocks(x.shape[0]):
            rows = x[sl][labels[sl] == j]
            if not rows.shape[0]:
                continue
            if started:
                rows = np.concatenate((sums[j : j + 1], rows))
            sums[j] = np.add.reduce(rows, axis=0, dtype=np.float64)
            started = True

    _for_blocks(cluster_sum, x.shape[0], tasks=np.flatnonzero(counts))
    return sums, counts


def _kmeanspp_init(
    x: np.ndarray, x2: np.ndarray, m: int, rng: np.random.Generator
) -> np.ndarray:
    """Greedy k-means++ seeding; x2 holds the squared row norms of x.
    The products x @ x[i] run in x's dtype; the centers are float64.

    Each new center is drawn from the squared-distance distribution; of
    2 + floor(log m) sampled candidates the one that lowers the total
    potential most is kept (the greedy variant, which avoids most bad
    local seedings while staying fully seeded and deterministic).
    """
    n = x.shape[0]

    def dist2(i: int) -> np.ndarray:
        """Squared distances of every row to row i, clamped at 0."""
        d2 = x2 - 2.0 * (x @ x[i]) + x2[i]
        return np.maximum(d2, 0.0, out=d2)

    centers = np.empty((m, x.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = x[first]
    d2 = dist2(first)
    n_candidates = 2 + int(np.log(m)) if m > 1 else 1
    for j in range(1, m):
        total = float(d2.sum())
        if total <= 0.0:
            # all points coincide with existing centers; any pick works
            centers[j] = x[int(rng.integers(n))]
            continue
        cand = rng.choice(n, size=n_candidates, replace=True, p=d2 / total)
        best_pot = np.inf
        best_d2 = d2
        best = int(cand[0])
        for ci in cand:
            ci = int(ci)
            nd2 = np.minimum(d2, dist2(ci))
            pot = float(nd2.sum())
            if pot < best_pot:
                best_pot, best, best_d2 = pot, ci, nd2
        centers[j] = x[best]
        d2 = best_d2
    return centers


def _repair_empty(labels: np.ndarray, d2: np.ndarray, m: int) -> np.ndarray:
    """Give every empty cluster the point currently farthest from its centroid."""
    counts = np.bincount(labels, minlength=m)
    empties = np.flatnonzero(counts == 0)
    if empties.size == 0:
        return labels
    labels = labels.copy()
    d2 = d2.copy()
    for e in empties:
        far = int(np.argmax(d2))
        labels[far] = e
        d2[far] = -np.inf
    return labels


def kmeans_fit(m: np.ndarray, n_clusters: int, seed: int) -> Tuple[ClusterModel, np.ndarray]:
    """Fit n_clusters centroids to the rows of m.

    Returns the model and the int64 cluster label of every input row
    against the final centroids, so re-running assign_batch on the rows
    reproduces the returned labels exactly.  Iteration stops when the
    assignment stops changing (an exact fixed point: each centroid is
    then the mean of its members) or when the largest centroid movement
    drops below TOL, or after MAX_ITERS updates.

    Float32 rows are clustered in float32 products (see _assign_dense);
    the centroids are float64 whatever the rows' dtype.  Raises
    TooFewSamples when m has fewer rows than n_clusters.
    """
    x = _float_rows(m)
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    if x.shape[0] < n_clusters:
        raise TooFewSamples(f"{x.shape[0]} samples for {n_clusters} clusters")

    rng = np.random.default_rng(seed)
    x2 = _sq_norms(x)
    centroids = _kmeanspp_init(x, x2, n_clusters, rng)
    pure_labels, d2 = _assign_dense(x, centroids, x2)
    labels = _repair_empty(pure_labels, d2, n_clusters)
    history = []

    for _ in range(MAX_ITERS):
        # labels is post-repair here so every cluster has members
        sums, counts = _cluster_sums(x, labels, n_clusters)
        new_centroids = sums / counts[:, None]
        shift = float(np.max(_row_norms(new_centroids - centroids)))
        centroids = new_centroids
        pure_labels, d2 = _assign_dense(x, centroids, x2)
        # the objective of the new centroids under the labels they assign
        history.append(float(d2.sum()))
        repaired = _repair_empty(pure_labels, d2, n_clusters)
        if np.array_equal(repaired, labels) or shift < TOL:
            break
        labels = repaired

    # the returned labels are the plain argmin against the final
    # centroids, so assign_batch reproduces them row for row
    return ClusterModel(centroids=centroids, inertia_history=history), pure_labels


def assign_batch(centroids: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The int64 label of the nearest centroid for every row of m; rows
    of another dimension than the centroids raise DimensionMismatch."""
    x = _float_rows(m)
    if x.shape[1] != centroids.shape[1]:
        raise DimensionMismatch(
            f"rows of dim {x.shape[1]} against centroids of dim {centroids.shape[1]}"
        )
    return _assign_dense(x, centroids)[0]


def batch_cluster_means(
    m: np.ndarray, labels: np.ndarray, n_clusters: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Mean of each cluster's rows within one batch.

    Returns (means, counts).  A cluster with no rows in the batch has
    count 0 and an all-zero means row; callers must treat count == 0 as
    "absent", never as an actual zero mean.
    """
    x = _float_rows(m)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (x.shape[0],):
        raise ValueError(f"labels shape {labels.shape} does not match {x.shape[0]} rows")
    sums, counts = _cluster_sums(x, labels, n_clusters)
    means = np.zeros_like(sums)
    present = counts > 0
    means[present] = sums[present] / counts[present, None]
    return means, counts
