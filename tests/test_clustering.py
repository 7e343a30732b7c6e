"""Deterministic k-means and assignment helpers."""

import itertools

import numpy as np
import pytest

import umfc
from umfc.clustering import _assign_dense, _cluster_sums

from properties import check_lloyd_monotone

FOUR_POINTS = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])


def _exhaustive_best_2_partition(x):
    """Brute-force the optimal 2-clustering by trying every label vector."""
    best = (np.inf, None)
    for labels in itertools.product((0, 1), repeat=len(x)):
        labels = np.array(labels)
        if len(set(labels.tolist())) < 2:
            continue
        cost = 0.0
        for m in (0, 1):
            pts = x[labels == m]
            cost += float(np.sum((pts - pts.mean(axis=0)) ** 2))
        if cost < best[0]:
            best = (cost, labels)
    return best


def test_kmeans_matches_exhaustive_oracle():
    # oracle: best split is {left pair} | {right pair},
    # centroids (0, 0.5) and (10, 0.5), total cost 4 * 0.5^2 = 1.0
    cost, labels = _exhaustive_best_2_partition(FOUR_POINTS)
    assert cost == 1.0
    assert np.array_equal(labels, [0, 0, 1, 1]) or np.array_equal(labels, [1, 1, 0, 0])

    model, labels = umfc.kmeans_fit(FOUR_POINTS, 2, seed=0)
    got = {tuple(c) for c in model.centroids}
    assert got == {(0.0, 0.5), (10.0, 0.5)}
    assert model.inertia_history[-1] == 1.0
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert labels[0] != labels[2]
    assert np.array_equal(np.bincount(labels), [2, 2])


def test_kmeans_deterministic_across_runs():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((60, 4))
    m1, a1 = umfc.kmeans_fit(x, 4, seed=11)
    m2, a2 = umfc.kmeans_fit(x, 4, seed=11)
    assert np.array_equal(m1.centroids, m2.centroids)
    assert np.array_equal(a1, a2)
    assert m1.inertia_history == m2.inertia_history


def test_kmeans_seed_changes_init():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((40, 3))
    runs = {umfc.kmeans_fit(x, 3, seed=s)[0].centroids.tobytes() for s in range(8)}
    # different seeds may land in the same optimum, but the code must not
    # ignore the seed entirely on a multi-modal dataset
    assert len(runs) >= 2


def test_converged_centroids_are_member_means():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((80, 3))
    model, labels = umfc.kmeans_fit(x, 4, seed=3)
    for m in range(4):
        members = x[labels == m]
        assert members.shape[0] == np.bincount(labels)[m]
        assert np.allclose(model.centroids[m], members.mean(axis=0), rtol=0, atol=1e-12)


def test_assignment_reproducible_from_model():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((50, 5))
    model, labels = umfc.kmeans_fit(x, 3, seed=1)
    again = umfc.assign_batch(model.centroids, x)
    assert again.dtype == np.int64
    assert np.array_equal(again, labels)


def test_assign_batch_single_rows_match_batch():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((30, 4))
    model, _ = umfc.kmeans_fit(x, 3, seed=2)
    batch = umfc.assign_batch(model.centroids, x)
    for i in range(30):
        assert umfc.assign_batch(model.centroids, x[i : i + 1])[0] == batch[i]


def test_assign_ties_lowest_index():
    centroids = np.array([[1.0, 0.0], [-1.0, 0.0]])
    labels, d2 = _assign_dense(np.array([[0.0, 0.0]]), centroids)
    assert labels[0] == 0
    assert np.allclose(d2, 1.0)


def test_k_equal_n_gives_singletons():
    x = np.array([[0.0], [1.0], [2.0], [5.0]])
    model, labels = umfc.kmeans_fit(x, 4, seed=0)
    assert sorted(model.centroids.ravel().tolist()) == [0.0, 1.0, 2.0, 5.0]
    assert np.array_equal(np.sort(labels), [0, 1, 2, 3])
    assert model.inertia_history[-1] == 0.0


def test_too_few_samples():
    with pytest.raises(umfc.TooFewSamples):
        umfc.kmeans_fit(np.ones((2, 3)), 5, seed=0)


def test_duplicate_heavy_data_survives():
    # 37 copies of one point and 3 of another: plenty of empty-cluster
    # repair opportunities with k=4
    x = np.vstack([np.zeros((37, 2)), np.full((3, 2), 5.0)])
    model, labels = umfc.kmeans_fit(x, 4, seed=0)
    assert np.isfinite(model.centroids).all()
    assert labels.shape == (40,)
    objective = float(np.sum((x - model.centroids[labels]) ** 2))
    assert model.inertia_history[-1] == objective


def test_cluster_sums_matches_naive():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((25, 3))
    labels = rng.integers(0, 4, size=25)
    sums, counts = _cluster_sums(x, labels, 4)
    for m in range(4):
        assert counts[m] == int(np.sum(labels == m))
        if counts[m]:
            assert np.allclose(sums[m], x[labels == m].sum(axis=0), rtol=0, atol=1e-12)
        else:
            assert np.array_equal(sums[m], np.zeros(3))


def test_batch_cluster_means():
    x = np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 0.0]])
    labels = np.array([0, 0, 2])
    means, counts = umfc.batch_cluster_means(x, labels, 3)
    assert np.array_equal(counts, [2, 0, 1])
    assert np.array_equal(means[0], [1.0, 1.0])
    assert np.array_equal(means[2], [4.0, 0.0])
    with pytest.raises(ValueError, match="labels shape"):
        umfc.batch_cluster_means(x, labels[:2], 3)
    with pytest.raises(ValueError, match="below 2, got 2"):
        umfc.batch_cluster_means(x, labels, 2)


def test_inertia_helper():
    # the recorded objective is the sum of squared distances to the
    # assigned centroids, written out
    x = FOUR_POINTS
    model, labels = umfc.kmeans_fit(x, 2, seed=0)
    assert float(np.sum((x - model.centroids[labels]) ** 2)) == 1.0
    assert model.inertia_history[-1] == 1.0


def test_property_lloyd_monotone_small():
    check_lloyd_monotone(100)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_kmeans_rejects_rows_that_are_not_a_matrix(dtype):
    with pytest.raises(ValueError, match="2-d"):
        umfc.kmeans_fit(np.ones(6, dtype=dtype), 2, seed=0)
    with pytest.raises(ValueError, match="2-d"):
        umfc.kmeans_fit(np.ones((2, 3, 2), dtype=dtype), 2, seed=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_clusters", [0, -1])
def test_kmeans_rejects_fewer_than_one_cluster(dtype, n_clusters):
    with pytest.raises(ValueError, match="n_clusters"):
        umfc.kmeans_fit(np.ones((4, 3), dtype=dtype), n_clusters, seed=0)


def test_kmeans_of_float32_rows_gives_float64_centroids():
    x = np.random.default_rng(2).standard_normal((40, 5)).astype(np.float32)
    model, labels = umfc.kmeans_fit(x, 3, seed=0)
    assert model.centroids.dtype == np.float64
    # a converged centroid is the float64 mean of its members
    for m in range(3):
        assert np.array_equal(model.centroids[m],
                              x[labels == m].sum(axis=0, dtype=np.float64) / np.bincount(labels)[m])
