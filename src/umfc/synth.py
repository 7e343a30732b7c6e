"""Synthetic benchmark with planted class and domain structure.

Every sample is a class anchor plus a domain offset plus Gaussian noise,
with anchors and offsets drawn orthonormal.  Class text vectors carry a
controlled lean toward a "home" domain (class index modulo the domain
count), the synthetic analogue of class names that smell like one domain;
that lean is what makes uncalibrated classification fail in a measurable,
fixable way.  Everything is driven by one PCG64 seed, so a spec generates
the same dataset on every run.

The module also hosts the two brute-force oracles used to check the
engine: a direct zero-shot scorer and a naive store-everything
reimplementation of the transductive pipeline.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .clustering import kmeans_fit
from .core import (
    DEGENERACY_EPS,
    EmbeddingMatrix,
    Predictions,
    TextBank,
    cosine_sim,
    l2_normalize,
    softmax_temp,
)
from .engine import EngineConfig, StreamState
from .errors import DimensionTooSmall

__all__ = [
    "SynthSpec",
    "SyntheticDataset",
    "generate_benchmark",
    "default_benchmark",
    "oracle_zero_shot",
    "oracle_transduce",
    "pairwise_directions",
]

# scale of the random jitter added to every text vector and domain anchor
TEXT_PERTURBATION = 1e-3


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the generated benchmark.

    dim must be at least n_classes + n_domains so the anchors and offsets
    fit in mutually orthogonal directions.  text_domain_bias controls how
    far each class text leans along its home domain's axis; with 0 the
    text is perfectly domain-neutral and uncalibrated accuracy is already
    near perfect.  class_imbalance, when given, is an (n_domains,
    n_classes) weight array reshaping the per-cell sample counts.
    """

    n_classes: int = 10
    n_domains: int = 3
    dim: int = 32
    class_sep: float = 1.0
    domain_offset_norm: float = 2.0
    noise_sigma: float = 0.05
    samples_per_cell: int = 50
    seed: int = 7
    text_domain_bias: float = 0.75
    class_imbalance: Optional[tuple] = None

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.n_classes}")
        if self.n_domains < 1:
            raise ValueError(f"need at least 1 domain, got {self.n_domains}")
        if self.dim < self.n_classes + self.n_domains:
            raise DimensionTooSmall(
                f"dim {self.dim} < n_classes + n_domains = {self.n_classes + self.n_domains}"
            )
        if self.class_sep <= 0:
            raise ValueError(f"class_sep must be > 0, got {self.class_sep}")
        if self.domain_offset_norm < 0 or self.noise_sigma < 0 or self.text_domain_bias < 0:
            raise ValueError("domain_offset_norm, noise_sigma and text_domain_bias must be >= 0")
        if self.samples_per_cell < 1:
            raise ValueError(f"samples_per_cell must be >= 1, got {self.samples_per_cell}")
        if self.class_imbalance is not None:
            w = np.asarray(self.class_imbalance, dtype=np.float64)
            if w.shape != (self.n_domains, self.n_classes):
                raise ValueError(
                    f"class_imbalance shape {w.shape} != ({self.n_domains}, {self.n_classes})"
                )
            if not (np.isfinite(w).all() and (w > 0).all()):
                raise ValueError("class_imbalance weights must be finite and > 0")
            object.__setattr__(self, "class_imbalance", tuple(map(tuple, w.tolist())))

    def home_domain(self, c: int) -> int:
        return c % self.n_domains


@dataclass
class SyntheticDataset:
    """Generated samples plus the ground-truth directions they were built from."""

    spec: SynthSpec
    images: EmbeddingMatrix
    text_bank: TextBank
    domain_anchor_texts: np.ndarray
    true_transition_directions: np.ndarray


def _orthonormal_rows(rng: np.random.Generator, n_rows: int, dim: int) -> np.ndarray:
    """Gram-Schmidt over seeded Gaussian draws; two projection passes keep
    the cross terms at rounding level."""
    if dim < n_rows:
        raise DimensionTooSmall(f"cannot fit {n_rows} orthonormal rows in dimension {dim}")
    basis = np.zeros((n_rows, dim))
    i = 0
    while i < n_rows:
        v = rng.standard_normal(dim)
        for _ in range(2):
            if i:
                v = v - basis[:i].T @ (basis[:i] @ v)
        norm = np.linalg.norm(v)
        if norm < 1e-6:
            continue  # essentially impossible for Gaussian draws; redraw
        basis[i] = v / norm
        i += 1
    return basis


def _cell_counts(spec: SynthSpec) -> np.ndarray:
    """Sample count per (domain, class) cell."""
    z, k = spec.n_domains, spec.n_classes
    if spec.class_imbalance is None:
        return np.full((z, k), spec.samples_per_cell, dtype=np.int64)
    w = np.asarray(spec.class_imbalance, dtype=np.float64)
    w = w / w.sum(axis=1, keepdims=True)
    counts = np.rint(spec.samples_per_cell * k * w).astype(np.int64)
    return np.maximum(counts, 1)


def generate_benchmark(spec: SynthSpec) -> SyntheticDataset:
    """Build the dataset a spec describes.

    Image sample for class c in domain z:
        class_sep * g_c + domain_offset_norm * d_z + noise
    Text vector for class c:
        class_sep * g_c + text_domain_bias * d_home(c) + jitter
    where g are the class anchors and d the domain axes, all orthonormal.
    Rows are emitted round-robin over domains (row i belongs to domain
    i mod Z while every domain still has rows) with each domain's class
    stream independently seeded-shuffled, so any contiguous window of the
    file mixes all domains: the setting a batch-at-a-time consumer is
    meant to face.  true_transition_directions holds the exact unit
    domain axes; the planted direction of travel between domains i and j
    is normalize(d_i - d_j) (see pairwise_directions).
    """
    rng = np.random.default_rng(spec.seed)
    k, z, d = spec.n_classes, spec.n_domains, spec.dim
    basis = _orthonormal_rows(rng, k + z, d)
    anchors = basis[:k]
    axes = basis[k:]

    counts = _cell_counts(spec)
    blocks = []
    class_labels = []
    domain_labels = []
    for zi in range(z):
        for ci in range(k):
            n = int(counts[zi, ci])
            base = spec.class_sep * anchors[ci] + spec.domain_offset_norm * axes[zi]
            noise = spec.noise_sigma * rng.standard_normal((n, d))
            blocks.append(base[None, :] + noise)
            class_labels.extend([ci] * n)
            domain_labels.extend([zi] * n)
    data = np.vstack(blocks)
    class_labels = np.asarray(class_labels, dtype=np.int64)
    domain_labels = np.asarray(domain_labels, dtype=np.int64)

    text = spec.class_sep * anchors.copy()
    for ci in range(k):
        text[ci] += spec.text_domain_bias * axes[spec.home_domain(ci)]
    text += TEXT_PERTURBATION * rng.standard_normal((k, d))

    anchor_texts = axes + TEXT_PERTURBATION * rng.standard_normal((z, d))

    queues = []
    for zi in range(z):
        rows = np.flatnonzero(domain_labels == zi)
        queues.append(rows[rng.permutation(rows.size)])
    order = []
    for i in range(max(q.size for q in queues)):
        for q in queues:
            if i < q.size:
                order.append(q[i])
    perm = np.asarray(order, dtype=np.int64)
    images = EmbeddingMatrix(
        data=data[perm],
        class_labels=class_labels[perm],
        domain_labels=domain_labels[perm],
    )
    bank = TextBank(names=[f"class_{ci:03d}" for ci in range(k)], data=text)
    return SyntheticDataset(
        spec=spec,
        images=images,
        text_bank=bank,
        domain_anchor_texts=anchor_texts,
        true_transition_directions=axes.copy(),
    )


def default_benchmark() -> SyntheticDataset:
    return generate_benchmark(SynthSpec())


def pairwise_directions(axes: np.ndarray) -> np.ndarray:
    """Expand per-domain axes into the Z x Z x D table of unit directions
    from domain j to domain i (rows i == j are zero)."""
    axes = np.asarray(axes, dtype=np.float64)
    z, d = axes.shape
    out = np.zeros((z, z, d))
    for i in range(z):
        for j in range(z):
            if i != j:
                out[i, j] = l2_normalize(axes[i] - axes[j])
    return out


def _oracle_scores(f: np.ndarray, bank_rows: np.ndarray, tau: float) -> np.ndarray:
    """Softmax over the cosines between one feature and each bank row, one at a time."""
    return softmax_temp(np.array([cosine_sim(f, t) for t in bank_rows]), tau)


def _oracle_predictions(probs: list, clusters: list) -> Predictions:
    probs = np.array(probs)
    return Predictions(
        probs=probs,
        labels=np.argmax(probs, axis=1),
        clusters=np.array(clusters, dtype=np.int64),
        flags=np.zeros(len(clusters), dtype=np.uint8),
    )


def oracle_zero_shot(dataset: SyntheticDataset, tau: float = 0.01) -> Predictions:
    """Uncalibrated reference predictions, one sample at a time.

    Deliberately naive: a per-row loop over plain cosine scoring with no
    clustering or calibration anywhere.
    """
    bank = dataset.text_bank.data
    probs = [_oracle_scores(row, bank, tau) for row in dataset.images.data]
    return _oracle_predictions(probs, [-1] * len(probs))


def oracle_transduce(
    dataset: SyntheticDataset, cfg: EngineConfig
) -> Tuple[Predictions, StreamState]:
    """Store-everything reimplementation of the transductive pipeline.

    Shares only kmeans_fit with the engine; every statistic downstream of
    clustering (cluster means, global mean, shifts, per-sample
    calibration, scoring) is recomputed here with scalar/row-level
    operations so the fast vectorized path has an independent yardstick.
    The returned state is built from those recomputed means.
    """
    x = np.array(dataset.images.data, dtype=np.float64)
    n = x.shape[0]
    if cfg.normalize_input:
        x = np.stack([l2_normalize(row) for row in x])

    model, _ = kmeans_fit(x, cfg.clusters, cfg.seed)

    # assign every sample by explicit distance comparison
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        dists = [float(np.linalg.norm(x[i] - model.centroids[m])) for m in range(cfg.clusters)]
        labels[i] = int(np.argmin(dists))

    # recompute all means by sequential accumulation
    mu = np.zeros((cfg.clusters, x.shape[1]))
    counts = np.zeros(cfg.clusters, dtype=np.int64)
    total = np.zeros(x.shape[1])
    for i in range(n):
        mu[labels[i]] += x[i]
        counts[labels[i]] += 1
        total += x[i]
    for m in range(cfg.clusters):
        if counts[m]:
            mu[m] = mu[m] / counts[m]
        else:
            mu[m] = model.centroids[m]
    mu_avg = total / n

    shifts = mu - mu_avg
    state = StreamState(
        centroids=mu, counts=counts, calib_global_mean=mu_avg, calib_text_shifts=shifts,
        samples_seen=n,
        batches_seen=1,
    )
    cal_rows = []
    for t in dataset.text_bank.data:
        terms = [l2_normalize(t - s) for s in shifts if np.linalg.norm(t - s) >= DEGENERACY_EPS]
        cal_rows.append(np.mean(terms, axis=0))

    probs = []
    for i in range(n):
        r = x[i] - mu[labels[i]]
        probs.append(_oracle_scores(r / np.linalg.norm(r), cal_rows, cfg.tau))
    return _oracle_predictions(probs, labels.tolist()), state
