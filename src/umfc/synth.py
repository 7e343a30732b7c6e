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
from typing import Tuple

import numpy as np

from .clustering import kmeans_fit
from .core import (
    DEGENERACY_EPS,
    EmbeddingMatrix,
    Predictions,
    TextBank,
    _check_tau,
)
from .engine import EngineConfig, StreamState
from .errors import DegenerateVector, DimensionMismatch, DimensionTooSmall

__all__ = [
    "SynthSpec",
    "SyntheticDataset",
    "generate_benchmark",
    "default_benchmark",
    "oracle_zero_shot",
    "oracle_transduce",
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
    near perfect.  Every (domain, class) cell has samples_per_cell rows.
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

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


def generate_benchmark(spec: SynthSpec) -> SyntheticDataset:
    """Build the dataset a spec describes.

    Image sample for class c in domain z:
        class_sep * g_c + domain_offset_norm * d_z + noise
    Text vector for class c:
        class_sep * g_c + text_domain_bias * d_home(c) + jitter
    where g are the class anchors and d the domain axes, all orthonormal.
    Rows are emitted round-robin over domains (row i belongs to domain
    i mod Z) with each domain's class
    stream independently seeded-shuffled, so any contiguous window of the
    file mixes all domains: the setting a batch-at-a-time consumer is
    meant to face.  true_transition_directions holds the exact unit
    domain axes; the planted direction of travel from domain j to domain
    i is normalize(d_i - d_j), the reference that
    diagnostics.transition_direction_check takes from these anchors.
    """
    rng = np.random.default_rng(spec.seed)
    k, z, d = spec.n_classes, spec.n_domains, spec.dim
    basis = _orthonormal_rows(rng, k + z, d)
    anchors = basis[:k]
    axes = basis[k:]

    n = spec.samples_per_cell
    blocks = []
    for zi in range(z):
        for ci in range(k):
            base = spec.class_sep * anchors[ci] + spec.domain_offset_norm * axes[zi]
            noise = spec.noise_sigma * rng.standard_normal((n, d))
            blocks.append(base[None, :] + noise)
    data = np.vstack(blocks)
    class_labels = np.tile(np.repeat(np.arange(k, dtype=np.int64), n), z)
    domain_labels = np.repeat(np.arange(z, dtype=np.int64), k * n)

    text = spec.class_sep * anchors.copy()
    for ci in range(k):
        text[ci] += spec.text_domain_bias * axes[spec.home_domain(ci)]
    text += TEXT_PERTURBATION * rng.standard_normal((k, d))

    anchor_texts = axes + TEXT_PERTURBATION * rng.standard_normal((z, d))

    queues = []
    for zi in range(z):
        rows = np.flatnonzero(domain_labels == zi)
        queues.append(rows[rng.permutation(rows.size)])
    perm = np.stack(queues, axis=1).ravel()
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


# The oracles' own per-row helpers: scalar forms of core.l2_normalize_rows
# and calib.classify_batch, kept apart from those kernels so the oracles
# stay an independent yardstick for them.


def _l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale a vector to unit Euclidean norm.

    Raises DegenerateVector when the norm is below 1e-12; normalizing has
    no meaningful direction to preserve there.
    """
    v = np.asarray(v, dtype=np.float64)
    # add.reduce instead of linalg.norm: the same pairwise summation runs
    # whether a row arrives alone or inside a batch, so the two call
    # shapes stay bit-identical
    norm = float(np.sqrt(np.add.reduce(v * v)))
    if norm < DEGENERACY_EPS:
        raise DegenerateVector(f"cannot normalize a vector with norm {norm:.3e}")
    return v / norm


def _cosine_sim(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, clamped to [-1, 1] against rounding drift.

    Vectors of different shapes raise DimensionMismatch.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"cosine similarity of shapes {a.shape} and {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < DEGENERACY_EPS or nb < DEGENERACY_EPS:
        raise DegenerateVector("cosine similarity of a zero-norm vector is undefined")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def _softmax_temp(logits: np.ndarray, tau: float) -> np.ndarray:
    """Temperature-scaled softmax with max subtraction for stability.

    exp((x - max(x)) / tau) normalized to sum to one.  Subtracting the max
    keeps the largest exponent at zero, so even tau as sharp as 0.01 with
    logits near 1 stays inside float range.
    """
    tau = _check_tau(tau)
    logits = np.asarray(logits, dtype=np.float64)
    shifted = (logits - np.max(logits, axis=-1, keepdims=True)) / tau
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _oracle_scores(f: np.ndarray, bank_rows: np.ndarray, tau: float) -> np.ndarray:
    """Softmax over the cosines between one feature and each bank row, one at a time."""
    return _softmax_temp(np.array([_cosine_sim(f, t) for t in bank_rows]), tau)


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
    x = np.stack([_l2_normalize(row) for row in dataset.images.data])
    n = x.shape[0]

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
        terms = [_l2_normalize(t - s) for s in shifts if np.linalg.norm(t - s) >= DEGENERACY_EPS]
        cal_rows.append(np.mean(terms, axis=0))

    probs = []
    for i in range(n):
        r = x[i] - mu[labels[i]]
        probs.append(_oracle_scores(r / np.linalg.norm(r), cal_rows, cfg.tau))
    return _oracle_predictions(probs, labels.tolist()), state
