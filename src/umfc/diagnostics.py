"""Measurement helpers: accuracy breakdowns, bias probes, sanity checks.

Nothing here changes data; these functions only report.  Tables render
to UTF-8 TSV (the probe, which is naturally a probability table, renders
to CSV), one record per row, so output can be piped into anything.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .calib import classify_batch
from .clustering import batch_cluster_means
from .core import DEGENERACY_EPS, EmbeddingMatrix, TextBank, _float_rows, _row_norms, l2_normalize_rows
from .errors import DegenerateVector, DimensionMismatch, EmptyDomain, MissingLabels, TooFewSamples

__all__ = [
    "DomainAccuracyTable",
    "Histogram",
    "ProbeResult",
    "DirectionTable",
    "per_domain_accuracy",
    "prediction_histogram",
    "domain_bias_probe",
    "transition_direction_check",
    "balanced_subsample",
    "kl_to_uniform",
]


def _pred_labels(predictions) -> np.ndarray:
    """Labels of a Predictions, or the labels themselves as given."""
    return np.asarray(getattr(predictions, "labels", predictions), dtype=np.int64)


@dataclass
class DomainAccuracyTable:
    domains: np.ndarray
    correct: np.ndarray
    totals: np.ndarray

    @property
    def accuracies(self) -> np.ndarray:
        return self.correct / self.totals

    def overall(self) -> float:
        """Macro accuracy: the mean of the per-domain accuracies."""
        return float(np.mean(self.accuracies))

    def to_tsv(self) -> str:
        lines = ["domain\tcorrect\ttotal\taccuracy"]
        for z, c, t, a in zip(self.domains, self.correct, self.totals, self.accuracies):
            lines.append(f"{z}\t{c}\t{t}\t{a:.6f}")
        lines.append(f"overall_macro\t{self.correct.sum()}\t{self.totals.sum()}\t{self.overall():.6f}")
        return "\n".join(lines) + "\n"


def per_domain_accuracy(
    predictions,
    class_labels: Optional[np.ndarray],
    domain_labels: Optional[np.ndarray],
) -> DomainAccuracyTable:
    """Accuracy per domain id.  Requires complete class and domain labels."""
    pred = _pred_labels(predictions)
    if class_labels is None or domain_labels is None:
        raise MissingLabels("per-domain accuracy needs class and domain labels")
    truth = np.asarray(class_labels, dtype=np.int64)
    dom = np.asarray(domain_labels, dtype=np.int64)
    if truth.shape != pred.shape or dom.shape != pred.shape:
        raise ValueError("predictions and labels have mismatched lengths")
    if (truth < 0).any() or (dom < 0).any():
        raise MissingLabels("some rows are missing a class or domain label")
    domains, which = np.unique(dom, return_inverse=True)
    totals = np.bincount(which, minlength=domains.size).astype(np.int64)
    correct = np.bincount(which[pred == truth], minlength=domains.size).astype(np.int64)
    return DomainAccuracyTable(domains=domains, correct=correct, totals=totals)


@dataclass
class Histogram:
    counts: np.ndarray

    def top(self) -> List[Tuple[int, int]]:
        """(class, count) sorted by count descending, ties by class index."""
        order = sorted(range(self.counts.size), key=lambda c: (-self.counts[c], c))
        return [(c, int(self.counts[c])) for c in order]

    def to_tsv(self, names: Optional[Sequence[str]] = None) -> str:
        """class<TAB>count rows in top() order; a class is its index, or
        its entry of names when given."""
        lines = ["class\tcount"]
        for c, n in self.top():
            lines.append(f"{c if names is None else names[c]}\t{n}")
        return "\n".join(lines) + "\n"


def prediction_histogram(predictions, n_classes: int) -> Histogram:
    """How often each class was predicted."""
    pred = _pred_labels(predictions)
    if pred.size and (pred.min() < 0 or pred.max() >= n_classes):
        raise ValueError("a predicted label is outside [0, n_classes)")
    return Histogram(counts=np.bincount(pred, minlength=n_classes).astype(np.int64))


@dataclass
class ProbeResult:
    """Per-class domain probability rows plus their mean (the aggregate)."""

    rows: np.ndarray
    aggregate: np.ndarray
    class_names: Sequence[str]

    def to_csv(self) -> str:
        z = self.rows.shape[1]
        header = "class," + ",".join(f"domain_{i}" for i in range(z))
        lines = [header]
        for name, row in zip(self.class_names, self.rows):
            lines.append(name + "," + ",".join(f"{v:.9f}" for v in row))
        lines.append("aggregate," + ",".join(f"{v:.9f}" for v in self.aggregate))
        return "\n".join(lines) + "\n"


def domain_bias_probe(
    bank: TextBank,
    domain_anchors: np.ndarray,
    tau: float = 1.0,
) -> ProbeResult:
    """Which domain does each class vector lean toward?

    Zero-shot classification of the class texts against the domain
    anchors: each bank row gets the softmax of its cosine similarities to
    every anchor.  The aggregate is the mean of the rows, i.e. how the
    bank as a whole distributes its affinity over domains.  Anchors of
    another dimension than the bank raise DimensionMismatch.
    """
    a = _float_rows(domain_anchors)
    if a.shape[1] != bank.dim:
        raise DimensionMismatch(f"domain anchors of dim {a.shape[1]} against a bank of dim {bank.dim}")
    rows = classify_batch(bank.data, a, tau)
    aggregate = np.sum(rows, axis=0) / rows.shape[0]
    return ProbeResult(rows=rows, aggregate=aggregate, class_names=list(bank.names))


def kl_to_uniform(dist: np.ndarray) -> float:
    """KL divergence from a probability vector to the uniform one."""
    p = np.asarray(dist, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("expected a 1-D probability vector")
    if np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    nz = p > 0
    return float(np.sum(p[nz] * np.log(p[nz] * p.size)))


@dataclass
class DirectionTable:
    """Cosine between measured and reference inter-domain directions."""

    domains: np.ndarray
    cosines: np.ndarray  # square, NaN on the diagonal

    def min_off_diagonal(self) -> float:
        return float(np.nanmin(self.cosines))

    def to_tsv(self) -> str:
        lines = ["from_domain\tto_domain\tcosine"]
        z = self.cosines.shape[0]
        for i in range(z):
            for j in range(z):
                if i != j:
                    lines.append(f"{self.domains[j]}\t{self.domains[i]}\t{self.cosines[i, j]:.9f}")
        return "\n".join(lines) + "\n"


def transition_direction_check(images: EmbeddingMatrix, anchors: np.ndarray) -> DirectionTable:
    """Compare measured domain-mean differences against the domain anchors.

    anchors is Z x D, one row per domain; the reference direction from
    domain j to domain i is normalize(anchors[i] - anchors[j]), and entry
    [i, j] of the result is the cosine between mean_i - mean_j and that
    reference.  Same-domain entries are skipped (NaN), and rows whose
    domain id is not one of 0..Z-1 (-1 marks an unlabeled row) are
    ignored.  Raises ValueError unless anchors is 2-d, DimensionMismatch
    when D is not the images' dimension, TooFewSamples when Z < 2,
    MissingLabels when the matrix carries no domain labels, EmptyDomain
    when any of the Z domain ids has no samples and DegenerateVector
    when two anchors or two domain means coincide.
    """
    a = _float_rows(anchors).astype(np.float64, copy=False)
    if a.shape[1] != images.dim:
        raise DimensionMismatch(f"domain anchors of dim {a.shape[1]} against images of dim {images.dim}")
    z = a.shape[0]
    if z < 2:
        raise TooFewSamples(f"{z} domain anchor(s); directions need at least 2")
    if images.domain_labels is None:
        raise MissingLabels("transition check needs domain labels")
    # rows outside the Z domains (unlabeled -1, or >= Z) go to a spare group
    dom = images.domain_labels
    groups = np.where((dom >= 0) & (dom < z), dom, z)
    means, counts = batch_cluster_means(images.data, groups, z + 1)
    if not counts[:z].all():
        raise EmptyDomain(f"domain {int(np.argmin(counts[:z]))} has no samples")
    # every off-diagonal pair (i, j) at once, in row-major order
    i, j = np.nonzero(~np.eye(z, dtype=bool))
    ref, diffs = a[i] - a[j], means[i] - means[j]
    for what, d in (("anchors", ref), ("means", diffs)):
        bad = np.flatnonzero(_row_norms(d) < DEGENERACY_EPS)
        if bad.size:
            raise DegenerateVector(f"domain {what} {i[bad[0]]} and {j[bad[0]]} coincide")
    ref = l2_normalize_rows(ref)
    dn = np.linalg.norm(diffs, axis=1)
    cos = np.full((z, z), np.nan)
    cos[i, j] = np.clip(np.einsum("pd,pd->p", diffs, ref) / (dn * np.linalg.norm(ref, axis=1)),
                        -1.0, 1.0)
    return DirectionTable(domains=np.arange(z), cosines=cos)


def balanced_subsample(
    images: EmbeddingMatrix, per_cell: int, seed: int
) -> Tuple[np.ndarray, List[Tuple[int, int, int, int]]]:
    """Pick up to per_cell rows from every (class, domain) cell, seeded.

    Returns sorted row indices plus a shortfall report: one
    (class, domain, available, requested) entry for every cell that
    could not supply the full quota.  Short cells contribute what they
    have; nothing is padded or duplicated.  Cells are visited class by
    class, domains in order within a class; every (class, domain) pair of
    the labels present is a cell, so a pair with no rows is a shortfall.
    Raises MissingLabels when a row's class or domain is absent (-1).
    """
    if images.class_labels is None or images.domain_labels is None:
        raise MissingLabels("balanced subsampling needs class and domain labels")
    cls = images.class_labels
    dom = images.domain_labels
    if (cls < 0).any() or (dom < 0).any():
        raise MissingLabels("some rows are missing a class or domain label")
    if per_cell < 1:
        raise ValueError(f"per_cell must be >= 1, got {per_cell}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    classes, ci = np.unique(cls, return_inverse=True)
    domains, zi = np.unique(dom, return_inverse=True)
    # one stable sort groups the rows of every cell, each in ascending order
    cell = ci * domains.size + zi
    sizes = np.bincount(cell, minlength=classes.size * domains.size)
    groups = np.split(np.argsort(cell, kind="stable"), np.cumsum(sizes)[:-1])
    chosen = []
    shortfalls = []
    cells = ((c, z) for c in classes for z in domains)
    for (c, z), members in zip(cells, groups):
        if members.size < per_cell:
            shortfalls.append((int(c), int(z), int(members.size), per_cell))
            chosen.append(members)
        else:
            chosen.append(rng.choice(members, size=per_cell, replace=False))
    idx = np.sort(np.concatenate(chosen)) if chosen else np.empty(0, dtype=np.int64)
    return idx.astype(np.int64), shortfalls
