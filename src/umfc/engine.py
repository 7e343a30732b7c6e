"""Calibration engine: one-shot fitting, transduction, and streaming.

Three ways to use the same math:

* fit_unsupervised - estimate cluster means, the global mean, and text
  shifts from an unlabeled training matrix; predict then applies them
  to any rows.
* transduce - fit on the evaluation matrix itself and predict it in one
  call.
* stream_init / stream_step - consume batches as they arrive, keeping
  either exact running statistics ("memory" mode) or an exponential
  moving average ("ema" mode), recalibrating the text bank after every
  batch.

Every regime returns its rows as one columnar Predictions and its
fitted state as one StreamState, which predict applies and
snapshot_state writes.
"""

from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

import numpy as np

from . import core
from .calib import CalibrationState, calibrate_bank, classify_batch
from .clustering import (
    Assignment,
    ClusterModel,
    assign_batch,
    kmeans_fit,
    _cluster_sums,
)
from .core import (
    DEGENERACY_EPS,
    EmbeddingMatrix,
    Predictions,
    TextBank,
    _check_tau,
    l2_normalize_rows,
    mean_rows,
    row_blocks,
)
from .errors import DimensionMismatch, FormatError

__all__ = [
    "EngineConfig",
    "StreamState",
    "fit_unsupervised",
    "predict",
    "transduce",
    "stream_init",
    "stream_step",
    "run_stream",
]

MODES = ("memory", "ema")


@dataclass(frozen=True)
class EngineConfig:
    """Knobs shared by every regime.

    clusters is the number of cluster means estimated from images.  tau
    is the softmax temperature (0.01 matches the usual logit scale of
    100 used with contrastive image-text encoders).  eta only matters in
    ema mode.
    """

    clusters: int = 6
    tau: float = 0.01
    eta: float = 0.1
    mode: str = "memory"
    batch_size: int = 100
    seed: int = 0
    normalize_input: bool = True

    def __post_init__(self):
        if self.clusters < 1:
            raise ValueError(f"clusters must be >= 1, got {self.clusters}")
        _check_tau(self.tau)
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class StreamState:
    """The fitted state of every regime: a stream between batches, or
    what fit_unsupervised and transduce estimate (one batch, no
    accumulators).

    model holds the cluster means and counts, calib the global mean and
    text shifts; before enough samples have arrived to place the cluster
    means, both are None and bootstrap_buffer holds what has been seen.
    In memory mode running_sums / global_sum are the exact accumulators
    behind the prototypes; ema mode allocates none of them.  Invariant
    (memory mode): every prototype row m with model.counts[m] > 0
    equals running_sums[m] / model.counts[m].
    """

    model: Optional[ClusterModel] = None
    calib: Optional[CalibrationState] = None
    running_sums: Optional[np.ndarray] = None
    global_sum: Optional[np.ndarray] = None
    samples_seen: int = 0
    batches_seen: int = 0
    bootstrap_buffer: Optional[np.ndarray] = None


def _as_rows(data: Union[EmbeddingMatrix, np.ndarray]) -> np.ndarray:
    if isinstance(data, EmbeddingMatrix):
        return data.data
    out = np.asarray(data, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {out.shape}")
    return out


def _calibrate_block(
    feats: np.ndarray, clusters: np.ndarray, cluster_means: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Unit residuals of rows from their cluster means, and their flags."""
    cal = feats - cluster_means[clusters]
    norms = np.sqrt(np.add.reduce(cal * cal, axis=1))
    ok = norms >= DEGENERACY_EPS
    norms[~ok] = 1.0
    cal /= norms[:, None]
    if not ok.all():
        cal[~ok] = l2_normalize_rows(feats[~ok])
    return cal, np.where(ok, np.uint8(0), np.uint8(Predictions.DEGENERATE))


def _predict_rows(
    feats: np.ndarray,
    clusters: Optional[np.ndarray],
    cluster_means: Optional[np.ndarray],
    bank_data: np.ndarray,
    tau: float,
    keep_probs: bool = True,
) -> Predictions:
    """Calibrate rows against their assigned cluster mean and classify.

    Rows whose residual collapses (feature sits on the mean) fall back
    to the plain normalized feature and are flagged DEGENERATE.  With no
    cluster model (clusters and cluster_means None) the rows are scored
    as given, zero-shot: cluster -1, flagged UNCALIBRATED.  Rows are
    calibrated and scored one row block at a time, and each block's
    labels and top probabilities are read from the block just scored.
    The scores go straight into the N x K probs, or, without keep_probs,
    into one reused block of scratch, and probs is None.
    """
    n = feats.shape[0]
    k = bank_data.shape[0]
    if cluster_means is None:
        clusters = np.full(n, -1, dtype=np.int64)
        flags = np.full(n, Predictions.UNCALIBRATED, dtype=np.uint8)
    else:
        flags = np.empty(n, dtype=np.uint8)
    probs = np.empty((n, k)) if keep_probs else None
    scratch = None if keep_probs else np.empty((min(n, core.CHUNK_ROWS), k))
    labels = np.empty(n, dtype=np.int64)
    top = np.empty(n)
    for sl in row_blocks(n):
        cal = feats[sl]
        if cluster_means is not None:
            cal, flags[sl] = _calibrate_block(cal, clusters[sl], cluster_means)
        out = probs[sl] if keep_probs else scratch[: sl.stop - sl.start]
        classify_batch(cal, bank_data, tau, out=out)
        best = np.argmax(out, axis=1)
        labels[sl] = best
        top[sl] = out[np.arange(best.size), best]
    return Predictions(probs=probs, labels=labels, clusters=clusters, flags=flags, top=top)


def _fit(x: np.ndarray, cfg: EngineConfig) -> Tuple[StreamState, Assignment]:
    model, asg = kmeans_fit(x, cfg.clusters, cfg.seed)
    calib = CalibrationState.from_means(model.centroids, mean_rows(x))
    return StreamState(model=model, calib=calib, samples_seen=x.shape[0], batches_seen=1), asg


def fit_unsupervised(
    train: Union[EmbeddingMatrix, np.ndarray], bank: TextBank, cfg: EngineConfig
) -> StreamState:
    """Estimate the fitted state from an unlabeled training matrix.

    The global mean is taken over every training row (not over the
    cluster means), so unequal cluster sizes weigh in proportionally.
    The bank is only checked against the rows' dimension; predict
    calibrates it.
    """
    x = _as_rows(train)
    if x.shape[1] != bank.dim:
        raise DimensionMismatch(f"rows of dim {x.shape[1]} against a bank of dim {bank.dim}")
    if cfg.normalize_input:
        x = l2_normalize_rows(x)
    return _fit(x, cfg)[0]


def predict(
    state: StreamState,
    x: Union[EmbeddingMatrix, np.ndarray],
    bank: TextBank,
    cfg: EngineConfig,
    *,
    keep_probs: bool = True,
) -> Predictions:
    """Calibrate and classify rows against a fitted state.

    bank is the raw text bank; it is calibrated here from
    state.calib.text_shifts.  A state with no model yet (a stream still
    bootstrapping) raises FormatError.  Each row is assigned to its
    nearest cluster mean and re-expressed as the unit direction from it;
    a row that sits on its mean falls back to plain normalization and is
    flagged DEGENERATE.  Zero rows give an empty Predictions; rows whose
    dimension differs from the state raise DimensionMismatch.  With
    keep_probs=False the result holds no N x K matrix: probs is None and
    labels, top, clusters and flags have the bits of the default call.
    """
    model = state.model
    if model is None or state.calib is None:
        raise FormatError("the state has no fitted model to predict with yet")
    x = _as_rows(x)
    if not x.shape[0]:
        return Predictions.empty(bank.k)
    if x.shape[1] != model.dim:
        raise DimensionMismatch(f"rows of dim {x.shape[1]} against a state of dim {model.dim}")
    if cfg.normalize_input:
        x = l2_normalize_rows(x)
    cal_bank = calibrate_bank(bank, state.calib.text_shifts)
    labels = assign_batch(model, x).labels
    return _predict_rows(x, labels, model.centroids, cal_bank.data, cfg.tau, keep_probs)


def transduce(
    test: Union[EmbeddingMatrix, np.ndarray],
    bank: TextBank,
    cfg: EngineConfig,
    *,
    keep_probs: bool = True,
) -> Tuple[Predictions, StreamState]:
    """Fit on the evaluation matrix itself, then predict every row of it;
    return the predictions and the fitted state, which predict can apply
    to further rows.

    With keep_probs=False the predictions hold no N x K matrix: probs is
    None and labels, top, clusters and flags have the bits of the
    default call.
    """
    x = _as_rows(test)
    if cfg.normalize_input:
        x = l2_normalize_rows(x)
    state, asg = _fit(x, cfg)
    cal_bank = calibrate_bank(bank, state.calib.text_shifts)
    preds = _predict_rows(x, asg.labels, state.model.centroids, cal_bank.data, cfg.tau, keep_probs)
    return preds, state


def stream_init(cfg: EngineConfig) -> StreamState:
    """Fresh stream with nothing seen yet."""
    return StreamState()


def _seeded_state(seeds: np.ndarray, cfg: EngineConfig, batches_seen: int) -> StreamState:
    """Stand up a model from the first `clusters` samples of a slow stream.

    Each seed sample becomes its own cluster (and, in memory mode, is
    absorbed into the accumulators as that cluster's first member).  The
    calibration state treats the seeding as a batch where every cluster
    appeared once.
    """
    m = cfg.clusters
    total = np.sum(seeds, axis=0)
    memory = cfg.mode == "memory"
    return StreamState(
        model=ClusterModel(centroids=seeds, counts=np.ones(m, dtype=np.int64)),
        calib=CalibrationState.from_means(seeds, total / m),
        running_sums=seeds.copy() if memory else None,
        global_sum=total if memory else None,
        samples_seen=m,
        batches_seen=batches_seen,
    )


def _advance(
    state: StreamState, x: np.ndarray, bank: TextBank, cfg: EngineConfig
) -> Tuple[Predictions, StreamState]:
    """One post-bootstrap batch: assign, update statistics, recalibrate, predict."""
    m = cfg.clusters
    labels = assign_batch(state.model, x).labels
    batch_sums, batch_counts = _cluster_sums(x, labels, m)
    present = batch_counts > 0
    counts = state.model.counts + batch_counts
    prototypes = state.model.centroids.copy()
    samples_seen = state.samples_seen + x.shape[0]

    if cfg.mode == "memory":
        running_sums = state.running_sums + batch_sums
        nonzero = counts > 0
        prototypes[nonzero] = running_sums[nonzero] / counts[nonzero, None]
        global_sum = state.global_sum + np.sum(x, axis=0)
        mu_avg = global_sum / samples_seen
    else:
        running_sums = global_sum = None
        # the division batch_cluster_means makes, so the two agree bit for bit
        batch_means = batch_sums[present] / batch_counts[present, None]
        prototypes[present] = (1.0 - cfg.eta) * prototypes[present] + cfg.eta * batch_means
        mu_avg = np.sum(prototypes, axis=0) / m

    # shift rows refresh only for clusters that appeared in this batch;
    # the others keep the value from their last appearance
    if state.calib is not None:
        shifts = state.calib.text_shifts.copy()
    else:
        shifts = np.zeros_like(prototypes)
    shifts[present] = prototypes[present] - mu_avg

    cal_bank = calibrate_bank(bank, shifts)
    preds = _predict_rows(x, labels, prototypes, cal_bank.data, cfg.tau)
    new_state = replace(
        state,
        model=ClusterModel(centroids=prototypes, counts=counts),
        calib=CalibrationState(global_mean=mu_avg, text_shifts=shifts),
        running_sums=running_sums,
        global_sum=global_sum,
        samples_seen=samples_seen,
        batches_seen=state.batches_seen + 1,
        bootstrap_buffer=None,
    )
    return preds, new_state


def stream_step(
    state: StreamState,
    batch: Union[EmbeddingMatrix, np.ndarray],
    bank: TextBank,
    cfg: EngineConfig,
) -> Tuple[Predictions, StreamState]:
    """Consume one batch and return its predictions plus the next state.

    Until a model exists: a first batch with at least `clusters` samples
    is clustered directly; smaller batches are buffered and answered
    with plain zero-shot predictions flagged UNCALIBRATED.  The first
    `clusters` samples overall become the initial cluster means, and any
    remainder of the completing batch is processed normally.  Buffered
    samples are never re-predicted.  An empty batch returns an empty
    Predictions and the state as it was.  In memory mode a state with a
    model but no accumulators (a fit state) raises FormatError.
    """
    x = _as_rows(batch)
    if not x.shape[0]:
        return Predictions.empty(bank.k), state
    if cfg.normalize_input:
        x = l2_normalize_rows(x)

    if state.model is not None:
        if cfg.mode == "memory":
            accumulators = ("running_sums", "global_sum")
            missing = [name for name in accumulators if getattr(state, name) is None]
            if missing:
                raise FormatError(
                    f"a memory-mode stream needs its accumulators, and this state has no "
                    f"{', '.join(missing)} (a fit state cannot be resumed as a memory stream)"
                )
        return _advance(state, x, bank, cfg)

    # bootstrap path
    if state.bootstrap_buffer is None and x.shape[0] >= cfg.clusters:
        model, _ = kmeans_fit(x, cfg.clusters, cfg.seed)
        base = replace(state, model=ClusterModel(model.centroids, np.zeros(cfg.clusters, dtype=np.int64)))
        if cfg.mode == "memory":
            d = x.shape[1]
            base = replace(base, running_sums=np.zeros((cfg.clusters, d)), global_sum=np.zeros(d))
        return _advance(base, x, bank, cfg)

    buffered = state.bootstrap_buffer
    have = 0 if buffered is None else buffered.shape[0]
    need = cfg.clusters - have
    if x.shape[0] < need:
        # still short: buffer and answer zero-shot
        buf = x.copy() if buffered is None else np.vstack([buffered, x])
        preds = _predict_rows(x, None, None, bank.data, cfg.tau)
        new_state = replace(
            state,
            bootstrap_buffer=buf,
            samples_seen=state.samples_seen + x.shape[0],
            batches_seen=state.batches_seen + 1,
        )
        return preds, new_state

    # this batch completes the bootstrap
    seed_part = x[:need]
    seeds = seed_part if buffered is None else np.vstack([buffered, seed_part])
    preds = _predict_rows(seed_part, None, None, bank.data, cfg.tau)
    seeded = _seeded_state(seeds, cfg, state.batches_seen)
    rest = x[need:]
    if rest.shape[0]:
        rest_preds, new_state = _advance(seeded, rest, bank, cfg)
        # _advance counted the batch; seeding itself does not add one
        preds = Predictions.concat([preds, rest_preds])
    else:
        new_state = replace(seeded, batches_seen=seeded.batches_seen + 1)
    return preds, new_state


def run_stream(
    test: Union[EmbeddingMatrix, np.ndarray],
    bank: TextBank,
    cfg: EngineConfig,
) -> Tuple[Predictions, StreamState]:
    """Feed a matrix through stream_step in batch_size slices, in order."""
    x = _as_rows(test)
    state = stream_init(cfg)
    parts = [Predictions.empty(bank.k)]
    for start in range(0, x.shape[0], cfg.batch_size):
        batch_preds, state = stream_step(state, x[start : start + cfg.batch_size], bank, cfg)
        parts.append(batch_preds)
    return Predictions.concat(parts), state
