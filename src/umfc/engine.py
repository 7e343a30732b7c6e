"""Calibration engine: one-shot fitting, transduction, and streaming.

Three ways to use the same math:

* fit_unsupervised - estimate cluster means, the global mean, and text
  shifts from an unlabeled training matrix; predict then applies them
  to any rows (and, given no state, scores rows zero-shot).
* transduce - fit on the evaluation matrix itself and predict it in one
  call.
* stream_init / stream_step - consume batches as they arrive, keeping
  either exact running statistics ("memory" mode) or an exponential
  moving average ("ema" mode), recalibrating the text bank after every
  batch; run_stream feeds a matrix through them.

Rows enter every regime through one preamble, _rows, which refuses bad
rows before k-means or any batch runs.  Every regime accumulates through
one update (_update), which folds rows and their cluster labels into the
counts, accumulators, cluster means, global mean and text shifts.  A fit
is k-means followed by that update of an empty state under k-means' own
labels, and a later stream batch is assign_batch followed by it, so a
fitted state continues as a memory stream bit for bit.  Every regime
returns its rows as one columnar Predictions and its fitted state as one
StreamState, a flat record of the arrays a snapshot holds, which predict
applies and snapshot_state writes.

Precision.  Float32 rows stay float32 (core._float_rows), and the
products of normalizing, clustering, calibrating and scoring them run in
float32, as does every step of scoring after its product, from the
division by the bank norms to the softmax; norms are taken in float64,
every StreamState array is float64, and so is every probability (a
float32 one, widened).  Let u = 2**-24, d the dimension, K the number of
classes and rho the smallest norm of a row's residual from its cluster
mean, and suppose k-means gives the float32 rows the clusters it gives
their float64 widening.  Each exponent (c_k - c_max) / tau of the
softmax is then within 2 * delta / tau of its float64 value, with
delta = (d + 8 + 8 / rho) * u in units of a cosine: d * u bounds the
rounding of a float32 dot product (the standard gamma_d); rounding the
normalized row and its cluster mean moves the residual by about 2u, and
so a cosine by up to 4u / rho; rounding the residual, the bank row, its
norm and the quotient adds about 6u, and the max subtraction and the
scaling by 1 / (tau |f|) round an exponent by up to 6u / tau, which
counts as 3u per cosine, since an exponent carries the errors of two.
That is (d + 9 + 4 / rho) * u, inside delta while rho is at most 4 (a
unit row's residual is at most 2).  The cosines are not clipped to
[-1, 1]: the true one lies inside, so a clip would move a computed
cosine by less than its error.  exp (measured within 3.6u on [-87, 0]),
the sum of K terms and the division then move each float32 probability
by a factor within (K + 4) * u of 1.  Two consequences follow, each for
one row:

* Its label is the argmax of its probabilities, so the float32 label
  can differ from the float64 one only where the float64 margin
  between the top two cosines is below 2 * delta + 8 * tau * u (the
  tau * u term: exp and the division round a runner-up whose exponent is
  within a few u of 0 to the top's probability, a tie the lower class
  index wins).
* Its probabilities are p_k = exp(c_k / tau) / sum_j exp(c_j / tau), so
  every log p_k of at least 2**-126 (float32's smallest normal; below
  it float32 keeps fewer digits, and below 2**-149 none) moves by at
  most e = 2 * delta / tau + (K + 4) * u, and so does the largest:
  |top32 - top64| <= top64 * (exp(e) - 1).

On the first 20,000 rows of the benchmark's 100,050 x 512 synth (rho
about 0.55) delta is 3.2e-5, against a smallest top-2 margin of 0.32.
On all of its rows at tau 0.01 the float32 labels are the float64 ones
and the top probability moves by at most 1.0e-12: every float64 top is
above 1 - 1.1e-12, and float32 rounds each to 1.
"""

from dataclasses import dataclass, replace
from numbers import Integral, Real
from typing import Callable, Optional, Tuple, Union

import numpy as np

from . import core
from .calib import calibrate_bank, classify_batch
from .clustering import assign_batch, kmeans_fit, _cluster_sums
from .core import (
    DEGENERACY_EPS,
    EmbeddingMatrix,
    Predictions,
    TextBank,
    _check_tau,
    l2_normalize_rows,
)
from .errors import DimensionMismatch, FormatError, NonFiniteInput, NonFinitePayload

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
        for name in ("clusters", "batch_size", "seed", "tau", "eta"):
            value, real = getattr(self, name), name in ("tau", "eta")
            if isinstance(value, bool) or not isinstance(value, Real if real else Integral):
                what = "a real number" if real else "an integer"
                raise ValueError(f"{name} must be {what}, got {value!r}")
        if not isinstance(self.normalize_input, bool):
            raise ValueError(f"normalize_input must be a bool, got {self.normalize_input!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.clusters < 1:
            raise ValueError(f"clusters must be >= 1, got {self.clusters}")
        _check_tau(self.tau)
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if not isinstance(self.mode, str) or self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class StreamState:
    """The fitted state of every regime: a stream between batches, or
    what fit_unsupervised and transduce estimate (a memory stream after
    one batch).  Each array is named as in a snapshot.

    The fitted arrays are the cluster means (centroids) with their
    member counts, the global mean and one text shift row per cluster;
    before enough samples have arrived to place the cluster means, all
    four are None and bootstrap_buffer holds what has been seen.  In
    memory mode and in every fit running_sums / global_sum are the exact
    accumulators behind the means; ema mode allocates none of them.

    Under a config of M clusters a state is well-formed when its
    counters are int64 counts >= 0; each array is a numpy array of
    float64 (counts int64) whatever the rows' dtype, finite, of its ndim
    and of one feature dimension, with M rows if per cluster
    (bootstrap_buffer at most M); the four fitted arrays are all present
    or all absent; and kept accumulators give a model's means:
    centroids[m] = running_sums[m] / counts[m] where counts[m] > 0,
    other rows of running_sums are zero, and calib_global_mean =
    global_sum / samples_seen > 0.  predict,
    stream_step, snapshot_state and restore_state refuse any other state.
    """

    centroids: Optional[np.ndarray] = None
    counts: Optional[np.ndarray] = None
    running_sums: Optional[np.ndarray] = None
    global_sum: Optional[np.ndarray] = None
    calib_global_mean: Optional[np.ndarray] = None
    calib_text_shifts: Optional[np.ndarray] = None
    bootstrap_buffer: Optional[np.ndarray] = None
    samples_seen: int = 0
    batches_seen: int = 0


# The arrays of a StreamState in snapshot order: (name, dtype, ndim, one
# row per cluster).  The last axis of every array but counts is the
# feature dimension.
_STATE_ARRAYS = (
    ("centroids", "<f8", 2, True),
    ("counts", "<i8", 1, True),
    ("running_sums", "<f8", 2, True),
    ("global_sum", "<f8", 1, False),
    ("calib_global_mean", "<f8", 1, False),
    ("calib_text_shifts", "<f8", 2, True),
    ("bootstrap_buffer", "<f8", 2, False),
)
# a fitted state has all of these, a bootstrapping one none
_FITTED = ("centroids", "counts", "calib_global_mean", "calib_text_shifts")


def _count(value) -> bool:
    """value is an integer in [0, 2**63), the range of an int64."""
    return isinstance(value, Integral) and not isinstance(value, bool) and 0 <= value < 2**63


def _check_state(state: StreamState, cfg: EngineConfig) -> Optional[int]:
    """Raise FormatError unless a state is well-formed under cfg, by the
    rules StreamState lists, in its order (a NaN or infinity raises
    NonFinitePayload; a dtype may be of either byte order).  Return the
    feature dimension (None with no array)."""
    if not (_count(state.samples_seen) and _count(state.batches_seen)):
        raise FormatError("samples_seen and batches_seen must be int64 counts >= 0")
    shapes, dims, ndim_ok = {}, set(), True
    for name, dtype, ndim, per_cluster in _STATE_ARRAYS:
        arr = getattr(state, name)
        if arr is None:
            continue
        if not isinstance(arr, np.ndarray):
            raise FormatError(f"array {name} is a {type(arr).__name__}, not a numpy array")
        if arr.dtype.newbyteorder("<") != dtype:
            raise FormatError(f"array {name} has dtype {arr.dtype.str}, not {dtype}")
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise NonFinitePayload(f"array {name} contains NaN or infinity")
        shape = shapes[name] = arr.shape
        if per_cluster and shape[:1] != (cfg.clusters,):
            raise FormatError(f"array {name} has shape {shape}, "
                              f"but the snapshot config has {cfg.clusters} clusters")
        ndim_ok = ndim_ok and len(shape) == ndim
        if name != "counts" and shape:
            dims.add(shape[-1])
    if not ndim_ok or len(dims) > 1:
        listed = ", ".join(f"{name} {shape}" for name, shape in shapes.items())
        raise FormatError(f"snapshot arrays need their ndim and one feature dimension: {listed}")
    buffered = shapes.get("bootstrap_buffer", (0,))[0]
    if buffered > cfg.clusters:
        raise FormatError(f"a bootstrap buffer of {buffered} rows, "
                          f"but the snapshot config has {cfg.clusters} clusters")
    have = [name for name in _FITTED if name in shapes]
    if have and len(have) < len(_FITTED):
        lack = ", ".join(name for name in _FITTED if name not in shapes)
        raise FormatError(f"the state has {', '.join(have)} but no {lack}")
    sums, counts, seen = state.running_sums, state.counts, state.samples_seen
    if have and sums is not None:
        nz = counts > 0
        if sums[~nz].any() or not np.array_equal(state.centroids[nz], sums[nz] / counts[nz, None]):
            raise FormatError("array running_sums does not give centroids over counts")
    if have and state.global_sum is not None and not (
        seen and np.array_equal(state.calib_global_mean, state.global_sum / seen)
    ):
        raise FormatError("array global_sum does not give calib_global_mean over samples_seen")
    return dims.pop() if dims else None


def _rows(data: Union[EmbeddingMatrix, np.ndarray], bank: TextBank, cfg: EngineConfig,
          dim: Optional[int] = None) -> np.ndarray:
    """data as a 2-d array, of float32 if its rows are float32 and of
    float64 otherwise (core._float_rows), normalized under
    cfg.normalize_input; first a raw array with a NaN or infinity raises
    NonFiniteInput (an EmbeddingMatrix has checked its own), then rows of
    another dimension than a state's dim, then than the bank's, raise
    DimensionMismatch (a 0 x 0 array, an empty CSV, has no dimension)."""
    raw = not isinstance(data, EmbeddingMatrix)
    x = core._float_rows(data) if raw else data.data
    if raw:
        core._check_finite(x, NonFiniteInput, "input")
    if any(x.shape):
        for what, d in (("state", dim), ("bank", bank.dim)):
            if d is not None and x.shape[1] != d:
                raise DimensionMismatch(f"rows of dim {x.shape[1]} against a {what} of dim {d}")
    return l2_normalize_rows(x) if cfg.normalize_input else x


def _calibrate_block(
    feats: np.ndarray, clusters: np.ndarray, cluster_means: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals of rows from their cluster means (both of one dtype,
    which the residuals keep), their row norms and their flags.  A row
    whose residual norm is below DEGENERACY_EPS is kept as it is, with
    its own norm, and flagged DEGENERATE.  The residuals are not
    normalized: classify_batch takes each norm into the row's scale."""
    cal = cluster_means[clusters]
    np.subtract(feats, cal, out=cal)
    norms = core._row_norms(cal)
    ok = norms >= DEGENERACY_EPS
    if not ok.all():
        cal[~ok] = feats[~ok]
        norms[~ok] = core._row_norms(feats[~ok])
    return cal, norms, np.where(ok, np.uint8(0), np.uint8(Predictions.DEGENERATE))


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
    to the plain feature and are flagged DEGENERATE.  With no cluster
    model (clusters and cluster_means None) the rows are scored as
    given, zero-shot: cluster -1, flagged UNCALIBRATED.  Rows are
    calibrated and scored one row block at a time (core._for_blocks),
    and each block's labels and top probabilities are read from the
    block just scored.  The scores go straight into the N x K probs, or,
    without keep_probs, into one block of scratch of the rows' dtype per
    worker, and probs is None.  Float32 scores are widened only where
    they are kept, in probs and top, so keep_probs changes no label or
    top bit.
    The cluster means and the bank are cast to the rows' dtype, and the
    bank's row norms taken, once for all blocks; each residual's norm is
    taken once, for its flag and its scale in classify_batch.
    """
    n = feats.shape[0]
    k = bank_data.shape[0]
    if cluster_means is None:
        clusters = np.full(n, -1, dtype=np.int64)
        flags = np.full(n, Predictions.UNCALIBRATED, dtype=np.uint8)
    else:
        flags = np.empty(n, dtype=np.uint8)
    probs = np.empty((n, k)) if keep_probs else None
    labels = np.empty(n, dtype=np.int64)
    top = np.empty(n)
    bank = bank_data.astype(feats.dtype, copy=False)
    bank_norms = core._row_norms(bank)
    if cluster_means is not None:
        cluster_means = cluster_means.astype(feats.dtype, copy=False)

    def score(sl):
        cal, norms = feats[sl], None
        if cluster_means is not None:
            cal, norms, flags[sl] = _calibrate_block(cal, clusters[sl], cluster_means)
        out = probs[sl] if keep_probs else np.empty((sl.stop - sl.start, k), dtype=feats.dtype)
        classify_batch(cal, bank, tau, out=out, bank_norms=bank_norms, feat_norms=norms)
        best = np.argmax(out, axis=1)
        labels[sl] = best
        top[sl] = out[np.arange(best.size), best]

    core._for_blocks(score, n)
    return Predictions(probs=probs, labels=labels, clusters=clusters, flags=flags, top=top)


def _update(
    state: StreamState, x: np.ndarray, labels: np.ndarray, eta: Optional[float] = None
) -> StreamState:
    """Fold rows and their cluster labels into a state's statistics.

    With eta None the update is exact: the rows join the accumulators,
    every cluster mean with members is its running sum over its count,
    and the global mean is the running sum of every row seen over their
    number.  Otherwise each cluster present in the rows moves its mean
    eta of the way to the rows' mean, the global mean is the mean of the
    cluster means, and no accumulators are kept.  Shift rows refresh
    only for clusters present in the rows; the others keep the value
    from their last appearance (zero before any).  A global mean or a
    shift row that is not finite raises NonFiniteInput.
    """
    m = state.centroids.shape[0]
    batch_sums, batch_counts = _cluster_sums(x, labels, m)
    present = batch_counts > 0
    counts = state.counts + batch_counts
    prototypes = state.centroids.copy()
    samples_seen = state.samples_seen + x.shape[0]

    if eta is None:
        running_sums = state.running_sums + batch_sums
        nonzero = counts > 0
        prototypes[nonzero] = running_sums[nonzero] / counts[nonzero, None]
        global_sum = state.global_sum + np.sum(x, axis=0, dtype=np.float64)
        mu_avg = global_sum / samples_seen
    else:
        running_sums = global_sum = None
        # the division batch_cluster_means makes, so the two agree bit for bit
        batch_means = batch_sums[present] / batch_counts[present, None]
        prototypes[present] = (1.0 - eta) * prototypes[present] + eta * batch_means
        mu_avg = np.sum(prototypes, axis=0) / m

    old = state.calib_text_shifts
    shifts = np.zeros_like(prototypes) if old is None else old.copy()
    shifts[present] = prototypes[present] - mu_avg
    for name, a in (("calib_global_mean", mu_avg), ("calib_text_shifts", shifts)):
        if not np.isfinite(a).all():
            raise NonFiniteInput(f"{name} contains NaN or infinity")
    return StreamState(
        centroids=prototypes, counts=counts, running_sums=running_sums, global_sum=global_sum,
        calib_global_mean=mu_avg, calib_text_shifts=shifts,
        samples_seen=samples_seen, batches_seen=state.batches_seen + 1,
    )


def _empty(centroids: np.ndarray, accumulators: bool) -> StreamState:
    """A state with these cluster means and nothing folded into them."""
    m, d = centroids.shape
    return StreamState(
        centroids=centroids, counts=np.zeros(m, dtype=np.int64),
        running_sums=np.zeros((m, d)) if accumulators else None,
        global_sum=np.zeros(d) if accumulators else None,
    )


def _kmeans_state(x: np.ndarray, cfg: EngineConfig, eta: Optional[float] = None):
    """Cluster rows with k-means, then fold them into an empty state
    under k-means' own labels; return (state, labels)."""
    model, labels = kmeans_fit(x, cfg.clusters, cfg.seed)
    return _update(_empty(model.centroids, eta is None), x, labels, eta), labels


def _score(state: StreamState, x: np.ndarray, labels: np.ndarray, bank: TextBank, tau: float,
           keep_probs: bool = True) -> Predictions:
    """Predictions of rows with their cluster labels against a fitted state."""
    cal_bank = calibrate_bank(bank, state.calib_text_shifts)
    return _predict_rows(x, labels, state.centroids, cal_bank.data, tau, keep_probs)


def fit_unsupervised(
    train: Union[EmbeddingMatrix, np.ndarray], bank: TextBank, cfg: EngineConfig
) -> StreamState:
    """Estimate the fitted state from an unlabeled training matrix.

    The global mean is taken over every training row (not over the
    cluster means), so unequal cluster sizes weigh in proportionally.
    The update is the exact one whatever cfg.mode says, and the state
    keeps its accumulators, so it continues as a memory stream bit for
    bit.  The bank is only checked against the rows' dimension (in
    _rows, as in every regime); predict calibrates it.
    """
    return _kmeans_state(_rows(train, bank, cfg), cfg)[0]


def predict(
    state: Optional[StreamState],
    x: Union[EmbeddingMatrix, np.ndarray],
    bank: TextBank,
    cfg: EngineConfig,
    *,
    keep_probs: bool = True,
) -> Predictions:
    """Calibrate and classify rows against a fitted state, or, with state
    None, score them zero-shot against the raw bank: cluster -1, every
    row flagged UNCALIBRATED.

    bank is the raw text bank; it is calibrated here from
    state.calib_text_shifts.  A state that is not well-formed under cfg
    (see StreamState) raises FormatError, NonFinitePayload for a NaN or
    infinity, and so does one with no cluster means yet (a stream still
    bootstrapping).  Each row is assigned to its nearest cluster mean and
    re-expressed as the unit direction from it; a row on its mean falls
    back to plain normalization and is flagged DEGENERATE.
    Zero rows give an empty Predictions; rows whose dimension differs
    from the state or the bank raise DimensionMismatch, and a raw array
    with a NaN or infinity raises NonFiniteInput.  With keep_probs=False
    the result holds no N x K matrix: probs is None and labels, top,
    clusters and flags have the bits of the default call.
    """
    dim = None if state is None else _check_state(state, cfg)
    if state is not None and state.centroids is None:
        raise FormatError("the state has no fitted model to predict with yet")
    x = _rows(x, bank, cfg, dim)
    if not x.shape[0]:
        return Predictions.empty(bank.k)
    if state is None:
        return _predict_rows(x, None, None, bank.data, cfg.tau, keep_probs)
    return _score(state, x, assign_batch(state.centroids, x), bank, cfg.tau, keep_probs)


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

    The fit is fit_unsupervised's.  With keep_probs=False the
    predictions hold no N x K matrix: probs is None and labels, top,
    clusters and flags have the bits of the default call.
    """
    x = _rows(test, bank, cfg)
    state, labels = _kmeans_state(x, cfg)
    return _score(state, x, labels, bank, cfg.tau, keep_probs), state


def stream_init(cfg: EngineConfig) -> StreamState:
    """Fresh stream with nothing seen yet; cfg is unused, taken to match stream_step."""
    return StreamState()


def stream_step(
    state: StreamState,
    batch: Union[EmbeddingMatrix, np.ndarray],
    bank: TextBank,
    cfg: EngineConfig,
    *,
    keep_probs: bool = True,
) -> Tuple[Predictions, StreamState]:
    """Consume one batch and return its predictions plus the next state.

    Until a model exists: a first batch with at least `clusters` samples
    is fitted and predicted as transduce does (in ema mode its cluster
    means are blended in at rate eta); smaller batches are buffered and
    answered with plain zero-shot predictions flagged UNCALIBRATED.  The
    first `clusters` samples overall then seed one cluster each, and any
    remainder of the completing batch is processed normally.  Buffered
    samples are never re-predicted.  An empty batch returns an empty
    Predictions and the state as it was.  A state that is not well-formed
    under cfg (see StreamState) raises FormatError, NonFinitePayload for
    a NaN or infinity, and so does, in memory mode, one with a model but
    no accumulators (an ema stream's state); a batch is refused as
    predict refuses rows.  keep_probs=False works as in transduce.
    """
    x = _rows(batch, bank, cfg, _check_state(state, cfg))
    if not x.shape[0]:
        return Predictions.empty(bank.k), state
    eta = cfg.eta if cfg.mode == "ema" else None

    if state.centroids is None and state.bootstrap_buffer is None and x.shape[0] >= cfg.clusters:
        state, labels = _kmeans_state(x, cfg, eta)
        return _score(state, x, labels, bank, cfg.tau, keep_probs), state

    zero_shot = None
    if state.centroids is None:
        buffered = state.bootstrap_buffer
        need = cfg.clusters - (0 if buffered is None else buffered.shape[0])
        zero_shot = _predict_rows(x[:need], None, None, bank.data, cfg.tau, keep_probs)
        seeds = x[:need].astype(np.float64)  # as every state array is
        if buffered is not None:
            seeds = np.vstack([buffered, seeds])
        if x.shape[0] < need:
            # still short: buffer and answer zero-shot
            seen = state.samples_seen + x.shape[0]
            return zero_shot, replace(
                state, bootstrap_buffer=seeds, samples_seen=seen, batches_seen=state.batches_seen + 1
            )
        # this batch completes the bootstrap: each seed is its own cluster
        # (exactly, in either mode), and the seeds and the rest of the
        # batch count as one batch
        seeded_state = _update(_empty(seeds, True), seeds, np.arange(cfg.clusters))
        state = replace(seeded_state, batches_seen=state.batches_seen)
        if eta is not None:
            state = replace(state, running_sums=None, global_sum=None)
        x = x[need:]
        if not x.shape[0]:
            return zero_shot, replace(state, batches_seen=state.batches_seen + 1)
    elif eta is None and (state.running_sums is None or state.global_sum is None):
        missing = [name for name in ("running_sums", "global_sum") if getattr(state, name) is None]
        raise FormatError(
            f"a memory-mode stream needs its accumulators, and this state has no "
            f"{', '.join(missing)} (an ema stream keeps none; continue it in ema mode)"
        )

    labels = assign_batch(state.centroids, x)
    state = _update(state, x, labels, eta)
    preds = _score(state, x, labels, bank, cfg.tau, keep_probs)
    return (preds if zero_shot is None else Predictions.concat([zero_shot, preds])), state


def run_stream(
    test: Union[EmbeddingMatrix, np.ndarray],
    bank: TextBank,
    cfg: EngineConfig,
    *,
    keep_probs: bool = True,
    on_batch: Optional[Callable[[int, StreamState], None]] = None,
) -> Tuple[Predictions, StreamState]:
    """Feed a matrix through stream_step in batch_size slices, in order.

    on_batch(batches_done, state), when given, runs after every batch.
    With keep_probs=False no batch keeps an N x K matrix: probs is None
    and labels, top, clusters and flags have the bits of the default
    call.  The rows are normalized once, which is row-local: the same bits.
    """
    x = _rows(test, bank, cfg)
    cfg = replace(cfg, normalize_input=False)
    state = stream_init(cfg)
    parts = [Predictions.empty(bank.k)]
    for start in range(0, x.shape[0], cfg.batch_size):
        batch = x[start : start + cfg.batch_size]
        batch_preds, state = stream_step(state, batch, bank, cfg, keep_probs=keep_probs)
        parts.append(batch_preds)
        if on_batch is not None:
            on_batch(len(parts) - 1, state)
    return Predictions.concat(parts), state
