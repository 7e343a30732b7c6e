"""On-disk formats: embedding files, label sidecars, name lists, snapshots.

Binary container layout (all integers little-endian u32):

    bytes 0-3    magic "UMFC"
    bytes 4-7    container version (currently 1)
    bytes 8-11   count   (rows; or payload byte length for snapshots)
    bytes 12-15  dim     (columns; 1 for snapshots)
    bytes 16-19  payload_kind: 0 image rows, 1 text rows, 2 engine state

Embedding payloads are count*dim little-endian float32 values,
row-major, and nothing else.  Snapshot payloads carry a JSON manifest
followed by raw float64/int64 arrays so accumulators survive at full
precision.  Every write lands in a temp file in the target directory and
is renamed into place, so a partially written file is never visible at
the target path.  Every malformed-input failure raises a typed error
from .errors rather than crashing.
"""

import json
import math
import os
import struct
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .core import EmbeddingMatrix, TextBank, row_blocks
from .engine import EngineConfig, StreamState, _STATE_ARRAYS, _check_state
from .errors import (
    BadMagic,
    DuplicateName,
    FormatError,
    LabelCountMismatch,
    NameCountMismatch,
    NonFinitePayload,
    TruncatedPayload,
    UnsupportedVersion,
)

__all__ = [
    "MAGIC",
    "VERSION",
    "KIND_IMAGE",
    "KIND_TEXT",
    "KIND_STATE",
    "write_embeddings",
    "read_embeddings",
    "read_embeddings_csv",
    "write_embeddings_csv",
    "write_text_bank",
    "read_text_bank",
    "read_names",
    "snapshot_state",
    "restore_state",
]

MAGIC = b"UMFC"
VERSION = 1
KIND_IMAGE = 0
KIND_TEXT = 1
KIND_STATE = 2
_HEADER = struct.Struct("<4sIIII")


def _atomic_write(path, data: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _pack_header(count: int, dim: int, kind: int) -> bytes:
    return _HEADER.pack(MAGIC, VERSION, count, dim, kind)


def _read_header(raw: bytes, path) -> Tuple[int, int, int]:
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise BadMagic(f"{path}: not a UMFC container")
    if len(raw) < _HEADER.size:
        raise TruncatedPayload(f"{path}: header cut short at {len(raw)} bytes")
    _, version, count, dim, kind = _HEADER.unpack_from(raw)
    if version != VERSION:
        raise UnsupportedVersion(f"{path}: container version {version}, this build reads {VERSION}")
    return count, dim, kind


def write_embeddings(matrix: EmbeddingMatrix, path, kind: int = KIND_IMAGE) -> None:
    """Write rows as float32 plus, when labels exist, an id/label sidecar."""
    if kind not in (KIND_IMAGE, KIND_TEXT):
        raise ValueError(f"embedding payload kind must be 0 or 1, got {kind}")
    payload = matrix.data.astype("<f4").tobytes()
    _atomic_write(path, _pack_header(matrix.n, matrix.dim, kind) + payload)
    if matrix.class_labels is not None or matrix.domain_labels is not None:
        cls = matrix.class_labels
        dom = matrix.domain_labels
        lines = []
        for i in range(matrix.n):
            c = -1 if cls is None else int(cls[i])
            z = -1 if dom is None else int(dom[i])
            lines.append(f"{matrix.ids[i]}\t{c}\t{z}")
        _atomic_write(str(path) + ".labels", ("\n".join(lines) + "\n").encode("utf-8"))


def _parse_labels(path, n: int):
    text = Path(path).read_bytes().decode("utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) != n:
        raise LabelCountMismatch(f"{path}: {len(lines)} label rows for {n} embeddings")
    ids, cls, dom = [], [], []
    for ln, line in enumerate(lines):
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"{path}:{ln + 1}: expected id<TAB>class<TAB>domain")
        try:
            ids.append(parts[0])
            cls.append(int(parts[1]))
            dom.append(int(parts[2]))
        except ValueError as e:
            raise FormatError(f"{path}:{ln + 1}: {e}") from None
    cls = np.asarray(cls, dtype=np.int64)
    dom = np.asarray(dom, dtype=np.int64)
    return ids, (None if (cls == -1).all() else cls), (None if (dom == -1).all() else dom)


def read_embeddings(path) -> EmbeddingMatrix:
    """Read an embedding container (and its label sidecar if present).

    The payload size is checked against the header before anything is
    allocated; rows are then read block by block (core.row_blocks)
    through one float32 buffer into the float64 result.
    """
    with open(path, "rb") as fh:
        count, dim, kind = _read_header(fh.read(_HEADER.size), path)
        if kind not in (KIND_IMAGE, KIND_TEXT):
            raise FormatError(f"{path}: payload kind {kind} is not an embedding payload")
        expected = count * dim * 4
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != expected:
            raise TruncatedPayload(f"{path}: payload is {size} bytes, header promises {expected}")
        data = np.empty((count, dim))
        buf = None
        for sl in row_blocks(count):
            if buf is None:  # the first block is the largest
                buf = np.empty((sl.stop - sl.start, dim), dtype="<f4")
            block = buf[: sl.stop - sl.start]
            if fh.readinto(block) != block.nbytes:
                raise TruncatedPayload(f"{path}: payload cut short while reading")
            if not np.isfinite(block).all():
                raise NonFinitePayload(f"{path}: payload contains NaN or infinity")
            data[sl] = block
    ids = cls = dom = None
    sidecar = Path(str(path) + ".labels")
    if sidecar.exists():
        ids, cls, dom = _parse_labels(sidecar, count)
    return EmbeddingMatrix(data=data, ids=ids, class_labels=cls, domain_labels=dom)


def read_embeddings_csv(path) -> EmbeddingMatrix:
    """Fallback text reader: rows of id,class,domain,v0,...,vD-1.

    Values are parsed at float32 precision so a CSV and a binary file
    written from the same data decode to identical matrices.
    """
    ids, cls, dom, rows = [], [], [], []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 4:
                raise FormatError(f"{path}:{ln + 1}: expected id,class,domain,v0,...")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise FormatError(f"{path}:{ln + 1}: {len(parts)} fields, expected {width}")
            try:
                ids.append(parts[0])
                cls.append(int(parts[1]))
                dom.append(int(parts[2]))
                rows.append(np.array(parts[3:], dtype="<f4"))
            except ValueError as e:
                raise FormatError(f"{path}:{ln + 1}: {e}") from None
    if not rows:
        return EmbeddingMatrix(data=np.empty((0, 0)))
    data = np.stack(rows).astype(np.float64)
    if not np.isfinite(data).all():
        raise NonFinitePayload(f"{path}: payload contains NaN or infinity")
    cls = np.asarray(cls, dtype=np.int64)
    dom = np.asarray(dom, dtype=np.int64)
    return EmbeddingMatrix(
        data=data,
        ids=ids,
        class_labels=None if (cls == -1).all() else cls,
        domain_labels=None if (dom == -1).all() else dom,
    )


def write_embeddings_csv(matrix: EmbeddingMatrix, path) -> None:
    cls = matrix.class_labels
    dom = matrix.domain_labels
    f4 = matrix.data.astype(np.float32)
    lines = []
    for i in range(matrix.n):
        c = -1 if cls is None else int(cls[i])
        z = -1 if dom is None else int(dom[i])
        vals = ",".join(np.format_float_positional(v, unique=True) for v in f4[i])
        lines.append(f"{matrix.ids[i]},{c},{z},{vals}")
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_names(path, expected: Optional[int] = None) -> List[str]:
    """Class names, one per line; must be non-empty and unique."""
    text = Path(path).read_bytes().decode("utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if expected is not None and len(lines) != expected:
        raise NameCountMismatch(f"{path}: {len(lines)} names, expected {expected}")
    if any(not name for name in lines):
        raise FormatError(f"{path}: empty class name")
    if len(set(lines)) != len(lines):
        raise DuplicateName(f"{path}: class names are not unique")
    return lines


def write_text_bank(bank: TextBank, path, names_path) -> None:
    mat = EmbeddingMatrix(data=bank.data)
    write_embeddings(mat, path, kind=KIND_TEXT)
    _atomic_write(names_path, ("\n".join(bank.names) + "\n").encode("utf-8"))


def read_text_bank(path, names_path) -> TextBank:
    mat = read_embeddings(path)
    if mat.n < 2:
        raise FormatError(f"{path}: a text bank needs at least two classes, this one has {mat.n}")
    names = read_names(names_path, expected=mat.n)
    return TextBank(names=names, data=mat.data)


# ---------------------------------------------------------------------------
# engine state snapshots

# the arrays a snapshot may carry: those of engine._STATE_ARRAYS, and the
# exact copies older snapshots carry of two of them (name -> the original)
_NAMES = {name for name, *_ in _STATE_ARRAYS}
_DTYPES = {dtype for _, dtype, _, _ in _STATE_ARRAYS}
_TWINS = {"running_counts": "counts", "calib_cluster_means": "centroids"}


def _count(value) -> bool:
    """value is a JSON integer in [0, 2**63), the range of an int64."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < 2**63


def _check_accumulators(state: StreamState) -> None:
    """Raise FormatError unless the accumulators a fitted state carries
    give its cluster means and global mean bit for bit, as the update
    that wrote them divides: each member row of centroids is its row of
    running_sums over its count (a row with no members sums to zero),
    and calib_global_mean is global_sum over samples_seen > 0."""
    if state.centroids is None:
        return
    sums, counts, seen = state.running_sums, state.counts, state.samples_seen
    if sums is not None:
        nz = counts > 0
        if sums[~nz].any() or not np.array_equal(state.centroids[nz], sums[nz] / counts[nz, None]):
            raise FormatError("array running_sums does not give centroids over counts")
    if state.global_sum is not None and not (
        seen and np.array_equal(state.calib_global_mean, state.global_sum / seen)
    ):
        raise FormatError("array global_sum does not give calib_global_mean over samples_seen")


def snapshot_state(state: StreamState, cfg: EngineConfig, path) -> None:
    """Persist a fitted state plus its config; restoring continues bit-for-bit.

    A state that is not well-formed under cfg (see restore_state) raises
    FormatError and nothing is written.  Cluster inertia history is a
    fit-time diagnostic and is not carried across a snapshot.
    """
    _check_state(state, cfg)
    manifest = {
        "config": asdict(cfg),
        "samples_seen": state.samples_seen,
        "batches_seen": state.batches_seen,
        "arrays": [],
    }
    blobs = []
    for name, dtype, _, _ in _STATE_ARRAYS:
        arr = getattr(state, name)
        if arr is None:
            manifest["arrays"].append([name, None, None])
        else:
            manifest["arrays"].append([name, dtype, list(arr.shape)])
            blobs.append(arr.astype(dtype).tobytes())
    head = json.dumps(manifest, sort_keys=True).encode("utf-8")
    payload = struct.pack("<I", len(head)) + head + b"".join(blobs)
    _atomic_write(path, _pack_header(len(payload), 1, KIND_STATE) + payload)


def restore_state(path) -> Tuple[StreamState, EngineConfig]:
    """Read a snapshot back as its state and config.  A malformed one,
    one holding a state that predict would refuse, and one whose
    accumulators disagree with the cluster means or the global mean they
    were divided into are each a FormatError."""
    raw = Path(path).read_bytes()
    count, _, kind = _read_header(raw, path)
    if kind != KIND_STATE:
        raise FormatError(f"{path}: payload kind {kind} is not an engine state")
    body = raw[_HEADER.size :]
    if len(body) != count:
        raise TruncatedPayload(f"{path}: payload is {len(body)} bytes, header promises {count}")
    if len(body) < 4:
        raise TruncatedPayload(f"{path}: snapshot payload too short for its manifest")
    (head_len,) = struct.unpack_from("<I", body)
    if len(body) < 4 + head_len:
        raise TruncatedPayload(f"{path}: manifest cut short")
    try:
        manifest = json.loads(body[4 : 4 + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: unreadable snapshot manifest: {e}") from None

    try:
        config = dict(manifest["config"])
        # snapshots from before a knob was removed carry it: the k-means
        # limits go whatever they say (a restored model is never fitted
        # again), and of the switches only the default (off) still means
        # something
        for key in ("max_iters", "tol", "ema_additive", "normalize_shifts"):
            if config.pop(key, False) and key not in ("max_iters", "tol"):
                raise FormatError(f"{path}: snapshot turns on the removed switch {key}")
        cfg = EngineConfig(**config)
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"{path}: bad config in snapshot: {e}") from None
    entries = manifest.get("arrays", [])
    seen = {key: manifest.get(key, 0) for key in ("samples_seen", "batches_seen")}
    if not isinstance(entries, list) or not all(map(_count, seen.values())):
        raise FormatError(f"{path}: snapshot manifest needs an arrays list and int64 counters >= 0")

    offset = 4 + head_len
    arrays = {}
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)):
            raise FormatError(f"{path}: array entry {entry!r} is not a [name, dtype, shape] triple")
        name, dtype, shape = entry
        if name not in _NAMES and name not in _TWINS:
            raise FormatError(f"{path}: unknown array {name!r}")
        if dtype is None:
            arrays[name] = None
            continue
        if dtype not in _DTYPES:
            raise FormatError(f"{path}: unknown array dtype {dtype!r}")
        if not (isinstance(shape, list) and all(map(_count, shape))):
            raise FormatError(f"{path}: array {name} has a bad shape {shape!r}")
        nbytes = math.prod(shape) * 8
        chunk = body[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise TruncatedPayload(f"{path}: array {name} cut short")
        arr = np.frombuffer(chunk, dtype=dtype).reshape(shape).copy()
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise NonFinitePayload(f"{path}: array {name} contains NaN or infinity")
        arrays[name] = arr
        offset += nbytes
    if offset != len(body):
        raise TruncatedPayload(f"{path}: {len(body) - offset} unexpected trailing bytes")
    for name, twin in _TWINS.items():
        old, new = arrays.pop(name, None), arrays.get(twin)
        if old is not None and (new is None or not np.array_equal(old, new)):
            raise FormatError(f"{path}: array {name} differs from {twin}, of which it is a copy")

    state = StreamState(**arrays, **seen)
    try:
        _check_state(state, cfg)
        _check_accumulators(state)
    except FormatError as e:
        raise FormatError(f"{path}: {e}") from None
    return state, cfg
