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
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .core import CHUNK_ROWS, EmbeddingMatrix, TextBank, _for_blocks, row_blocks
from .engine import EngineConfig, StreamState, _STATE_ARRAYS, _check_state, _count
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


def _atomic_write(path, chunks: Iterable[bytes]) -> None:
    """Write the bytes chunks one after another to path, through a temp
    file renamed into place.  chunks is a list or an iterator of bytes; a
    bare bytes object would be iterated as ints.  An OSError names path,
    not the temp file, which is removed."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=path.name + ".",
                                   suffix=".tmp")
        try:
            # mkstemp makes the file 0600; give it the mode open() would
            mask = os.umask(0o077)  # the strictest mask while the umask is read
            os.umask(mask)
            os.chmod(tmp, 0o666 & ~mask)
            with os.fdopen(fd, "wb") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as e:
        if e.errno is None:
            raise
        raise OSError(e.errno, e.strerror, str(path)) from e


def _write_lines(path, lines: Iterable[str]) -> None:
    """Write each string of lines and a newline after it, as UTF-8,
    encoding CHUNK_ROWS lines at a time."""
    it = iter(lines)
    blocks = iter(lambda: list(islice(it, CHUNK_ROWS)), [])
    _atomic_write(path, ("".join(f"{l}\n" for l in block).encode("utf-8") for block in blocks))


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
    header = _pack_header(matrix.n, matrix.dim, kind)
    blocks = (matrix.data[sl].astype("<f4").tobytes() for sl in row_blocks(matrix.n))
    _atomic_write(path, chain([header], blocks))
    if matrix.class_labels is not None or matrix.domain_labels is not None:
        cls, dom = (repeat(-1) if lab is None else lab.tolist()
                    for lab in (matrix.class_labels, matrix.domain_labels))
        _write_lines(str(path) + ".labels",
                     (f"{pid}\t{c}\t{z}" for pid, c, z in zip(matrix.ids, cls, dom)))


def _parse_labels(path, n: int):
    lines = Path(path).read_text(encoding="utf-8").split("\n")
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

    The rows stay float32, as stored, so every computation on them runs
    in float32 products (core._float_rows).  The payload size is checked
    against the header before anything is allocated; the payload is then
    read in one read straight into the result, and each worker of a pass
    (core._for_blocks) checks one block of rows.  A NaN or infinity
    raises NonFinitePayload naming the lowest such row.
    """
    with open(path, "rb") as fh:
        count, dim, kind = _read_header(fh.read(_HEADER.size), path)
        if kind not in (KIND_IMAGE, KIND_TEXT):
            raise FormatError(f"{path}: payload kind {kind} is not an embedding payload")
        expected = count * dim * 4
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != expected:
            raise TruncatedPayload(f"{path}: payload is {size} bytes, header promises {expected}")
        data = np.empty((count, dim), dtype="<f4")
        if fh.readinto(data) != data.nbytes:
            raise TruncatedPayload(f"{path}: payload cut short while reading")

    def check_block(sl):
        finite = np.isfinite(data[sl])
        if not finite.all():
            row = sl.start + int(np.flatnonzero(~finite.all(axis=1))[0])
            raise NonFinitePayload(f"{path}: payload row {row} contains NaN or infinity")

    _for_blocks(check_block, count)
    ids = cls = dom = None
    sidecar = Path(str(path) + ".labels")
    if sidecar.exists():
        ids, cls, dom = _parse_labels(sidecar, count)
    return EmbeddingMatrix._unchecked(data, ids, cls, dom)


def read_embeddings_csv(path) -> EmbeddingMatrix:
    """Fallback text reader: rows of id,class,domain,v0,...,vD-1.

    Values are parsed to float32 rows so a CSV and a binary file
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
        return EmbeddingMatrix(data=np.empty((0, 0), dtype=np.float32))
    data = np.stack(rows)
    if not np.isfinite(data).all():
        raise NonFinitePayload(f"{path}: payload contains NaN or infinity")
    cls = np.asarray(cls, dtype=np.int64)
    dom = np.asarray(dom, dtype=np.int64)
    return EmbeddingMatrix._unchecked(
        data, ids, None if (cls == -1).all() else cls, None if (dom == -1).all() else dom
    )


def write_embeddings_csv(matrix: EmbeddingMatrix, path) -> None:
    cls, dom = (repeat(-1) if lab is None else lab.tolist()
                for lab in (matrix.class_labels, matrix.domain_labels))
    _write_lines(path, (
        f"{pid},{c},{z}," + ",".join(np.format_float_positional(v, unique=True)
                                     for v in row.astype(np.float32))
        for pid, c, z, row in zip(matrix.ids, cls, dom, matrix.data)
    ))


def read_names(path, expected: Optional[int] = None) -> List[str]:
    """Class names, one per line; must be non-empty and unique.  As in
    every text file read here, a line ends at \\n, \\r\\n or \\r."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
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
    _write_lines(names_path, bank.names)


def read_text_bank(path, names_path) -> TextBank:
    mat = read_embeddings(path)
    if mat.n < 2:
        raise FormatError(f"{path}: a text bank needs at least two classes, this one has {mat.n}")
    names = read_names(names_path, expected=mat.n)
    return TextBank(names=names, data=mat.data)


# ---------------------------------------------------------------------------
# engine state snapshots

def snapshot_state(state: StreamState, cfg: EngineConfig, path) -> None:
    """Persist a fitted state plus its config; restoring continues bit-for-bit.

    A state that is not well-formed under cfg (see StreamState) raises
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
    payload = [struct.pack("<I", len(head)), head, *blobs]
    _atomic_write(path, [_pack_header(sum(map(len, payload)), 1, KIND_STATE), *payload])


def restore_state(path) -> Tuple[StreamState, EngineConfig]:
    """Read a snapshot back as its state and config.  A malformed file,
    one naming an array twice or in another dtype than snapshot_state
    writes, and one whose state is not well-formed under its config (see
    StreamState) are each a FormatError naming the path."""
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
        cfg = EngineConfig(**manifest["config"])
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"{path}: bad config in snapshot: {e}") from None
    entries = manifest.get("arrays", [])
    if not isinstance(entries, list):
        raise FormatError(f"{path}: snapshot manifest needs an arrays list")

    written = {name: dtype for name, dtype, *_ in _STATE_ARRAYS}
    offset = 4 + head_len
    arrays = {}
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)):
            raise FormatError(f"{path}: array entry {entry!r} is not a [name, dtype, shape] triple")
        name, dtype, shape = entry
        if name not in written:
            raise FormatError(f"{path}: unknown array {name!r}")
        if name in arrays:
            raise FormatError(f"{path}: array {name!r} listed twice")
        if dtype is None:
            arrays[name] = None
            continue
        if dtype != written[name]:
            raise FormatError(f"{path}: array {name} has dtype {dtype!r}, not {written[name]!r}")
        if not (isinstance(shape, list) and all(map(_count, shape))):
            raise FormatError(f"{path}: array {name} has a bad shape {shape!r}")
        nbytes = math.prod(shape) * 8
        chunk = body[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise TruncatedPayload(f"{path}: array {name} cut short")
        arrays[name] = np.frombuffer(chunk, dtype=dtype).reshape(shape).copy()
        offset += nbytes

    seen = {key: manifest.get(key, 0) for key in ("samples_seen", "batches_seen")}
    state = StreamState(**arrays, **seen)
    try:
        _check_state(state, cfg)
    except FormatError as e:
        raise type(e)(f"{path}: {e}") from None
    if offset != len(body):
        raise TruncatedPayload(f"{path}: {len(body) - offset} unexpected trailing bytes")
    return state, cfg
