"""File format round-trips and every typed malformed-input failure."""

import dataclasses
import json
import os
import re
import stat
import struct
import tracemalloc

import numpy as np
import pytest

import umfc
from umfc.engine import _STATE_ARRAYS, StreamState

from properties import check_format_roundtrip

HEADER = struct.Struct("<4sIIII")


def _header(count, dim, kind, magic=b"UMFC", version=1):
    return HEADER.pack(magic, version, count, dim, kind)


def test_identity_file_frozen_bytes(tmp_path):
    p = tmp_path / "eye.bin"
    umfc.write_embeddings(umfc.EmbeddingMatrix(data=np.eye(2)), p)
    raw = p.read_bytes()
    assert len(raw) == 36
    assert raw[:20] == _header(2, 2, 0)
    assert raw[20:] == np.eye(2, dtype="<f4").tobytes()
    assert not (tmp_path / "eye.bin.labels").exists()


def test_round_trip_is_float32_exact(tmp_path):
    rng = np.random.default_rng(11)
    data = rng.standard_normal((7, 5))
    p = tmp_path / "m.bin"
    umfc.write_embeddings(umfc.EmbeddingMatrix(data=data), p)
    back = umfc.read_embeddings(p)
    assert np.array_equal(back.data, data.astype(np.float32).astype(np.float64))
    assert back.class_labels is None and back.domain_labels is None


def test_label_sidecar_round_trip(tmp_path):
    m = umfc.EmbeddingMatrix(
        data=np.ones((3, 2)),
        ids=["a", "b", "c"],
        class_labels=np.array([4, 0, 4]),
        domain_labels=np.array([1, 1, 0]),
    )
    p = tmp_path / "m.bin"
    umfc.write_embeddings(m, p)
    assert (tmp_path / "m.bin.labels").read_bytes() == b"a\t4\t1\nb\t0\t1\nc\t4\t0\n"
    back = umfc.read_embeddings(p)
    assert back.ids == ["a", "b", "c"]
    assert np.array_equal(back.class_labels, m.class_labels)
    assert np.array_equal(back.domain_labels, m.domain_labels)


def test_zero_row_labelled_matrix_round_trips(tmp_path):
    none = np.empty(0, dtype=np.int64)
    m = umfc.EmbeddingMatrix(data=np.empty((0, 4)), class_labels=none, domain_labels=none)
    p = tmp_path / "m.bin"
    umfc.write_embeddings(m, p)
    assert (tmp_path / "m.bin.labels").read_bytes() == b""
    back = umfc.read_embeddings(p)
    assert back.data.shape == (0, 4) and back.ids == []
    # a CSV of no rows has no width to keep: it reads back as 0 x 0
    pc = tmp_path / "m.csv"
    umfc.write_embeddings_csv(m, pc)
    assert pc.read_bytes() == b""
    assert umfc.read_embeddings_csv(pc).data.shape == (0, 0)


def test_sidecar_with_class_only(tmp_path):
    m = umfc.EmbeddingMatrix(data=np.ones((2, 2)), class_labels=np.array([1, 2]))
    p = tmp_path / "m.bin"
    umfc.write_embeddings(m, p)
    back = umfc.read_embeddings(p)
    assert np.array_equal(back.class_labels, [1, 2])
    assert back.domain_labels is None  # -1 column decodes to absent


def test_sidecar_count_mismatch(tmp_path):
    p = tmp_path / "m.bin"
    umfc.write_embeddings(umfc.EmbeddingMatrix(data=np.ones((3, 2))), p)
    (tmp_path / "m.bin.labels").write_text("r0\t0\t0\nr1\t0\t0\n")
    with pytest.raises(umfc.LabelCountMismatch):
        umfc.read_embeddings(p)


def test_sidecar_bad_row(tmp_path):
    p = tmp_path / "m.bin"
    umfc.write_embeddings(umfc.EmbeddingMatrix(data=np.ones((1, 2))), p)
    (tmp_path / "m.bin.labels").write_text("r0\tnot_an_int\t0\n")
    with pytest.raises(umfc.FormatError):
        umfc.read_embeddings(p)
    (tmp_path / "m.bin.labels").write_text("r0\t0\n")
    with pytest.raises(umfc.FormatError, match="expected id<TAB>class<TAB>domain"):
        umfc.read_embeddings(p)


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_label_sidecar_reads_any_line_end(tmp_path, end):
    # a line ends at \n, \r\n or \r in every text file read, as in the CSV reader
    m = umfc.EmbeddingMatrix(data=np.ones((2, 2)), ids=["a", "b"],
                             class_labels=np.array([1, 0]), domain_labels=np.array([0, 1]))
    p = tmp_path / "m.bin"
    umfc.write_embeddings(m, p)
    labels = tmp_path / "m.bin.labels"
    labels.write_bytes(labels.read_bytes().replace(b"\n", end.encode()))
    back = umfc.read_embeddings(p)
    assert back.ids == ["a", "b"]
    assert np.array_equal(back.class_labels, [1, 0])
    assert np.array_equal(back.domain_labels, [0, 1])


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_names_read_any_line_end(tmp_path, end):
    # no class name keeps a stray \r, which every output line would carry
    pn = tmp_path / "names.txt"
    pn.write_bytes(f"cat{end}dog{end}".encode())
    assert umfc.read_names(pn, expected=2) == ["cat", "dog"]


def test_bad_magic(tmp_path):
    p = tmp_path / "m.bin"
    p.write_bytes(b"JUNK" + b"\x00" * 32)
    with pytest.raises(umfc.BadMagic):
        umfc.read_embeddings(p)


def test_unsupported_version(tmp_path):
    p = tmp_path / "m.bin"
    p.write_bytes(_header(1, 2, 0, version=9) + b"\x00" * 8)
    with pytest.raises(umfc.UnsupportedVersion):
        umfc.read_embeddings(p)


def test_truncated_header_and_payload(tmp_path):
    p = tmp_path / "m.bin"
    p.write_bytes(b"UMFC\x01\x00")
    with pytest.raises(umfc.TruncatedPayload):
        umfc.read_embeddings(p)
    p.write_bytes(_header(2, 2, 0) + b"\x00" * 9)  # header promises 16
    with pytest.raises(umfc.TruncatedPayload):
        umfc.read_embeddings(p)


def test_nonfinite_payload(tmp_path):
    p = tmp_path / "m.bin"
    nan = struct.pack("<f", float("nan"))
    p.write_bytes(_header(1, 2, 0) + nan + struct.pack("<f", 1.0))
    with pytest.raises(umfc.NonFinitePayload):
        umfc.read_embeddings(p)


def test_oversized_header_fails_before_allocating(tmp_path):
    p = tmp_path / "m.bin"
    p.write_bytes(_header(2**31, 512, 0) + b"\x00" * 80)  # promises 4 TiB
    tracemalloc.start()
    try:
        with pytest.raises(umfc.TruncatedPayload):
            umfc.read_embeddings(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_trailing_payload_bytes(tmp_path):
    p = tmp_path / "m.bin"
    p.write_bytes(_header(2, 2, 0) + b"\x00" * 17)  # header promises 16
    with pytest.raises(umfc.TruncatedPayload):
        umfc.read_embeddings(p)


def test_nonfinite_payload_in_last_block(tmp_path, monkeypatch):
    monkeypatch.setattr(umfc.core, "CHUNK_ROWS", 7)
    data = np.ones((20, 3), dtype="<f4")
    data[19, 2] = np.inf
    p = tmp_path / "m.bin"
    p.write_bytes(_header(20, 3, 0) + data.tobytes())
    with pytest.raises(umfc.NonFinitePayload):
        umfc.read_embeddings(p)


def test_written_files_get_the_mode_open_gives(tmp_path):
    old = os.umask(0o027)
    try:
        with open(tmp_path / "sibling", "w"):
            pass
        umfc.write_embeddings(umfc.EmbeddingMatrix(data=np.ones((2, 3))), tmp_path / "m.bin")
    finally:
        os.umask(old)
    mode = stat.S_IMODE(os.stat(tmp_path / "m.bin").st_mode)
    assert mode == stat.S_IMODE(os.stat(tmp_path / "sibling").st_mode) == 0o640


def test_readers_build_their_matrix_without_a_second_check(tmp_path, monkeypatch):
    labels = np.array([3, -1])
    written = umfc.EmbeddingMatrix(data=np.ones((2, 3)), ids=["a", "b"], class_labels=labels)
    umfc.write_embeddings(written, tmp_path / "m.bin")
    umfc.write_embeddings_csv(written, tmp_path / "m.csv")

    def second_check(self):
        raise AssertionError("the rows were checked when read")

    monkeypatch.setattr(umfc.EmbeddingMatrix, "__post_init__", second_check)
    for m in (umfc.read_embeddings(tmp_path / "m.bin"), umfc.read_embeddings_csv(tmp_path / "m.csv")):
        assert m.data.tobytes() == written.data.astype("<f4").tobytes() and m.ids == ["a", "b"]
        assert m.class_labels.tolist() == [3, -1] and m.domain_labels is None
    monkeypatch.undo()
    # a matrix built by the library still checks its rows
    with pytest.raises(umfc.NonFiniteInput):
        umfc.EmbeddingMatrix(data=np.array([[1.0, np.nan]]))


def test_embedding_reader_rejects_state_kind(tmp_path):
    p = tmp_path / "m.bin"
    p.write_bytes(_header(8, 1, 2) + b"\x00" * 8)
    with pytest.raises(umfc.FormatError):
        umfc.read_embeddings(p)
    with pytest.raises(ValueError):
        umfc.write_embeddings(umfc.EmbeddingMatrix(data=np.ones((1, 1))), p, kind=2)


def test_csv_matches_binary_bit_for_bit(tmp_path):
    rng = np.random.default_rng(3)
    m = umfc.EmbeddingMatrix(
        data=rng.standard_normal((9, 6)) * 10.0 ** rng.integers(-3, 4, size=(9, 1)),
        class_labels=rng.integers(0, 4, size=9),
        domain_labels=rng.integers(0, 2, size=9),
    )
    pb = tmp_path / "m.bin"
    pc = tmp_path / "m.csv"
    umfc.write_embeddings(m, pb)
    umfc.write_embeddings_csv(m, pc)
    vb = umfc.read_embeddings(pb)
    vc = umfc.read_embeddings_csv(pc)
    assert np.array_equal(vb.data, vc.data)
    assert vb.ids == vc.ids
    assert np.array_equal(vb.class_labels, vc.class_labels)
    assert np.array_equal(vb.domain_labels, vc.domain_labels)


def test_csv_ragged_and_short_rows(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("a,0,0,1.0,2.0\nb,0,0,1.0\n")
    with pytest.raises(umfc.FormatError):
        umfc.read_embeddings_csv(p)
    p.write_text("a,0,0\n")
    with pytest.raises(umfc.FormatError):
        umfc.read_embeddings_csv(p)
    p.write_text("a,0,0,oops\n")
    with pytest.raises(umfc.FormatError):
        umfc.read_embeddings_csv(p)


def test_csv_nan_rejected(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("a,0,0,nan,1.0\n")
    with pytest.raises(umfc.NonFinitePayload):
        umfc.read_embeddings_csv(p)


@pytest.mark.parametrize("site", [
    "EmbeddingMatrix", "TextBank", "engine", "read_embeddings", "read_embeddings_csv",
])
def test_every_finite_check_names_the_lowest_bad_row(tmp_path, monkeypatch, site):
    # one check (core._check_finite) at every site, over blocks of 4 rows
    # here, so the bad rows 6, 9 and 10 lie in two blocks
    monkeypatch.setattr(umfc.core, "CHUNK_ROWS", 4)
    data = np.ones((12, 3), dtype="<f4")
    data[[9, 6], 1] = np.nan
    data[10, 2] = np.inf
    p = tmp_path / "m"
    if site == "read_embeddings":
        umfc.write_embeddings(umfc.EmbeddingMatrix(data=np.ones((12, 3))), p)
        p.write_bytes(p.read_bytes()[:20] + data.tobytes())
    elif site == "read_embeddings_csv":
        p.write_text("".join(f"{i},-1,-1," + ",".join(map(str, row)) + "\n"
                             for i, row in enumerate(data.tolist())))
    bank = umfc.TextBank(names=["a", "b"], data=np.eye(3)[:2])
    error, what, call = {
        "EmbeddingMatrix": (umfc.NonFiniteInput, "embedding matrix",
                            lambda: umfc.EmbeddingMatrix(data=data)),
        "TextBank": (umfc.NonFiniteInput, "text bank",
                     lambda: umfc.TextBank(names=[str(i) for i in range(12)], data=data)),
        "engine": (umfc.NonFiniteInput, "input",
                   lambda: umfc.transduce(data, bank, umfc.EngineConfig(clusters=2))),
        "read_embeddings": (umfc.NonFinitePayload, f"{p}: payload",
                            lambda: umfc.read_embeddings(p)),
        "read_embeddings_csv": (umfc.NonFinitePayload, f"{p}: payload",
                                lambda: umfc.read_embeddings_csv(p)),
    }[site]
    with pytest.raises(error, match=f"^{re.escape(what)} row 6 contains NaN or infinity$"):
        call()


def test_text_bank_round_trip(tmp_path):
    bank = umfc.TextBank(names=["cat", "dog"], data=np.eye(2))
    pb, pn = tmp_path / "bank.bin", tmp_path / "names.txt"
    umfc.write_text_bank(bank, pb, pn)
    back = umfc.read_text_bank(pb, pn)
    assert back.names == ["cat", "dog"]
    assert np.array_equal(back.data, np.eye(2))
    raw = pb.read_bytes()
    assert raw[16:20] == struct.pack("<I", 1)  # text payload kind


def test_name_list_errors(tmp_path):
    pn = tmp_path / "names.txt"
    pn.write_text("cat\ndog\n")
    assert umfc.read_names(pn) == ["cat", "dog"]
    with pytest.raises(umfc.NameCountMismatch):
        umfc.read_names(pn, expected=3)
    pn.write_text("cat\ncat\n")
    with pytest.raises(umfc.DuplicateName):
        umfc.read_names(pn)
    pn.write_text("cat\n\ndog\n")
    with pytest.raises(umfc.FormatError):
        umfc.read_names(pn)


# ---------------------------------------------------------------------------
# snapshots


def _fit_state(mode="memory"):
    ds = umfc.generate_benchmark(
        umfc.SynthSpec(n_classes=4, n_domains=2, dim=8, samples_per_cell=15, seed=3)
    )
    cfg = umfc.EngineConfig(clusters=2, batch_size=17, mode=mode)
    state = StreamState()
    for start in range(0, 40, 17):
        _, state = umfc.stream_step(state, ds.images.data[start : start + 17], ds.text_bank, cfg)
    return ds, cfg, state


def _state_fields(s):
    return [getattr(s, name) for name, *_ in _STATE_ARRAYS]


def _assert_states_equal(a, b):
    for x, y in zip(_state_fields(a), _state_fields(b)):
        if x is None:
            assert y is None
        else:
            assert np.array_equal(x, y)
    assert a.samples_seen == b.samples_seen
    assert a.batches_seen == b.batches_seen


def test_snapshot_round_trip_mid_stream(tmp_path):
    ds, cfg, state = _fit_state()
    p = tmp_path / "s.state"
    umfc.snapshot_state(state, cfg, p)
    back, back_cfg = umfc.restore_state(p)
    assert back_cfg == cfg
    _assert_states_equal(state, back)
    # continuing from the restored state reproduces the original run exactly
    preds_a, nxt_a = umfc.stream_step(state, ds.images.data[40:80], ds.text_bank, cfg)
    preds_b, nxt_b = umfc.stream_step(back, ds.images.data[40:80], ds.text_bank, cfg)
    assert np.array_equal(
        np.stack([p.probs for p in preds_a]), np.stack([p.probs for p in preds_b])
    )
    _assert_states_equal(nxt_a, nxt_b)


def test_snapshot_fresh_state(tmp_path):
    cfg = umfc.EngineConfig()
    p = tmp_path / "fresh.state"
    umfc.snapshot_state(StreamState(), cfg, p)
    back, back_cfg = umfc.restore_state(p)
    assert back_cfg == cfg
    assert all(a is None for a in _state_fields(back))
    assert back.samples_seen == 0 and back.batches_seen == 0
    assert back.bootstrap_buffer is None


def test_snapshot_buffering_state(tmp_path):
    # two samples buffered, fewer than the cluster count: bootstrap pending
    cfg = umfc.EngineConfig(clusters=3, batch_size=2)
    bank = umfc.TextBank(names=["a", "b"], data=np.eye(4)[:2])
    preds, state = umfc.stream_step(StreamState(), np.eye(4)[2:], bank, cfg)
    assert state.bootstrap_buffer is not None
    assert all("uncalibrated" in p.flags for p in preds)
    p = tmp_path / "buf.state"
    umfc.snapshot_state(state, cfg, p)
    back, _ = umfc.restore_state(p)
    _assert_states_equal(state, back)


def _snapshot_bytes(manifest: dict, blobs: bytes) -> bytes:
    head = json.dumps(manifest, sort_keys=True).encode()
    payload = struct.pack("<I", len(head)) + head + blobs
    return _header(len(payload), 1, 2) + payload


def _minimal_manifest(**config_overrides):
    config = {
        "clusters": 2, "tau": 0.01, "eta": 0.1, "mode": "memory",
        "batch_size": 10, "seed": 0, "normalize_input": True,
    }
    config.update(config_overrides)
    return {"config": config, "samples_seen": 0, "batches_seen": 0, "arrays": []}


def _unchecked_bytes(state, cfg):
    """The bytes snapshot_state writes for a state, also for a malformed
    one that it refuses to write; each array is written in its own
    dtype."""
    arrays = [(name, getattr(state, name)) for name, *_ in _STATE_ARRAYS]
    manifest = {
        "config": dataclasses.asdict(cfg),
        "samples_seen": state.samples_seen,
        "batches_seen": state.batches_seen,
        "arrays": [[n, None, None] if a is None else [n, a.dtype.str, list(a.shape)]
                   for n, a in arrays],
    }
    blobs = b"".join(a.tobytes() for _, a in arrays if a is not None)
    return _snapshot_bytes(manifest, blobs)


@pytest.mark.parametrize("field, value", [
    ("arrays", [["global_sum", "<f8"]]),
    ("arrays", ["global_sum"]),
    ("arrays", [[2, "<f8", [2]]]),
    ("arrays", [["global_sum", "<f8", [-2]]]),
    ("arrays", [["global_sum", "<f8", "2"]]),
    ("arrays", [["global_sum", "<f8", [2.0]]]),
    ("arrays", 5),
    ("samples_seen", "abc"),
    ("batches_seen", -1),
    ("arrays", [["counts", "<i8", [2, 1]]]),
    ("samples_seen", 10**400),
], ids=["pair", "name-only", "int-name", "negative-shape", "string-shape", "float-shape",
        "arrays-int", "samples-seen-string", "batches-seen-negative", "counts-2d",
        "samples-seen-beyond-int64"])
def test_malformed_snapshot_manifest_is_format_error(tmp_path, field, value):
    # every case is a plain FormatError (exit 2), not a raw TypeError or
    # ValueError (exit 1) nor a cut-short payload; the payload holds 16
    # bytes, the size of a well-formed array of two float64 or int64
    m = _minimal_manifest()
    m[field] = value
    p = tmp_path / "s.state"
    p.write_bytes(_snapshot_bytes(m, b"\x00" * 16))
    with pytest.raises(umfc.FormatError) as info:
        umfc.restore_state(p)
    assert type(info.value) is umfc.FormatError


# names snapshot_state no longer writes: config keys with the value once
# written by default, and exact copies of two arrays (name -> the original)
_LEGACY_KEYS = {"ema_additive": False, "normalize_shifts": False, "max_iters": 100, "tol": 1e-4}
_LEGACY_ARRAYS = {"running_counts": "counts", "calib_cluster_means": "centroids"}


@pytest.mark.parametrize("name", [*_LEGACY_KEYS, *_LEGACY_ARRAYS])
def test_snapshot_with_a_name_snapshot_state_does_not_write_is_refused(tmp_path, name):
    # restore reads only what snapshot_state writes: a snapshot that also
    # carries one of these names, whatever its value, is refused naming it
    _, cfg, state = _fit_state()
    p = tmp_path / "s.state"
    umfc.snapshot_state(state, cfg, p)
    raw = p.read_bytes()
    (head_len,) = struct.unpack_from("<I", raw, HEADER.size)
    manifest = json.loads(raw[HEADER.size + 4 : HEADER.size + 4 + head_len])
    blobs = raw[HEADER.size + 4 + head_len :]
    if name in _LEGACY_KEYS:
        manifest["config"][name] = _LEGACY_KEYS[name]
    else:
        copy = getattr(state, _LEGACY_ARRAYS[name])
        dtype = "<i8" if copy.dtype.kind == "i" else "<f8"
        manifest["arrays"].append([name, dtype, list(copy.shape)])
        blobs += copy.astype(dtype).tobytes()
    p.write_bytes(_snapshot_bytes(manifest, blobs))
    with pytest.raises(umfc.FormatError, match=name):
        umfc.restore_state(p)


def test_snapshot_corrupt_manifest(tmp_path):
    p = tmp_path / "s.state"
    payload = struct.pack("<I", 9) + b"not json!"
    p.write_bytes(_header(len(payload), 1, 2) + payload)
    with pytest.raises(umfc.FormatError):
        umfc.restore_state(p)
    # a payload too short for the manifest length, and a manifest cut short
    for payload, match in [(b"\x09\x00", "too short for its manifest"),
                           (struct.pack("<I", 50) + b"{}", "manifest cut short")]:
        p.write_bytes(_header(len(payload), 1, 2) + payload)
        with pytest.raises(umfc.TruncatedPayload, match=match):
            umfc.restore_state(p)


def test_snapshot_bad_config(tmp_path):
    p = tmp_path / "s.state"
    p.write_bytes(_snapshot_bytes(_minimal_manifest(clusters=0), b""))
    with pytest.raises(umfc.FormatError):
        umfc.restore_state(p)
    p.write_bytes(_snapshot_bytes({"arrays": []}, b""))  # config missing entirely
    with pytest.raises(umfc.FormatError):
        umfc.restore_state(p)


def test_snapshot_unknown_dtype(tmp_path):
    m = _minimal_manifest()
    m["arrays"] = [["centroids", "<f2", [2, 2]]]
    p = tmp_path / "s.state"
    p.write_bytes(_snapshot_bytes(m, b"\x00" * 8))
    with pytest.raises(umfc.FormatError):
        umfc.restore_state(p)


def test_snapshot_array_cut_short(tmp_path):
    m = _minimal_manifest()
    m["arrays"] = [["global_sum", "<f8", [4]]]
    p = tmp_path / "s.state"
    p.write_bytes(_snapshot_bytes(m, b"\x00" * 16))  # promises 32
    with pytest.raises(umfc.TruncatedPayload):
        umfc.restore_state(p)


def test_snapshot_trailing_bytes(tmp_path):
    p = tmp_path / "s.state"
    p.write_bytes(_snapshot_bytes(_minimal_manifest(), b"\x00" * 8))
    with pytest.raises(umfc.TruncatedPayload):
        umfc.restore_state(p)


def test_snapshot_centroids_without_counts(tmp_path):
    m = _minimal_manifest()
    m["arrays"] = [["centroids", "<f8", [2, 2]]]
    p = tmp_path / "s.state"
    p.write_bytes(_snapshot_bytes(m, np.ones((2, 2)).tobytes()))
    with pytest.raises(umfc.FormatError):
        umfc.restore_state(p)


def test_snapshot_nonfinite_array(tmp_path):
    m = _minimal_manifest()
    m["arrays"] = [["global_sum", "<f8", [2]]]
    p = tmp_path / "s.state"
    p.write_bytes(_snapshot_bytes(m, np.array([1.0, np.inf]).tobytes()))
    with pytest.raises(umfc.NonFinitePayload):
        umfc.restore_state(p)


def test_restore_rejects_embedding_kind(tmp_path):
    p = tmp_path / "m.bin"
    umfc.write_embeddings(umfc.EmbeddingMatrix(data=np.eye(2)), p)
    with pytest.raises(umfc.FormatError):
        umfc.restore_state(p)


def test_no_stray_temp_files(tmp_path):
    ds, cfg, state = _fit_state()
    umfc.write_embeddings(ds.images, tmp_path / "a.bin")
    umfc.write_embeddings_csv(ds.images, tmp_path / "a.csv")
    umfc.write_text_bank(ds.text_bank, tmp_path / "b.bin", tmp_path / "n.txt")
    umfc.snapshot_state(state, cfg, tmp_path / "s.state")
    leftovers = [f.name for f in tmp_path.iterdir() if f.suffix == ".tmp"]
    assert leftovers == []


def test_format_property_sweep(tmp_path):
    check_format_roundtrip(120, tmpdir=tmp_path, seed=77)


def test_fit_state_resumes_as_memory_stream_and_older_ones_name_missing_accumulators(tmp_path):
    # a fit snapshot keeps the accumulators and continues as a memory
    # stream exactly like the state it was written from
    ds, cfg, _ = _fit_state()
    fit = umfc.fit_unsupervised(ds.images.data[:40], ds.text_bank, cfg)
    p = tmp_path / "fit.state"
    umfc.snapshot_state(fit, cfg, p)
    back, back_cfg = umfc.restore_state(p)
    _assert_states_equal(fit, back)
    x = ds.images.data[40:60]
    (pa, sa), (pb, sb) = (umfc.stream_step(s, x, ds.text_bank, back_cfg) for s in (fit, back))
    assert np.array_equal(pa.probs, pb.probs)
    _assert_states_equal(sa, sb)
    # a state without the accumulators (as an ema stream keeps none) stores
    # [name, null, null] for them: refused as a memory stream, naming what
    # is missing
    old = dataclasses.replace(fit, running_sums=None, global_sum=None)
    umfc.snapshot_state(old, cfg, p)
    back, back_cfg = umfc.restore_state(p)
    with pytest.raises(umfc.FormatError, match="running_sums, global_sum"):
        umfc.stream_step(back, x, ds.text_bank, back_cfg)
    # ema mode keeps no accumulators and continues from the same state
    ema = umfc.EngineConfig(clusters=cfg.clusters, mode="ema")
    preds, _ = umfc.stream_step(back, x, ds.text_bank, ema)
    assert len(preds) == 20


@pytest.mark.parametrize("key, value", [
    ("clusters", 3.0), ("clusters", True), ("batch_size", 2.5), ("seed", -1), ("seed", 1.5),
    ("normalize_input", "no"), ("normalize_input", 1), ("mode", 1),
    ("eta", True), ("eta", "0.5"), ("tau", "0.5"),
])
def test_snapshot_config_of_a_wrong_type_is_format_error(tmp_path, key, value):
    p = tmp_path / "s.state"
    p.write_bytes(_snapshot_bytes(_minimal_manifest(**{key: value}), b""))
    with pytest.raises(umfc.FormatError, match=key):
        umfc.restore_state(p)


def _rewritten(path, edit):
    """Rewrite a snapshot's manifest and array bytes with edit(manifest, blobs)."""
    raw = path.read_bytes()
    (head_len,) = struct.unpack_from("<I", raw, HEADER.size)
    manifest = json.loads(raw[HEADER.size + 4 : HEADER.size + 4 + head_len])
    path.write_bytes(_snapshot_bytes(*edit(manifest, raw[HEADER.size + 4 + head_len :])))


def test_snapshot_with_an_unknown_array_name_is_refused(tmp_path):
    _, cfg, state = _fit_state()
    p = tmp_path / "s.state"
    umfc.snapshot_state(state, cfg, p)

    def misspell(manifest, blobs):
        manifest["arrays"][0][0] = "centroidz"
        return manifest, blobs

    _rewritten(p, misspell)
    with pytest.raises(umfc.FormatError, match="unknown array 'centroidz'"):
        umfc.restore_state(p)


@pytest.mark.parametrize("name, dtype", [("centroids", "<i8"), ("counts", "<f8")])
def test_snapshot_array_of_another_dtype_than_written_is_refused(tmp_path, name, dtype):
    # an ema state keeps no accumulators, so nothing else refuses the
    # array cast to the other dtype (same shape, same byte count)
    _, cfg, state = _fit_state("ema")
    p = tmp_path / "s.state"
    p.write_bytes(_unchecked_bytes(
        dataclasses.replace(state, **{name: getattr(state, name).astype(dtype)}), cfg))
    written = "<f8" if dtype == "<i8" else "<i8"
    with pytest.raises(umfc.FormatError, match=f"array {name} has dtype '{dtype}', not '{written}'"):
        umfc.restore_state(p)


@pytest.mark.parametrize("name", ["calib_global_mean", "bootstrap_buffer"])
def test_snapshot_listing_an_array_twice_is_refused(tmp_path, name):
    # a second entry for an array snapshot_state wrote, with its bytes, or
    # for one it wrote as absent: refused, not read as the last copy
    _, cfg, state = _fit_state()
    p = tmp_path / "s.state"
    umfc.snapshot_state(state, cfg, p)

    def repeat(manifest, blobs):
        arr = getattr(state, name)
        entry = [name, None, None] if arr is None else [name, "<f8", list(arr.shape)]
        manifest["arrays"].append(entry)
        return manifest, blobs + (b"" if arr is None else arr.tobytes())

    _rewritten(p, repeat)
    with pytest.raises(umfc.FormatError, match=f"array '{name}' listed twice"):
        umfc.restore_state(p)


def test_snapshot_with_a_model_but_no_calibration_is_refused(tmp_path):
    _, cfg, state = _fit_state()
    state = dataclasses.replace(state, calib_global_mean=None, calib_text_shifts=None)
    p = tmp_path / "s.state"
    with pytest.raises(umfc.FormatError, match="calib_global_mean, calib_text_shifts"):
        umfc.snapshot_state(state, cfg, p)
    p.write_bytes(_unchecked_bytes(state, cfg))
    with pytest.raises(umfc.FormatError, match="calib_global_mean, calib_text_shifts"):
        umfc.restore_state(p)


def test_snapshot_cluster_count_must_match_config(tmp_path):
    ds, cfg, state = _fit_state()
    p = tmp_path / "s.state"
    umfc.snapshot_state(state, cfg, p)
    assert p.read_bytes() == _unchecked_bytes(state, cfg)
    more = umfc.EngineConfig(clusters=cfg.clusters + 1)
    with pytest.raises(umfc.FormatError, match="centroids has shape"):
        umfc.snapshot_state(state, more, p)
    p.write_bytes(_unchecked_bytes(state, more))
    with pytest.raises(umfc.FormatError, match="centroids has shape"):
        umfc.restore_state(p)


@pytest.mark.parametrize("field", ["centroids", "running_sums", "global_sum", "bootstrap_buffer"])
def test_snapshot_arrays_must_share_the_feature_dimension(tmp_path, field):
    # one array cut from 8 to 6 columns: refused at restore, not left to
    # fail later inside a matrix product
    ds, cfg, state = _fit_state()
    if field == "bootstrap_buffer":
        state = dataclasses.replace(state, bootstrap_buffer=ds.images.data[:3, :6])
    else:
        state = dataclasses.replace(state, **{field: getattr(state, field)[..., :6]})
    p = tmp_path / "s.state"
    with pytest.raises(umfc.FormatError, match="feature dimension"):
        umfc.snapshot_state(state, cfg, p)
    p.write_bytes(_unchecked_bytes(state, cfg))
    with pytest.raises(umfc.FormatError, match="feature dimension"):
        umfc.restore_state(p)


def test_snapshot_with_a_bootstrap_buffer_of_more_rows_than_clusters_is_refused(tmp_path):
    ds = umfc.default_benchmark()
    _, state = umfc.stream_step(StreamState(), ds.images.data[:2], ds.text_bank,
                                umfc.EngineConfig(clusters=3))
    p = tmp_path / "s.state"
    p.write_bytes(_unchecked_bytes(state, umfc.EngineConfig(clusters=1)))
    with pytest.raises(umfc.FormatError, match="bootstrap buffer of 2 rows"):
        umfc.restore_state(p)
    p.write_bytes(_unchecked_bytes(state, umfc.EngineConfig(clusters=2)))
    back, _ = umfc.restore_state(p)
    _assert_states_equal(state, back)


def _array_offset(raw: bytes, name: str) -> int:
    """Where the bytes of the named array start in a snapshot file."""
    (head_len,) = struct.unpack_from("<I", raw, HEADER.size)
    entries = json.loads(raw[HEADER.size + 4 : HEADER.size + 4 + head_len])["arrays"]
    offset = HEADER.size + 4 + head_len
    for entry_name, dtype, shape in entries:
        if entry_name == name:
            return offset
        offset += 8 * int(np.prod(shape)) if dtype else 0
    raise KeyError(name)


@pytest.mark.parametrize("name", ["running_sums", "global_sum"])
def test_snapshot_whose_accumulator_has_a_flipped_exponent_is_refused(tmp_path, name):
    # the first element's top byte holds its sign and high exponent bits:
    # flipping the top exponent bit leaves it finite but scaled by about
    # 2**1024 or 2**-1024 (here to about -2e-309 in running_sums and 1.8e308
    # in global_sum), a value the next memory step would divide into a mean
    _, cfg, state = _fit_state()
    p = tmp_path / "s.state"
    umfc.snapshot_state(state, cfg, p)
    raw = bytearray(p.read_bytes())
    raw[_array_offset(raw, name) + 7] ^= 0x40
    p.write_bytes(bytes(raw))
    with pytest.raises(umfc.FormatError, match=f"array {name} does not give"):
        umfc.restore_state(p)


@pytest.mark.parametrize("case", ["no-samples", "one-more-sample", "sum-without-members"])
def test_snapshot_whose_accumulators_disagree_with_its_means_is_refused(tmp_path, case):
    _, cfg, state = _fit_state()
    if case == "sum-without-members":
        counts = state.counts.copy()
        counts[0] = 0
        state, name = dataclasses.replace(state, counts=counts), "running_sums"
    else:
        seen = 0 if case == "no-samples" else state.samples_seen + 1
        state, name = dataclasses.replace(state, samples_seen=seen), "global_sum"
    p = tmp_path / "s.state"
    p.write_bytes(_unchecked_bytes(state, cfg))
    with pytest.raises(umfc.FormatError, match=f"array {name} does not give"):
        umfc.restore_state(p)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_restore_of_a_snapshot_with_flipped_bytes_raises_only_umfc_errors(tmp_path):
    # 1-3 seeded byte flips per trial anywhere in a memory-stream snapshot:
    # restore_state either refuses the file with an UmfcError or returns a
    # state on which predict and stream_step raise nothing but UmfcError
    ds = umfc.default_benchmark()
    x = ds.images.data
    cfg = umfc.EngineConfig(clusters=3)
    _, state = umfc.run_stream(x[:300], ds.text_bank, cfg)
    p = tmp_path / "s.state"
    umfc.snapshot_state(state, cfg, p)
    clean = p.read_bytes()
    rng = np.random.default_rng(0)
    restored = 0
    for _ in range(500):
        raw = bytearray(clean)
        for at in rng.choice(len(raw), size=int(rng.integers(1, 4)), replace=False):
            raw[at] ^= int(rng.integers(1, 256))
        p.write_bytes(bytes(raw))
        try:
            back, back_cfg = umfc.restore_state(p)
        except umfc.UmfcError:
            continue
        restored += 1
        for step in (umfc.predict, umfc.stream_step):
            try:
                step(back, x[300:320], ds.text_bank, back_cfg)
            except umfc.UmfcError:
                pass
    assert 0 < restored < 500
