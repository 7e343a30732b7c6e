"""End-to-end command line checks, run in-process via cli.main."""

import ast
import dataclasses
import json
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

import umfc
from umfc import cli
from umfc.clustering import assign_batch, batch_cluster_means
from umfc.core import l2_normalize_rows


def run(*argv) -> int:
    return cli.main(list(argv))


def _read_preds(path):
    rows = []
    for line in path.read_text().splitlines():
        pid, name, prob, cluster, flags = line.split("\t")
        rows.append((pid, name, float(prob), int(cluster), flags))
    return rows


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """4 classes x 2 domains x 15 rows, dim 16, with domain anchors."""
    prefix = str(tmp_path_factory.mktemp("cli_small") / "s")
    assert run("synth", "--out-prefix", prefix, "--classes", "4", "--domains", "2",
               "--dim", "16", "--per-cell", "15", "--seed", "3", "--emit-domain-bank") == 0
    return prefix


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """The default 10x3x50 benchmark with domain anchors."""
    prefix = str(tmp_path_factory.mktemp("cli_bench") / "b")
    assert run("synth", "--out-prefix", prefix, "--emit-domain-bank") == 0
    return prefix


@pytest.fixture(scope="module")
def small_state(small, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli_state") / "s.state")
    assert run("fit", "--train", f"{small}_images.bin", "--bank", f"{small}_bank.bin",
               "--names", f"{small}_names.txt", "--out-state", path, "--clusters", "2") == 0
    return path


@pytest.fixture(scope="module")
def narrow(tmp_path_factory):
    """A 4-class bank and a 10-row matrix of dim 8, against the dim-16 `small` files."""
    prefix = str(tmp_path_factory.mktemp("cli_narrow") / "n")
    rng = np.random.default_rng(5)
    names = [f"class_{c:03d}" for c in range(4)]
    bank = umfc.TextBank(names=names, data=rng.standard_normal((4, 8)))
    umfc.write_text_bank(bank, f"{prefix}_bank.bin", f"{prefix}_names.txt")
    images = umfc.EmbeddingMatrix(data=rng.standard_normal((10, 8)))
    umfc.write_embeddings(images, f"{prefix}_images.bin")
    return prefix


def test_cli_imports_no_private_names():
    source = Path(cli.__file__).read_text(encoding="utf-8")
    checked = ("engine", "calib", "clustering", "core")
    private = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module in checked
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


# ---------------------------------------------------------------------------
# dispatch and help


def test_no_args_prints_command_list(capsys):
    assert run() == 0
    out = capsys.readouterr().out
    for cmd in cli._COMMANDS:
        assert cmd in out


def test_unknown_command():
    assert run("frobnicate") == 1


@pytest.mark.parametrize("cmd", sorted(cli._COMMANDS))
def test_subcommand_help_documents_defaults(cmd, capsys):
    with pytest.raises(SystemExit) as ex:
        run(cmd, "--help")
    assert ex.value.code == 0
    out = capsys.readouterr().out
    assert "default" in out
    assert "UMFC_" in out  # every tunable names its env override


def _tunable_defaults(cmd):
    """The tunable flags of a subcommand and the default each must show."""
    engine = {"--" + f.name.replace("_", "-"): getattr(umfc.EngineConfig(), f.name)
              for f in dataclasses.fields(umfc.EngineConfig)}
    spec = umfc.SynthSpec()
    return {
        "fit": engine,
        "predict": {"--tau": None},
        "transduce": engine,
        "stream": engine,
        "synth": {flag: getattr(spec, field) for flag, field, _ in cli._SYNTH_FLAGS},
        "diagnose": {"--tau": None, "--per-cell": 50, "--seed": 0},
        "sweep": engine,
    }[cmd]


@pytest.mark.parametrize("cmd", sorted(cli._COMMANDS))
def test_help_shows_each_tunable_default_once(cmd, capsys, monkeypatch):
    for name in [k for k in os.environ if k.startswith("UMFC_")]:
        monkeypatch.delenv(name)
    with pytest.raises(SystemExit):
        run(cmd, "--help")
    # one entry per option, its wrapped lines joined
    entries = {block.split()[0]: " ".join(block.split())
               for block in re.split(r"\n(?=  -)", capsys.readouterr().out)
               if block.startswith("  --")}
    tunables = {flag: text for flag, text in entries.items() if "env: UMFC_" in text}
    defaults = _tunable_defaults(cmd)
    assert sorted(tunables) == sorted(defaults)
    for flag, text in tunables.items():
        assert text.count("default:") == 1, text
        assert f"(default: {defaults[flag]}; env: {cli._env_name(flag)})" in text, text


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_expected_files(small, tmp_path):
    import pathlib

    for suffix in ("_images.bin", "_images.bin.labels", "_bank.bin", "_names.txt",
                   "_domains.bin", "_domain_names.txt"):
        assert pathlib.Path(small + suffix).exists(), suffix
    names = umfc.read_names(f"{small}_names.txt", expected=4)
    assert len(set(names)) == 4


def test_synth_byte_identical_reruns(small, tmp_path):
    import pathlib

    other = str(tmp_path / "t")
    assert run("synth", "--out-prefix", other, "--classes", "4", "--domains", "2",
               "--dim", "16", "--per-cell", "15", "--seed", "3", "--emit-domain-bank") == 0
    for suffix in ("_images.bin", "_images.bin.labels", "_bank.bin", "_names.txt", "_domains.bin"):
        assert pathlib.Path(other + suffix).read_bytes() == pathlib.Path(small + suffix).read_bytes()


def test_synth_dim_too_small(tmp_path):
    assert run("synth", "--out-prefix", str(tmp_path / "x"), "--classes", "10",
               "--domains", "3", "--dim", "4") == 1


# ---------------------------------------------------------------------------
# fit / predict


def test_fit_reports_cluster_sizes(small, tmp_path, capsys):
    out = str(tmp_path / "f.state")
    assert run("fit", "--train", f"{small}_images.bin", "--bank", f"{small}_bank.bin",
               "--names", f"{small}_names.txt", "--out-state", out, "--clusters", "2") == 0
    err = capsys.readouterr().err
    assert "-> 2 clusters" in err
    assert "cluster 0: size" in err and "cluster 1: size" in err


def test_fit_too_few_samples(small, tmp_path):
    # 120 rows cannot seed 200 clusters
    assert run("fit", "--train", f"{small}_images.bin", "--bank", f"{small}_bank.bin",
               "--names", f"{small}_names.txt", "--out-state", str(tmp_path / "x"),
               "--clusters", "200") == 2


def test_missing_input_file(tmp_path):
    assert run("fit", "--train", str(tmp_path / "nope.bin"), "--bank", str(tmp_path / "nope2.bin"),
               "--names", str(tmp_path / "nope3.txt"), "--out-state", str(tmp_path / "x")) == 2


def test_predict_matches_library_route(small, small_state, tmp_path):
    out = tmp_path / "preds.tsv"
    assert run("predict", "--state", small_state, "--test", f"{small}_images.bin",
               "--bank", f"{small}_bank.bin", "--names", f"{small}_names.txt",
               "--out", str(out)) == 0
    rows = _read_preds(out)
    assert len(rows) == 120

    test = umfc.read_embeddings(f"{small}_images.bin")
    bank = umfc.read_text_bank(f"{small}_bank.bin", f"{small}_names.txt")
    cfg = umfc.EngineConfig(clusters=2)
    state = umfc.fit_unsupervised(test, bank, cfg)
    preds = umfc.predict(state, test, bank, cfg)
    for (pid, name, prob, cluster, flags), p in zip(rows, preds):
        assert name == bank.names[p.label]
        assert cluster == p.cluster
        assert np.isclose(prob, p.probs[p.label], rtol=0, atol=1e-9)


def test_predict_rejects_zero_tau(small, small_state, tmp_path):
    assert run("predict", "--state", small_state, "--test", f"{small}_images.bin",
               "--bank", f"{small}_bank.bin", "--names", f"{small}_names.txt",
               "--out", str(tmp_path / "p.tsv"), "--tau", "0") == 1


def test_predict_from_snapshot_with_normalize_shifts_off(small, small_state, tmp_path):
    # snapshots written before the normalize_shifts switch was removed
    # carry it, off by default; they restore and predict as they did
    raw = Path(small_state).read_bytes()
    (head_len,) = struct.unpack_from("<I", raw, 20)
    manifest = json.loads(raw[24 : 24 + head_len])
    assert "normalize_shifts" not in manifest["config"]
    manifest["config"]["normalize_shifts"] = False
    head = json.dumps(manifest, sort_keys=True).encode()
    payload = struct.pack("<I", len(head)) + head + raw[24 + head_len :]
    old = tmp_path / "old.state"
    old.write_bytes(raw[:8] + struct.pack("<I", len(payload)) + raw[12:20] + payload)
    files = ["--test", f"{small}_images.bin", "--bank", f"{small}_bank.bin",
             "--names", f"{small}_names.txt"]
    assert run("predict", "--state", small_state, *files, "--out", str(tmp_path / "new.tsv")) == 0
    assert run("predict", "--state", str(old), *files, "--out", str(tmp_path / "old.tsv")) == 0
    assert (tmp_path / "old.tsv").read_bytes() == (tmp_path / "new.tsv").read_bytes()


def test_predict_rejects_embedding_file_as_state(small, tmp_path):
    assert run("predict", "--state", f"{small}_images.bin", "--test", f"{small}_images.bin",
               "--bank", f"{small}_bank.bin", "--names", f"{small}_names.txt",
               "--out", str(tmp_path / "p.tsv")) == 2


def test_predict_empty_test_writes_empty_file(small, small_state, tmp_path):
    empty = tmp_path / "empty.bin"
    umfc.write_embeddings(umfc.EmbeddingMatrix(data=np.empty((0, 16))), empty)
    out = tmp_path / "p.tsv"
    assert run("predict", "--state", small_state, "--test", str(empty),
               "--bank", f"{small}_bank.bin", "--names", f"{small}_names.txt",
               "--out", str(out)) == 0
    assert out.read_bytes() == b""


def test_predict_dimension_mismatch_is_data_error(small, small_state, narrow, tmp_path, capsys):
    assert run("predict", "--state", small_state, "--test", f"{narrow}_images.bin",
               "--bank", f"{small}_bank.bin", "--names", f"{small}_names.txt",
               "--out", str(tmp_path / "p.tsv")) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["predict"], ["diagnose", "--which", "hist"]],
                         ids=["predict", "hist"])
def test_state_dimension_mismatch_with_degenerate_row_is_data_error(
        small, small_state, tmp_path, capsys, command):
    # the rows are normalized in place after the dimension check, so a
    # zero row of the wrong dimension is a data error, not a degeneracy
    rows = np.random.default_rng(6).standard_normal((10, 8))
    rows[3] = 0.0
    wrong = tmp_path / "wrong.bin"
    umfc.write_embeddings(umfc.EmbeddingMatrix(data=rows), wrong)
    assert run(*command, "--state", small_state, "--test", str(wrong),
               "--bank", f"{small}_bank.bin", "--names", f"{small}_names.txt",
               "--out", str(tmp_path / "p.tsv")) == 2
    assert "data error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# transduce


def test_transduce_report_matches_library_table(small, tmp_path):
    out, report = tmp_path / "p.tsv", tmp_path / "r.tsv"
    assert run("transduce", "--test", f"{small}_images.bin", "--bank", f"{small}_bank.bin",
               "--names", f"{small}_names.txt", "--out", str(out), "--report", str(report),
               "--clusters", "2") == 0
    test = umfc.read_embeddings(f"{small}_images.bin")
    bank = umfc.read_text_bank(f"{small}_bank.bin", f"{small}_names.txt")
    preds, _ = umfc.transduce(test, bank, umfc.EngineConfig(clusters=2))
    table = umfc.per_domain_accuracy(preds, test.class_labels, test.domain_labels)
    assert report.read_text() == table.to_tsv()
    got = [r[1] for r in _read_preds(out)]
    assert got == [bank.names[p.label] for p in preds]


def test_transduce_report_needs_labels(small, tmp_path):
    bare = tmp_path / "bare.bin"
    data = umfc.read_embeddings(f"{small}_images.bin").data
    umfc.write_embeddings(umfc.EmbeddingMatrix(data=data), bare)
    assert run("transduce", "--test", str(bare), "--bank", f"{small}_bank.bin",
               "--names", f"{small}_names.txt", "--out", str(tmp_path / "p.tsv"),
               "--report", str(tmp_path / "r.tsv")) == 2


def test_transduce_dimension_mismatch_is_data_error(small, narrow, tmp_path, capsys):
    assert run("transduce", "--test", f"{small}_images.bin", "--bank", f"{narrow}_bank.bin",
               "--names", f"{narrow}_names.txt", "--out", str(tmp_path / "p.tsv"),
               "--clusters", "2") == 2
    assert "data error" in capsys.readouterr().err


def test_transduce_single_cluster_runs(small, tmp_path):
    report = tmp_path / "r.tsv"
    assert run("transduce", "--test", f"{small}_images.bin", "--bank", f"{small}_bank.bin",
               "--names", f"{small}_names.txt", "--out", str(tmp_path / "p.tsv"),
               "--report", str(report), "--clusters", "1") == 0
    assert "overall_macro" in report.read_text()


def test_transduce_deterministic_output(small, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.tsv"
        assert run("transduce", "--test", f"{small}_images.bin", "--bank", f"{small}_bank.bin",
                   "--names", f"{small}_names.txt", "--out", str(out), "--clusters", "2") == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_transduce_csv_input_matches_binary(small, tmp_path):
    umfc.write_embeddings_csv(umfc.read_embeddings(f"{small}_images.bin"), tmp_path / "i.csv")
    outs = []
    for test in (f"{small}_images.bin", str(tmp_path / "i.csv")):
        out = tmp_path / f"{len(outs)}.tsv"
        assert run("transduce", "--test", test, "--bank", f"{small}_bank.bin",
                   "--names", f"{small}_names.txt", "--out", str(out), "--clusters", "2") == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# stream


def test_stream_one_big_batch_equals_transduce(small, tmp_path):
    t_out, s_out = tmp_path / "t.tsv", tmp_path / "s.tsv"
    base = ["--test", f"{small}_images.bin", "--bank", f"{small}_bank.bin",
            "--names", f"{small}_names.txt", "--clusters", "2"]
    assert run("transduce", *base, "--out", str(t_out)) == 0
    assert run("stream", *base, "--out", str(s_out), "--batch-size", "120") == 0
    assert s_out.read_bytes() == t_out.read_bytes()


def test_stream_bs1_flags_first_seeds_uncalibrated(small, tmp_path):
    out = tmp_path / "s.tsv"
    assert run("stream", "--test", f"{small}_images.bin", "--bank", f"{small}_bank.bin",
               "--names", f"{small}_names.txt", "--out", str(out),
               "--clusters", "3", "--batch-size", "1") == 0
    rows = _read_preds(out)
    assert len(rows) == 120
    for pid, name, prob, cluster, flags in rows[:3]:
        assert "uncalibrated" in flags
        assert cluster == -1
    for pid, name, prob, cluster, flags in rows[3:]:
        assert "uncalibrated" not in flags
        assert cluster >= 0


def test_stream_snapshots_and_ema_replacement(small, tmp_path):
    """With eta=1 each update replaces a present cluster's prototype with
    that batch's cluster mean; per-batch snapshots let us check it."""
    out_state = tmp_path / "s.state"
    assert run("stream", "--test", f"{small}_images.bin", "--bank", f"{small}_bank.bin",
               "--names", f"{small}_names.txt", "--out", str(tmp_path / "p.tsv"),
               "--out-state", str(out_state), "--snapshot-every", "1",
               "--clusters", "2", "--batch-size", "40", "--mode", "ema", "--eta", "1.0") == 0
    snaps = [tmp_path / f"s.state.batch{n:05d}" for n in (1, 2, 3)]
    for s in snaps:
        assert s.exists()
    assert out_state.read_bytes() == snaps[-1].read_bytes()

    x_all = l2_normalize_rows(umfc.read_embeddings(f"{small}_images.bin").data)
    for n in (2, 3):
        prev, _ = umfc.restore_state(snaps[n - 2])
        cur, _ = umfc.restore_state(snaps[n - 1])
        xb = x_all[(n - 1) * 40 : n * 40]
        labels = assign_batch(prev.centroids, xb)
        means, counts = batch_cluster_means(xb, labels, 2)
        present = counts > 0
        assert np.array_equal(cur.centroids[present], means[present])
        assert np.array_equal(cur.centroids[~present], prev.centroids[~present])


@pytest.mark.parametrize("batch_size", ["1", "100"])
def test_stream_dimension_mismatch_is_data_error(small, narrow, tmp_path, capsys, batch_size):
    # batch size 1 fails in the zero-shot cold start, 100 in text calibration
    assert run("stream", "--test", f"{small}_images.bin", "--bank", f"{narrow}_bank.bin",
               "--names", f"{narrow}_names.txt", "--out", str(tmp_path / "p.tsv"),
               "--clusters", "2", "--batch-size", batch_size) == 2
    assert "data error" in capsys.readouterr().err


def test_stream_empty_test_writes_empty_file(small, tmp_path):
    empty = tmp_path / "empty.bin"
    umfc.write_embeddings(umfc.EmbeddingMatrix(data=np.empty((0, 16))), empty)
    out = tmp_path / "p.tsv"
    assert run("stream", "--test", str(empty), "--bank", f"{small}_bank.bin",
               "--names", f"{small}_names.txt", "--out", str(out)) == 0
    assert out.read_bytes() == b""


def test_stream_snapshot_every_requires_out_state(small, tmp_path):
    assert run("stream", "--test", f"{small}_images.bin", "--bank", f"{small}_bank.bin",
               "--names", f"{small}_names.txt", "--out", str(tmp_path / "p.tsv"),
               "--snapshot-every", "2") == 1


def test_stream_negative_snapshot_every_is_usage_error(small, tmp_path, capsys):
    assert run("stream", "--test", f"{small}_images.bin", "--bank", f"{small}_bank.bin",
               "--names", f"{small}_names.txt", "--out", str(tmp_path / "p.tsv"),
               "--out-state", str(tmp_path / "s.state"), "--snapshot-every", "-1") == 1
    assert "usage error: --snapshot-every" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def bootstrap_snapshot(small, tmp_path_factory):
    """The snapshot after one row of a 3-cluster stream: still bootstrapping."""
    out = tmp_path_factory.mktemp("cli_bootstrap")
    assert run("stream", "--test", f"{small}_images.bin", "--bank", f"{small}_bank.bin",
               "--names", f"{small}_names.txt", "--out", str(out / "p.tsv"),
               "--out-state", str(out / "s.state"), "--batch-size", "1", "--clusters", "3",
               "--snapshot-every", "1") == 0
    return str(out / "s.state.batch00001")


@pytest.mark.parametrize("command, message", [
    (["predict", "--test", "{small}_images.bin"], "state has no fitted model"),
    (["diagnose", "--which", "probe", "--domain-bank", "{small}_domains.bin"],
     "state has no calibration"),
], ids=["predict", "probe"])
def test_bootstrapping_snapshot_is_data_error(small, bootstrap_snapshot, tmp_path, capsys,
                                              command, message):
    args = [a.format(small=small) for a in command]
    assert run(*args, "--state", bootstrap_snapshot, "--bank", f"{small}_bank.bin",
               "--names", f"{small}_names.txt", "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and message in err


# ---------------------------------------------------------------------------
# diagnose


def _aggregate_from_probe_csv(path):
    last = path.read_text().splitlines()[-1].split(",")
    assert last[0] == "aggregate"
    return np.array([float(v) for v in last[1:]])


def test_diagnose_probe_kl_drops_after_calibration(bench, tmp_path):
    state = tmp_path / "b.state"
    assert run("fit", "--train", f"{bench}_images.bin", "--bank", f"{bench}_bank.bin",
               "--names", f"{bench}_names.txt", "--out-state", str(state), "--clusters", "3") == 0
    raw_csv, cal_csv = tmp_path / "raw.csv", tmp_path / "cal.csv"
    base = ["diagnose", "--which", "probe", "--bank", f"{bench}_bank.bin",
            "--names", f"{bench}_names.txt", "--domain-bank", f"{bench}_domains.bin"]
    assert run(*base, "--out", str(raw_csv)) == 0
    assert run(*base, "--out", str(cal_csv), "--state", str(state)) == 0
    kl_raw = umfc.kl_to_uniform(_aggregate_from_probe_csv(raw_csv))
    kl_cal = umfc.kl_to_uniform(_aggregate_from_probe_csv(cal_csv))
    assert kl_cal < kl_raw


def test_diagnose_direction_noiseless_matches_storage_precision(tmp_path, capsys):
    # noiseless directions are exact in memory; through files they are
    # exact up to the container's 32-bit storage
    prefix = str(tmp_path / "n")
    assert run("synth", "--out-prefix", prefix, "--classes", "4", "--domains", "2",
               "--dim", "16", "--per-cell", "10", "--noise", "0", "--emit-domain-bank") == 0
    out = tmp_path / "d.tsv"
    assert run("diagnose", "--which", "direction", "--test", f"{prefix}_images.bin",
               "--domain-bank", f"{prefix}_domains.bin", "--out", str(out)) == 0
    assert "min off-diagonal cosine" in capsys.readouterr().err
    cells = [float(line.split("\t")[2]) for line in out.read_text().splitlines()[1:]]
    assert len(cells) == 2  # ordered pairs of 2 domains
    assert min(cells) >= 1.0 - 1e-4


def test_diagnose_direction_with_one_domain_is_data_error(tmp_path, capsys):
    # a domain bank of one anchor has no pair of domains to compare
    prefix = str(tmp_path / "one")
    assert run("synth", "--out-prefix", prefix, "--domains", "1", "--emit-domain-bank") == 0
    assert run("diagnose", "--which", "direction", "--test", f"{prefix}_images.bin",
               "--domain-bank", f"{prefix}_domains.bin", "--out", str(tmp_path / "d.tsv")) == 2
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "d.tsv").exists()


@pytest.mark.parametrize("which", ["probe", "direction"])
def test_diagnose_anchor_dimension_mismatch_is_data_error(small, narrow, tmp_path, capsys, which):
    # one dim-8 anchor per domain of the dim-16 bank (probe) and test matrix (direction)
    anchors = tmp_path / "anchors.bin"
    narrow_rows = umfc.read_embeddings(f"{narrow}_images.bin").data
    umfc.write_embeddings(umfc.EmbeddingMatrix(data=narrow_rows[:2]), anchors)
    inputs = {"probe": ["--bank", f"{small}_bank.bin", "--names", f"{small}_names.txt"],
              "direction": ["--test", f"{small}_images.bin"]}[which]
    assert run("diagnose", "--which", which, *inputs, "--domain-bank", str(anchors),
               "--out", str(tmp_path / "d.out")) == 2
    assert "data error" in capsys.readouterr().err


def test_diagnose_balance_shortfall_still_succeeds(small, tmp_path, capsys):
    out = tmp_path / "b.tsv"
    assert run("diagnose", "--which", "balance", "--test", f"{small}_images.bin",
               "--out", str(out), "--per-cell", "100") == 0
    err = capsys.readouterr().err
    assert "short cell" in err
    assert len(out.read_text().splitlines()) == 120  # every row selected


def test_diagnose_balance_refuses_absent_labels(small, tmp_path):
    # -1 marks a row without a class; it is not a class of its own
    test = umfc.read_embeddings(f"{small}_images.bin")
    test.class_labels[::50] = -1
    holes = tmp_path / "holes.bin"
    umfc.write_embeddings(test, holes)
    assert run("diagnose", "--which", "balance", "--test", str(holes),
               "--out", str(tmp_path / "b.tsv"), "--per-cell", "10") == 2
    assert not (tmp_path / "b.tsv").exists()


def test_diagnose_hist_counts_sum(small, small_state, tmp_path):
    out = tmp_path / "h.tsv"
    base = ["diagnose", "--which", "hist", "--test", f"{small}_images.bin",
            "--bank", f"{small}_bank.bin", "--names", f"{small}_names.txt"]
    assert run(*base, "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "class\tcount"
    assert sum(int(l.split("\t")[1]) for l in lines[1:]) == 120
    assert run(*base, "--out", str(out), "--state", small_state) == 0
    lines = out.read_text().splitlines()
    assert sum(int(l.split("\t")[1]) for l in lines[1:]) == 120


@pytest.mark.parametrize("which", ["hist", "probe"])
def test_diagnose_rejects_zero_tau(small, tmp_path, which, capsys):
    assert run("diagnose", "--which", which, "--test", f"{small}_images.bin",
               "--bank", f"{small}_bank.bin", "--names", f"{small}_names.txt",
               "--domain-bank", f"{small}_domains.bin", "--out", str(tmp_path / "x"),
               "--tau", "0") == 1
    assert "tau must be finite and > 0" in capsys.readouterr().err


def test_diagnose_hist_empty_file_counts_zero(small, tmp_path):
    empty = tmp_path / "empty.bin"
    umfc.write_embeddings(umfc.EmbeddingMatrix(data=np.empty((0, 16))), empty)
    out = tmp_path / "h.tsv"
    assert run("diagnose", "--which", "hist", "--test", str(empty), "--bank", f"{small}_bank.bin",
               "--names", f"{small}_names.txt", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "class\tcount" and len(lines) == 5
    assert all(line.split("\t")[1] == "0" for line in lines[1:])


def test_diagnose_missing_required_flag(small, tmp_path):
    assert run("diagnose", "--which", "probe", "--bank", f"{small}_bank.bin",
               "--names", f"{small}_names.txt", "--out", str(tmp_path / "x.csv")) == 1


# ---------------------------------------------------------------------------
# sweep


def test_sweep_single_value_matches_single_run(bench, tmp_path):
    sweep_out, report = tmp_path / "s.tsv", tmp_path / "r.tsv"
    assert run("sweep", "--param", "clusters", "--values", "3",
               "--test", f"{bench}_images.bin", "--bank", f"{bench}_bank.bin",
               "--names", f"{bench}_names.txt", "--out", str(sweep_out)) == 0
    assert run("transduce", "--test", f"{bench}_images.bin", "--bank", f"{bench}_bank.bin",
               "--names", f"{bench}_names.txt", "--out", str(tmp_path / "p.tsv"),
               "--report", str(report), "--clusters", "3") == 0
    srow = sweep_out.read_text().splitlines()[1].split("\t")
    assert srow[:2] == ["clusters", "3"]
    rlines = [l.split("\t") for l in report.read_text().splitlines()]
    per_domain = [r[3] for r in rlines[1:-1]]
    overall = rlines[-1][3]
    assert srow[2] == overall
    assert srow[3:] == per_domain


def test_sweep_more_clusters_not_worse(bench, tmp_path):
    out = tmp_path / "s.tsv"
    assert run("sweep", "--param", "clusters", "--values", "1,3",
               "--test", f"{bench}_images.bin", "--bank", f"{bench}_bank.bin",
               "--names", f"{bench}_names.txt", "--out", str(out)) == 0
    rows = [l.split("\t") for l in out.read_text().splitlines()[1:]]
    acc = {r[1]: float(r[2]) for r in rows}
    assert acc["3"] >= acc["1"]


def test_sweep_unknown_param(bench, tmp_path):
    assert run("sweep", "--param", "tau", "--values", "1",
               "--test", f"{bench}_images.bin", "--bank", f"{bench}_bank.bin",
               "--names", f"{bench}_names.txt", "--out", str(tmp_path / "s.tsv")) == 1


def test_sweep_needs_labels(small, tmp_path):
    bare = tmp_path / "bare.bin"
    data = umfc.read_embeddings(f"{small}_images.bin").data
    umfc.write_embeddings(umfc.EmbeddingMatrix(data=data), bare)
    assert run("sweep", "--param", "clusters", "--values", "2",
               "--test", str(bare), "--bank", f"{small}_bank.bin",
               "--names", f"{small}_names.txt", "--out", str(tmp_path / "s.tsv")) == 2


@pytest.mark.parametrize("param, values", [
    ("clusters", "a,b"), ("clusters", ","), ("clusters", "0"), ("eta", "1.5"),
])
def test_sweep_bad_values_are_usage_errors(small, tmp_path, capsys, param, values):
    assert run("sweep", "--param", param, "--values", values,
               "--test", f"{small}_images.bin", "--bank", f"{small}_bank.bin",
               "--names", f"{small}_names.txt", "--out", str(tmp_path / "s.tsv")) == 1
    assert capsys.readouterr().err.startswith("usage error: --values: ")
    assert not (tmp_path / "s.tsv").exists()


@pytest.mark.parametrize("param, values", [("clusters", "2"), ("batch-size", "7"), ("eta", "0.5")])
def test_sweep_bank_dimension_mismatch_is_data_error(small, narrow, tmp_path, capsys, param, values):
    assert run("sweep", "--param", param, "--values", values,
               "--test", f"{small}_images.bin", "--bank", f"{narrow}_bank.bin",
               "--names", f"{narrow}_names.txt", "--out", str(tmp_path / "s.tsv")) == 2
    assert capsys.readouterr().err.startswith("data error: ")
    assert not (tmp_path / "s.tsv").exists()


# ---------------------------------------------------------------------------
# flag resolution


def test_env_supplies_default_flag_wins(small, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("UMFC_CLUSTERS", "2")
    assert run("fit", "--train", f"{small}_images.bin", "--bank", f"{small}_bank.bin",
               "--names", f"{small}_names.txt", "--out-state", str(tmp_path / "a.state")) == 0
    assert "-> 2 clusters" in capsys.readouterr().err
    assert run("fit", "--train", f"{small}_images.bin", "--bank", f"{small}_bank.bin",
               "--names", f"{small}_names.txt", "--out-state", str(tmp_path / "b.state"),
               "--clusters", "3") == 0
    assert "-> 3 clusters" in capsys.readouterr().err


def test_env_bad_value_is_usage_error(small, tmp_path, capsys, monkeypatch):
    args = ["fit", "--train", f"{small}_images.bin", "--bank", f"{small}_bank.bin",
            "--names", f"{small}_names.txt", "--out-state"]
    for env, value, flag in [("UMFC_CLUSTERS", "lots", "--clusters"),
                             ("UMFC_NORMALIZE_INPUT", "maybe", "--normalize-input"),
                             ("UMFC_TAU", "hot", "--tau")]:
        monkeypatch.setenv(env, value)
        assert run(*args, str(tmp_path / "x.state")) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and flag in err and repr(value) in err
        assert not (tmp_path / "x.state").exists()
        # argparse converts the variable only when the flag is not given
        ok = str(tmp_path / f"{env}.state")
        assert run(*args, ok, flag, "3" if flag == "--clusters" else "1") == 0
        capsys.readouterr()
        monkeypatch.delenv(env)


def test_bool_flag_values(small, tmp_path, monkeypatch):
    base = ["transduce", "--test", f"{small}_images.bin", "--bank", f"{small}_bank.bin",
            "--names", f"{small}_names.txt", "--clusters", "2", "--out"]
    assert run(*base, str(tmp_path / "p.tsv"), "--normalize-input", "off") == 0
    assert run(*base, str(tmp_path / "p.tsv"), "--normalize-input", "maybe") == 1
    # the environment takes the same spellings
    assert run(*base, str(tmp_path / "flag.tsv"), "--normalize-input", "0") == 0
    monkeypatch.setenv("UMFC_NORMALIZE_INPUT", "off")
    assert run(*base, str(tmp_path / "env.tsv")) == 0
    assert (tmp_path / "env.tsv").read_bytes() == (tmp_path / "flag.tsv").read_bytes()


def test_negative_seed_is_usage_error_naming_seed(small, tmp_path, capsys):
    assert run("transduce", "--test", f"{small}_images.bin", "--bank", f"{small}_bank.bin",
               "--names", f"{small}_names.txt", "--out", str(tmp_path / "p.tsv"),
               "--seed", "-1") == 1
    assert "usage error: seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "p.tsv").exists()


def test_removed_normalize_shifts_flag_is_usage_error(small, tmp_path):
    assert run("transduce", "--test", f"{small}_images.bin", "--bank", f"{small}_bank.bin",
               "--names", f"{small}_names.txt", "--out", str(tmp_path / "p.tsv"),
               "--normalize-shifts", "1") == 1
    assert not (tmp_path / "p.tsv").exists()


@pytest.mark.parametrize("flag", ["--max-iters", "--tol", "--micro"])
def test_removed_clustering_limit_flags_are_usage_errors(small, tmp_path, monkeypatch, flag):
    # the flags are gone; their environment variables are ignored
    args = ["transduce", "--test", f"{small}_images.bin", "--bank", f"{small}_bank.bin",
            "--names", f"{small}_names.txt", "--out", str(tmp_path / "p.tsv")]
    assert run(*args, flag, "5") == 1
    assert not (tmp_path / "p.tsv").exists()
    monkeypatch.setenv(cli._env_name(flag), "nonsense")
    assert run(*args) == 0


@pytest.mark.parametrize("rows", [0, 1])
def test_bank_of_fewer_than_two_rows_is_data_error(small, tmp_path, capsys, rows):
    bank = umfc.read_text_bank(f"{small}_bank.bin", f"{small}_names.txt")
    umfc.write_embeddings(umfc.EmbeddingMatrix(data=bank.data[:rows]), tmp_path / "b.bin",
                          kind=umfc.io.KIND_TEXT)
    (tmp_path / "n.txt").write_text("".join(name + "\n" for name in bank.names[:rows]))
    assert run("transduce", "--test", f"{small}_images.bin", "--bank", str(tmp_path / "b.bin"),
               "--names", str(tmp_path / "n.txt"), "--out", str(tmp_path / "p.tsv")) == 2
    assert "at least two classes" in capsys.readouterr().err


@pytest.mark.parametrize("normalize", ["1", "0"])
def test_fit_state_byte_identical_to_library_route(small, tmp_path, normalize):
    # the command normalizes the rows it read in place; the state it
    # writes must still carry the config as given
    out = tmp_path / "cli.state"
    assert run("fit", "--train", f"{small}_images.bin", "--bank", f"{small}_bank.bin",
               "--names", f"{small}_names.txt", "--out-state", str(out), "--clusters", "2",
               "--normalize-input", normalize) == 0
    cfg = umfc.EngineConfig(clusters=2, normalize_input=normalize == "1")
    train = umfc.read_embeddings(f"{small}_images.bin")
    bank = umfc.read_text_bank(f"{small}_bank.bin", f"{small}_names.txt")
    state = umfc.fit_unsupervised(train, bank, cfg)
    umfc.snapshot_state(state, cfg, tmp_path / "lib.state")
    assert out.read_bytes() == (tmp_path / "lib.state").read_bytes()


def test_transduce_zero_row_is_degeneracy(tmp_path, capsys):
    images = umfc.EmbeddingMatrix(data=np.vstack([np.eye(4), np.zeros((1, 4))]))
    umfc.write_embeddings(images, tmp_path / "i.bin")
    bank = umfc.TextBank(names=["a", "b"], data=np.eye(4)[:2])
    umfc.write_text_bank(bank, tmp_path / "b.bin", tmp_path / "n.txt")
    assert run("transduce", "--test", str(tmp_path / "i.bin"), "--bank", str(tmp_path / "b.bin"),
               "--names", str(tmp_path / "n.txt"), "--out", str(tmp_path / "p.tsv"),
               "--clusters", "2") == 3
    assert "row 4 has norm" in capsys.readouterr().err


def test_stream_zero_row_is_degeneracy_before_any_snapshot(tmp_path, capsys):
    # the command normalizes every row it read before the first batch, so
    # a zero row in the last batch leaves no snapshot and no predictions
    images = umfc.EmbeddingMatrix(data=np.vstack([np.eye(4), np.zeros((1, 4))]))
    umfc.write_embeddings(images, tmp_path / "i.bin")
    bank = umfc.TextBank(names=["a", "b"], data=np.eye(4)[:2])
    umfc.write_text_bank(bank, tmp_path / "b.bin", tmp_path / "n.txt")
    assert run("stream", "--test", str(tmp_path / "i.bin"), "--bank", str(tmp_path / "b.bin"),
               "--names", str(tmp_path / "n.txt"), "--out", str(tmp_path / "p.tsv"),
               "--clusters", "2", "--batch-size", "2", "--snapshot-every", "1",
               "--out-state", str(tmp_path / "s.state")) == 3
    assert "row 4 has norm" in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["b.bin", "i.bin", "n.txt"]
