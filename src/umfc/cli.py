"""Command line driver.

Subcommands: fit, predict, transduce, stream, synth, diagnose, sweep.
Every tunable flag can also be set through an environment variable named
UMFC_<FLAG> (dashes become underscores, e.g. UMFC_BATCH_SIZE): when set,
its value is the flag's argparse default, which argparse converts with
the flag's type only when the flag is not given.  So an explicit flag
always wins, even over a malformed variable, and a malformed value is a
usage error naming the flag.  Progress and reports go to stderr; data
goes to the files named by flags, never anywhere else.

Exit codes: 0 success, 1 usage error, 2 unreadable/invalid data,
3 numerical degeneracy.
"""

import argparse
import os
import sys
from dataclasses import fields, replace
from typing import List, Optional

import numpy as np

from . import io as uio
from .calib import calibrate_bank, classify_batch
from .core import EmbeddingMatrix, Predictions, TextBank, l2_normalize_rows, row_blocks
from .diagnostics import (
    balanced_subsample,
    domain_bias_probe,
    kl_to_uniform,
    per_domain_accuracy,
    prediction_histogram,
    transition_direction_check,
)
from .engine import (
    EngineConfig,
    fit_unsupervised,
    predict,
    run_stream,
    transduce,
)
from .errors import (
    AllShiftsDegenerate,
    DegenerateVector,
    DimensionMismatch,
    DimensionTooSmall,
    FormatError,
    MissingLabels,
    UmfcError,
)
from .synth import SynthSpec, generate_benchmark, pairwise_directions

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DEGENERATE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _env_name(flag: str) -> str:
    return "UMFC_" + flag.lstrip("-").replace("-", "_").upper()


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean (0/1), got {raw!r}")


def _tunable(parser, flag: str, type_, default, help_) -> None:
    """Declare a flag whose default is its UMFC_<FLAG> variable when set."""
    env = _env_name(flag)
    parser.add_argument(
        flag,
        type=type_,
        default=os.environ.get(env, default),
        help=f"{help_} (default: %(default)s; env: {env})",
    )


def _engine_flags(parser) -> None:
    d = EngineConfig()
    _tunable(parser, "--clusters", int, d.clusters, "number of cluster means")
    _tunable(parser, "--tau", float, d.tau, "softmax temperature")
    _tunable(parser, "--eta", float, d.eta, "moving-average rate (ema mode)")
    _tunable(parser, "--mode", str, d.mode, "streaming statistics: memory or ema")
    _tunable(parser, "--batch-size", int, d.batch_size, "streaming batch size")
    _tunable(parser, "--seed", int, d.seed, "PRNG seed for clustering")
    _tunable(parser, "--normalize-input", _parse_bool, d.normalize_input,
             "L2-normalize feature rows at ingestion")


def _config_from(args) -> EngineConfig:
    return EngineConfig(**{f.name: getattr(args, f.name) for f in fields(EngineConfig)})


def _load_matrix(path) -> EmbeddingMatrix:
    if str(path).endswith(".csv"):
        return uio.read_embeddings_csv(path)
    return uio.read_embeddings(path)


def _normalize_loaded(matrix: EmbeddingMatrix, cfg: EngineConfig) -> EngineConfig:
    """Normalize the rows of a matrix this command loaded, in place, and
    return the config for the engine to take them as they are.

    The engine would normalize the same rows with the same function into
    a copy; doing it here keeps one float64 copy of the input alive.
    """
    if not cfg.normalize_input:
        return cfg
    l2_normalize_rows(matrix.data, out=matrix.data)
    return replace(cfg, normalize_input=False)


def _predict_loaded(state_path, tau, test: EmbeddingMatrix, bank: TextBank) -> Predictions:
    """Top-1 predictions of a matrix this command loaded against the
    state in state_path, under its stored tau unless tau is given.  The
    rows are normalized in place after the dimension check, so a row of
    the wrong dimension is a data error even when it is also degenerate.
    """
    state, cfg = uio.restore_state(state_path)
    if state.centroids is None:
        raise FormatError(f"{state_path}: state has no fitted model to predict with")
    if tau is not None:
        try:
            cfg = replace(cfg, tau=tau)
        except ValueError:
            raise UsageError(f"--tau: must be finite and > 0, got {tau}") from None
    dim = state.centroids.shape[1]
    if test.n and test.dim != dim:
        raise DimensionMismatch(f"rows of dim {test.dim} against a state of dim {dim}")
    cfg = _normalize_loaded(test, cfg)
    return predict(state, test, bank, cfg, keep_probs=False)


def _write_predictions(path, preds: Predictions, ids, names) -> None:
    top = preds.top.tolist()
    # the flags column spells each distinct bitmask once, from its first row
    codes, first = np.unique(preds.flags, return_index=True)
    flag_text = {c: ",".join(preds[i].flags) or "-" for c, i in zip(codes.tolist(), first.tolist())}
    lines = [
        f"{pid}\t{names[label]}\t{prob:.9f}\t{cluster}\t{flag_text[code]}"
        for pid, label, prob, cluster, code in zip(
            ids, preds.labels.tolist(), top, preds.clusters.tolist(), preds.flags.tolist()
        )
    ]
    body = ("\n".join(lines) + "\n") if lines else ""
    uio._atomic_write(path, body.encode("utf-8"))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def cmd_fit(argv) -> int:
    parser = _Parser(
        prog="umfc fit",
        description="Estimate calibration statistics from an unlabeled training matrix.",
    )
    parser.add_argument("--train", required=True, help="embedding file to fit on")
    parser.add_argument("--bank", required=True, help="text bank embedding file")
    parser.add_argument("--names", required=True, help="class names, one per line")
    parser.add_argument("--out-state", required=True, help="where to write the fitted state")
    _engine_flags(parser)
    args = parser.parse_args(argv)
    cfg = _config_from(args)

    train = _load_matrix(args.train)
    bank = uio.read_text_bank(args.bank, args.names)
    # the snapshot keeps cfg as given, so predict --state normalizes its rows
    state = fit_unsupervised(train, bank, _normalize_loaded(train, cfg))
    uio.snapshot_state(state, cfg, args.out_state)
    _note(f"fit: {train.n} samples -> {cfg.clusters} clusters")
    shift_norms = np.linalg.norm(state.calib_text_shifts, axis=1)
    for m in range(cfg.clusters):
        _note(f"  cluster {m}: size {int(state.counts[m])}, shift norm {shift_norms[m]:.6f}")
    _note(f"state written to {args.out_state}")
    return EXIT_OK


def cmd_predict(argv) -> int:
    parser = _Parser(
        prog="umfc predict",
        description="Apply a fitted state to a test matrix.  Output rows: "
        "id, predicted class, probability, cluster, flags (tab-separated).",
    )
    parser.add_argument("--state", required=True, help="state file from fit or stream")
    parser.add_argument("--test", required=True, help="embedding file to predict")
    parser.add_argument("--bank", required=True, help="text bank embedding file")
    parser.add_argument("--names", required=True, help="class names, one per line")
    parser.add_argument("--out", required=True, help="predictions TSV path")
    _tunable(parser, "--tau", float, None, "override the stored softmax temperature")
    args = parser.parse_args(argv)

    test = _load_matrix(args.test)
    bank = uio.read_text_bank(args.bank, args.names)
    preds = _predict_loaded(args.state, args.tau, test, bank)
    _write_predictions(args.out, preds, test.ids, bank.names)
    _note(f"predict: {test.n} rows -> {args.out}")
    return EXIT_OK


def cmd_transduce(argv) -> int:
    parser = _Parser(
        prog="umfc transduce",
        description="Fit on the test matrix itself and predict it in one pass.",
    )
    parser.add_argument("--test", required=True, help="embedding file to calibrate and predict")
    parser.add_argument("--bank", required=True, help="text bank embedding file")
    parser.add_argument("--names", required=True, help="class names, one per line")
    parser.add_argument("--out", required=True, help="predictions TSV path")
    parser.add_argument("--report", default=None, help="also write a per-domain accuracy TSV here")
    _engine_flags(parser)
    args = parser.parse_args(argv)
    cfg = _config_from(args)

    test = _load_matrix(args.test)
    bank = uio.read_text_bank(args.bank, args.names)
    if args.report is not None and (test.class_labels is None or test.domain_labels is None):
        raise MissingLabels("per-domain accuracy needs class and domain labels")
    preds, _ = transduce(test, bank, _normalize_loaded(test, cfg), keep_probs=False)
    _write_predictions(args.out, preds, test.ids, bank.names)
    _note(f"transduce: {test.n} rows -> {args.out}")
    if args.report is not None:
        table = per_domain_accuracy(preds, test.class_labels, test.domain_labels)
        uio._atomic_write(args.report, table.to_tsv().encode("utf-8"))
        _note(f"report: overall {table.overall():.4f} -> {args.report}")
    return EXIT_OK


def cmd_stream(argv) -> int:
    parser = _Parser(
        prog="umfc stream",
        description="Consume the test matrix in batches, adapting as it goes.",
    )
    parser.add_argument("--test", required=True, help="embedding file to stream")
    parser.add_argument("--bank", required=True, help="text bank embedding file")
    parser.add_argument("--names", required=True, help="class names, one per line")
    parser.add_argument("--out", required=True, help="predictions TSV path")
    parser.add_argument("--out-state", default=None, help="write the final state here")
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        help="also snapshot every N batches to <out-state>.batchNNNNN (0 = never)",
    )
    _engine_flags(parser)
    args = parser.parse_args(argv)
    cfg = _config_from(args)
    if args.snapshot_every < 0:
        raise UsageError("--snapshot-every: must be >= 0")
    if args.snapshot_every and not args.out_state:
        raise UsageError("--snapshot-every needs --out-state for the snapshot path")

    test = _load_matrix(args.test)
    bank = uio.read_text_bank(args.bank, args.names)

    # the snapshots keep cfg as given, so a resumed stream normalizes its rows
    def snapshot(batches_done, state):
        if args.snapshot_every and batches_done % args.snapshot_every == 0:
            uio.snapshot_state(state, cfg, f"{args.out_state}.batch{batches_done:05d}")

    preds, state = run_stream(test, bank, _normalize_loaded(test, cfg), keep_probs=False,
                              on_batch=snapshot)
    _write_predictions(args.out, preds, test.ids, bank.names)
    if args.out_state:
        uio.snapshot_state(state, cfg, args.out_state)
        _note(f"final state -> {args.out_state}")
    n_batches = -(-test.n // cfg.batch_size)
    _note(f"stream: {test.n} rows in {n_batches} batches ({cfg.mode} mode) -> {args.out}")
    return EXIT_OK


# umfc synth's flags: (flag, the SynthSpec field it sets, help)
_SYNTH_FLAGS = (
    ("--classes", "n_classes", "number of classes"),
    ("--domains", "n_domains", "number of domains"),
    ("--dim", "dim", "embedding dimension (>= classes + domains)"),
    ("--class-sep", "class_sep", "norm of the class anchor component"),
    ("--domain-offset", "domain_offset_norm", "norm of the domain offset component"),
    ("--noise", "noise_sigma", "feature noise sigma"),
    ("--per-cell", "samples_per_cell", "samples per (class, domain) cell"),
    ("--text-bias", "text_domain_bias", "text lean toward each class's home domain"),
    ("--seed", "seed", "generator seed"),
)


def cmd_synth(argv) -> int:
    parser = _Parser(
        prog="umfc synth",
        description="Generate the synthetic benchmark files.",
    )
    parser.add_argument("--out-prefix", required=True, help="prefix for the written files")
    parser.add_argument(
        "--emit-domain-bank",
        action="store_true",
        help="also write the domain anchor texts (for the bias probe)",
    )
    d = SynthSpec()
    for flag, field, help_ in _SYNTH_FLAGS:
        default = getattr(d, field)
        _tunable(parser, flag, type(default), default, help_)
    args = parser.parse_args(argv)
    # SynthSpec refuses bad values with ValueError or DimensionTooSmall: usage errors
    spec = SynthSpec(**{field: getattr(args, flag[2:].replace("-", "_"))
                        for flag, field, _ in _SYNTH_FLAGS})

    ds = generate_benchmark(spec)
    prefix = args.out_prefix
    uio.write_embeddings(ds.images, f"{prefix}_images.bin", kind=uio.KIND_IMAGE)
    uio.write_text_bank(ds.text_bank, f"{prefix}_bank.bin", f"{prefix}_names.txt")
    _note(
        f"synth: {ds.images.n} images ({spec.n_classes} classes x {spec.n_domains} domains, "
        f"dim {spec.dim}) -> {prefix}_images.bin"
    )
    if args.emit_domain_bank:
        anchors = EmbeddingMatrix(data=ds.domain_anchor_texts)
        uio.write_embeddings(anchors, f"{prefix}_domains.bin", kind=uio.KIND_TEXT)
        uio._atomic_write(
            f"{prefix}_domain_names.txt",
            ("\n".join(f"domain_{z}" for z in range(spec.n_domains)) + "\n").encode("utf-8"),
        )
        _note(f"domain anchors -> {prefix}_domains.bin")
    return EXIT_OK


def cmd_diagnose(argv) -> int:
    parser = _Parser(
        prog="umfc diagnose",
        description="Reports: prediction histogram, domain-bias probe, "
        "transition-direction check, balanced subsample.",
    )
    parser.add_argument("--which", required=True, choices=["hist", "probe", "direction", "balance"])
    parser.add_argument("--test", default=None, help="embedding file (hist, direction, balance)")
    parser.add_argument("--bank", default=None, help="text bank (hist, probe)")
    parser.add_argument("--names", default=None, help="class names (hist, probe)")
    parser.add_argument("--domain-bank", default=None, help="domain anchor embeddings (probe, direction)")
    parser.add_argument("--state", default=None, help="calibrated state to apply first (hist, probe)")
    parser.add_argument("--out", required=True, help="output table path")
    _tunable(parser, "--tau", float, None,
             "temperature (hist: classification; probe: softmax over domains)")
    _tunable(parser, "--per-cell", int, 50, "balance: rows per (class, domain) cell")
    _tunable(parser, "--seed", int, 0, "balance: sampling seed")
    args = parser.parse_args(argv)

    def need(flag, value):
        if value is None:
            raise UsageError(f"--which {args.which} requires {flag}")
        return value

    if args.which == "hist":
        test = _load_matrix(need("--test", args.test))
        bank = uio.read_text_bank(need("--bank", args.bank), need("--names", args.names))
        tau = EngineConfig().tau if args.tau is None else args.tau
        if args.state is not None:
            labels = _predict_loaded(args.state, tau, test, bank).labels
        else:
            # one row block at a time, keeping only its argmax; 0 rows still
            # score one empty block, so tau and the dimension are checked
            labels = np.empty(test.n, dtype=np.int64)
            for sl in row_blocks(max(test.n, 1)):
                labels[sl] = classify_batch(test.data[sl], bank.data, tau).argmax(axis=1)
        hist = prediction_histogram(labels, bank.k)
        uio._atomic_write(args.out, hist.to_tsv(bank.names).encode("utf-8"))
        _note(f"histogram of {test.n} predictions -> {args.out}")
        return EXIT_OK

    if args.which == "probe":
        bank = uio.read_text_bank(need("--bank", args.bank), need("--names", args.names))
        anchors = _load_matrix(need("--domain-bank", args.domain_bank))
        probed = bank
        if args.state is not None:
            state, _ = uio.restore_state(args.state)
            if state.calib_text_shifts is None:
                raise FormatError(f"{args.state}: state has no calibration")
            probed = calibrate_bank(bank, state.calib_text_shifts)
        tau = 1.0 if args.tau is None else args.tau
        result = domain_bias_probe(probed, anchors.data, tau=tau)
        uio._atomic_write(args.out, result.to_csv().encode("utf-8"))
        _note(f"probe: KL(aggregate || uniform) = {kl_to_uniform(result.aggregate):.6e} -> {args.out}")
        return EXIT_OK

    if args.which == "direction":
        test = _load_matrix(need("--test", args.test))
        anchors = _load_matrix(need("--domain-bank", args.domain_bank))
        refs = pairwise_directions(anchors.data)
        table = transition_direction_check(test, refs)
        uio._atomic_write(args.out, table.to_tsv().encode("utf-8"))
        _note(f"direction: min off-diagonal cosine {table.min_off_diagonal():.6f} -> {args.out}")
        return EXIT_OK

    # balance
    test = _load_matrix(need("--test", args.test))
    idx, shortfalls = balanced_subsample(test, args.per_cell, args.seed)
    cls = test.class_labels
    dom = test.domain_labels
    lines = [f"{test.ids[i]}\t{int(cls[i])}\t{int(dom[i])}" for i in idx]
    uio._atomic_write(args.out, (("\n".join(lines) + "\n") if lines else "").encode("utf-8"))
    for c, z, have, want in shortfalls:
        _note(f"short cell: class {c} domain {z} has {have} of {want}")
    _note(f"balance: {idx.size} rows selected -> {args.out}")
    return EXIT_OK


def cmd_sweep(argv) -> int:
    parser = _Parser(
        prog="umfc sweep",
        description="Run the pipeline across one parameter's values and "
        "tabulate accuracy (labels required).",
    )
    parser.add_argument("--param", required=True, help="clusters | batch-size | eta")
    parser.add_argument("--values", required=True, help="comma-separated parameter values")
    parser.add_argument("--test", required=True, help="labeled embedding file")
    parser.add_argument("--bank", required=True, help="text bank embedding file")
    parser.add_argument("--names", required=True, help="class names, one per line")
    parser.add_argument("--out", required=True, help="accuracy table TSV path")
    _engine_flags(parser)
    args = parser.parse_args(argv)
    base = _config_from(args)

    if args.param not in ("clusters", "batch-size", "eta"):
        raise UsageError(f"--param: unknown parameter {args.param!r}")
    caster = float if args.param == "eta" else int
    try:
        values = [caster(tok) for tok in args.values.split(",") if tok != ""]
    except ValueError as e:
        raise UsageError(f"--values: {e}") from None
    if not values:
        raise UsageError("--values: empty list")

    test = _load_matrix(args.test)
    bank = uio.read_text_bank(args.bank, args.names)
    if test.class_labels is None or test.domain_labels is None:
        raise MissingLabels("sweep needs class and domain labels on --test")
    base = _normalize_loaded(test, base)

    rows = []
    domains = np.unique(test.domain_labels)
    for val in values:
        try:
            if args.param == "clusters":
                preds, _ = transduce(test, bank, replace(base, clusters=val), keep_probs=False)
            else:
                cfg = (replace(base, batch_size=val, mode="memory") if args.param == "batch-size"
                       else replace(base, eta=val, mode="ema"))
                preds, _ = run_stream(test, bank, cfg, keep_probs=False)
        except UmfcError:
            raise  # main's failure table maps it, as for any other command
        except ValueError as e:
            raise UsageError(f"--values: {val!r}: {e}") from None
        table = per_domain_accuracy(preds, test.class_labels, test.domain_labels)
        rows.append((val, table))
        _note(f"sweep {args.param}={val}: overall {table.overall():.4f}")

    header = "param\tvalue\toverall_macro\t" + "\t".join(f"domain_{z}" for z in domains)
    lines = [header]
    for val, table in rows:
        accs = "\t".join(f"{a:.6f}" for a in table.accuracies)
        lines.append(f"{args.param}\t{val}\t{table.overall():.6f}\t{accs}")
    uio._atomic_write(args.out, ("\n".join(lines) + "\n").encode("utf-8"))
    _note(f"sweep table -> {args.out}")
    return EXIT_OK


_COMMANDS = {
    "fit": cmd_fit,
    "predict": cmd_predict,
    "transduce": cmd_transduce,
    "stream": cmd_stream,
    "synth": cmd_synth,
    "diagnose": cmd_diagnose,
    "sweep": cmd_sweep,
}


# how main reports a failure: (exception types, exit code, stderr label);
# the first entry that matches wins, so UmfcError's subclasses come before
# it and UnicodeDecodeError and DimensionMismatch before ValueError
_FAILURES = (
    ((UsageError, DimensionTooSmall), EXIT_USAGE, "usage error"),
    ((DegenerateVector, AllShiftsDegenerate), EXIT_DEGENERATE, "numerical degeneracy"),
    ((UmfcError, OSError, UnicodeDecodeError), EXIT_DATA, "data error"),
    ((ValueError,), EXIT_USAGE, "usage error"),
)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(
            "usage: umfc <command> [flags]\n\n"
            "commands:\n"
            "  fit        estimate calibration statistics from unlabeled data\n"
            "  predict    apply a fitted state to new data\n"
            "  transduce  fit on the test set itself and predict it\n"
            "  stream     adapt over batches as they arrive\n"
            "  synth      generate the synthetic benchmark\n"
            "  diagnose   bias and sanity reports\n"
            "  sweep      accuracy across one parameter's values\n\n"
            "umfc <command> --help shows that command's flags and defaults."
        )
        return EXIT_OK
    cmd, rest = argv[0], argv[1:]
    if cmd not in _COMMANDS:
        print(f"unknown command {cmd!r}; run `umfc --help`", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[cmd](rest)
    except tuple(t for types, _, _ in _FAILURES for t in types) as e:
        code, label = next((c, lab) for types, c, lab in _FAILURES if isinstance(e, types))
        print(f"{label}: {e}", file=sys.stderr)
        return code


def _entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    _entry()
