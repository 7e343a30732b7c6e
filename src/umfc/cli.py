"""Command line driver.

Commands: fit, predict, transduce, stream, synth, diagnose, sweep;
`umfc` alone (or `umfc --help`) lists them.  Each takes only the flags
that change its output, and a value is set only on the command line;
`--help` after a command shows each flag's default.  diagnose and
sweep take one subcommand per report and per swept parameter:

    diagnose hist       --test --bank --names --out [--state --tau]
    diagnose probe      --bank --names --domain-bank --out [--state --tau]
    diagnose direction  --test --domain-bank --out
    diagnose balance    --test --out [--per-cell --seed]
    sweep clusters      --values --test --bank --names --out [--tau --seed]
    sweep batch-size    the same, and [--clusters]
    sweep eta           the same, and [--clusters --batch-size]

Progress and reports go to stderr; data goes to the files named by
flags, never anywhere else.

Exit codes: 0 success, 1 usage error, 2 unreadable/invalid data,
3 numerical degeneracy.
"""

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

import numpy as np

from . import io as uio
from .calib import calibrate_bank
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
from .synth import SynthSpec, generate_benchmark

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


# the EngineConfig fields a command may take as flags: field -> (type, help)
_ENGINE_FLAGS = {
    "clusters": (int, "number of cluster means"),
    "tau": (float, "softmax temperature"),
    "eta": (float, "moving-average rate (ema mode)"),
    "mode": (str, "streaming statistics: memory or ema"),
    "batch_size": (int, "streaming batch size"),
    "seed": (int, "PRNG seed for clustering"),
}


def _engine_flags(parser, *names) -> None:
    """Declare the flags of the named EngineConfig fields, with their defaults."""
    d = EngineConfig()
    for name in names:
        type_, help_ = _ENGINE_FLAGS[name]
        parser.add_argument("--" + name.replace("_", "-"), type=type_,
                            default=getattr(d, name), help=help_)


def _config_from(args) -> EngineConfig:
    """The config of the engine flags the command declares, the rest at their defaults."""
    return EngineConfig(**{name: getattr(args, name) for name in _ENGINE_FLAGS
                           if hasattr(args, name)})


def _load_matrix(path) -> EmbeddingMatrix:
    if str(path).endswith(".csv"):
        return uio.read_embeddings_csv(path)
    return uio.read_embeddings(path)


def _normalize_loaded(matrix: EmbeddingMatrix) -> None:
    """Normalize a loaded matrix's rows in place: the engine takes unit rows
    as they are, so one copy of the input stays alive, in its float32."""
    l2_normalize_rows(matrix.data, out=matrix.data)


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
        cfg = replace(cfg, tau=tau)
    dim = state.centroids.shape[1]
    if test.n and test.dim != dim:
        raise DimensionMismatch(f"rows of dim {test.dim} against a state of dim {dim}")
    _normalize_loaded(test)
    return predict(state, test, bank, cfg, keep_probs=False)


def _write_predictions(path, preds: Predictions, ids, names) -> None:
    # the flags column spells each distinct bitmask once, from its first row
    codes, first = np.unique(preds.flags, return_index=True)
    flag_text = {c: ",".join(preds[i].flags) or "-" for c, i in zip(codes.tolist(), first.tolist())}
    # the columns are turned into Python values one row block at a time
    lines = (
        f"{pid}\t{names[label]}\t{prob:.9f}\t{cluster}\t{flag_text[code]}"
        for sl in row_blocks(len(preds))
        for pid, label, prob, cluster, code in zip(
            ids[sl], preds.labels[sl].tolist(), preds.top[sl].tolist(),
            preds.clusters[sl].tolist(), preds.flags[sl].tolist(),
        )
    )
    uio._write_lines(path, lines)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def cmd_fit(args) -> None:
    cfg = _config_from(args)
    train = _load_matrix(args.train)
    bank = uio.read_text_bank(args.bank, args.names)
    _normalize_loaded(train)
    state = fit_unsupervised(train, bank, cfg)
    uio.snapshot_state(state, cfg, args.out_state)
    _note(f"fit: {train.n} samples -> {cfg.clusters} clusters")
    shift_norms = np.linalg.norm(state.calib_text_shifts, axis=1)
    for m in range(cfg.clusters):
        _note(f"  cluster {m}: size {int(state.counts[m])}, shift norm {shift_norms[m]:.6f}")
    _note(f"state written to {args.out_state}")


def cmd_predict(args) -> None:
    test = _load_matrix(args.test)
    bank = uio.read_text_bank(args.bank, args.names)
    preds = _predict_loaded(args.state, args.tau, test, bank)
    _write_predictions(args.out, preds, test.ids, bank.names)
    _note(f"predict: {test.n} rows -> {args.out}")


def cmd_transduce(args) -> None:
    cfg = _config_from(args)
    test = _load_matrix(args.test)
    bank = uio.read_text_bank(args.bank, args.names)
    if args.report is not None and (test.class_labels is None or test.domain_labels is None):
        raise MissingLabels("per-domain accuracy needs class and domain labels")
    _normalize_loaded(test)
    preds, _ = transduce(test, bank, cfg, keep_probs=False)
    _write_predictions(args.out, preds, test.ids, bank.names)
    _note(f"transduce: {test.n} rows -> {args.out}")
    if args.report is not None:
        table = per_domain_accuracy(preds, test.class_labels, test.domain_labels)
        uio._atomic_write(args.report, [table.to_tsv().encode("utf-8")])
        _note(f"report: overall {table.overall():.4f} -> {args.report}")


def cmd_stream(args) -> None:
    cfg = _config_from(args)
    if args.snapshot_every < 0:
        raise UsageError("--snapshot-every: must be >= 0")
    if args.snapshot_every and not args.out_state:
        raise UsageError("--snapshot-every needs --out-state for the snapshot path")

    test = _load_matrix(args.test)
    bank = uio.read_text_bank(args.bank, args.names)

    def snapshot(batches_done, state):
        if args.snapshot_every and batches_done % args.snapshot_every == 0:
            uio.snapshot_state(state, cfg, f"{args.out_state}.batch{batches_done:05d}")

    _normalize_loaded(test)
    preds, state = run_stream(test, bank, cfg, keep_probs=False, on_batch=snapshot)
    _write_predictions(args.out, preds, test.ids, bank.names)
    if args.out_state:
        uio.snapshot_state(state, cfg, args.out_state)
        _note(f"final state -> {args.out_state}")
    n_batches = -(-test.n // cfg.batch_size)
    _note(f"stream: {test.n} rows in {n_batches} batches ({cfg.mode} mode) -> {args.out}")


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


def cmd_synth(args) -> None:
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
        uio._write_lines(f"{prefix}_domain_names.txt",
                         (f"domain_{z}" for z in range(spec.n_domains)))
        _note(f"domain anchors -> {prefix}_domains.bin")


def cmd_hist(args) -> None:
    test = _load_matrix(args.test)
    bank = uio.read_text_bank(args.bank, args.names)
    if args.state is not None:
        preds = _predict_loaded(args.state, args.tau, test, bank)
    else:
        _normalize_loaded(test)
        cfg = EngineConfig(tau=EngineConfig.tau if args.tau is None else args.tau)
        preds = predict(None, test, bank, cfg, keep_probs=False)
    hist = prediction_histogram(preds, bank.k)
    uio._atomic_write(args.out, [hist.to_tsv(bank.names).encode("utf-8")])
    _note(f"histogram of {test.n} predictions -> {args.out}")


def cmd_probe(args) -> None:
    bank = uio.read_text_bank(args.bank, args.names)
    anchors = _load_matrix(args.domain_bank)
    if args.state is not None:
        state, _ = uio.restore_state(args.state)
        if state.calib_text_shifts is None:
            raise FormatError(f"{args.state}: state has no calibration")
        bank = calibrate_bank(bank, state.calib_text_shifts)
    result = domain_bias_probe(bank, anchors.data, tau=args.tau)
    uio._atomic_write(args.out, [result.to_csv().encode("utf-8")])
    _note(f"probe: KL(aggregate || uniform) = {kl_to_uniform(result.aggregate):.6e} -> {args.out}")


def cmd_direction(args) -> None:
    test = _load_matrix(args.test)
    anchors = _load_matrix(args.domain_bank)
    table = transition_direction_check(test, anchors.data)
    uio._atomic_write(args.out, [table.to_tsv().encode("utf-8")])
    _note(f"direction: min off-diagonal cosine {table.min_off_diagonal():.6f} -> {args.out}")


def cmd_balance(args) -> None:
    test = _load_matrix(args.test)
    idx, shortfalls = balanced_subsample(test, args.per_cell, args.seed)
    cls, dom = test.class_labels, test.domain_labels
    uio._write_lines(args.out, (f"{test.ids[i]}\t{int(cls[i])}\t{int(dom[i])}" for i in idx))
    for c, z, have, want in shortfalls:
        _note(f"short cell: class {c} domain {z} has {have} of {want}")
    _note(f"balance: {idx.size} rows selected -> {args.out}")


def cmd_sweep(args) -> None:
    base = _config_from(args)
    field = args.param.replace("-", "_")
    cast = type(getattr(base, field))  # the type of the config field each value sets
    try:
        values = [cast(tok) for tok in args.values.split(",") if tok != ""]
    except ValueError as e:
        raise UsageError(f"--values: {e}") from None
    if not values:
        raise UsageError("--values: empty list")
    # every value is checked before any file is read; the rows are
    # normalized once, in place, so each run takes them as they are
    configs = []
    for val in values:
        try:
            configs.append(replace(base, **{field: val}))
        except ValueError as e:
            raise UsageError(f"--values: {val!r}: {e}") from None

    test = _load_matrix(args.test)
    bank = uio.read_text_bank(args.bank, args.names)
    if test.class_labels is None or test.domain_labels is None:
        raise MissingLabels("sweep needs class and domain labels on --test")
    _normalize_loaded(test)

    domains = np.unique(test.domain_labels)
    lines = ["param\tvalue\toverall_macro\t" + "\t".join(f"domain_{z}" for z in domains)]
    for val, cfg in zip(values, configs):
        preds, _ = args.run_each(test, bank, cfg, keep_probs=False)
        table = per_domain_accuracy(preds, test.class_labels, test.domain_labels)
        _note(f"sweep {args.param}={val}: overall {table.overall():.4f}")
        accs = "\t".join(f"{a:.6f}" for a in table.accuracies)
        lines.append(f"{args.param}\t{val}\t{table.overall():.6f}\t{accs}")
    uio._write_lines(args.out, lines)
    _note(f"sweep table -> {args.out}")


# the file flags the commands share, each required: flag -> help
_FILE_FLAGS = {
    "--test": "embedding file to read",
    "--bank": "text bank embedding file",
    "--names": "class names, one per line",
    "--domain-bank": "domain anchor embeddings",
    "--out": "output path",
}


def _file_flags(parser, *flags) -> None:
    for flag in flags:
        parser.add_argument(flag, required=True, help=_FILE_FLAGS[flag])


def _command(subparsers, name, help_, **defaults) -> _Parser:
    """A subparser listed with the summary help_, which its own --help
    repeats as a sentence."""
    p = subparsers.add_parser(name, help=help_, description=help_[0].upper() + help_[1:] + ".")
    p.set_defaults(**defaults)
    return p


def _command_tree() -> _Parser:
    """The umfc parser with one subparser per command (per report of
    diagnose, per parameter of sweep), whose run default is its cmd_
    function."""
    parser = _Parser(
        prog="umfc",
        description="Training-free removal of domain bias from precomputed "
        "vision-language embeddings.",
        epilog="umfc <command> [<report|parameter>] --help shows its flags and defaults.",
    )
    sub = parser.add_subparsers(title="commands", dest="command", required=True)

    p = _command(sub, "fit", "estimate calibration statistics from unlabeled data", run=cmd_fit)
    p.add_argument("--train", required=True, help="embedding file to fit on")
    _file_flags(p, "--bank", "--names")
    p.add_argument("--out-state", required=True, help="where to write the fitted state")
    _engine_flags(p, "clusters", "tau", "seed")

    p = _command(sub, "predict", "apply a fitted state to new data", run=cmd_predict)
    p.epilog = "Output rows: id, predicted class, probability, cluster, flags (tab-separated)."
    p.add_argument("--state", required=True, help="state file from fit or stream")
    _file_flags(p, "--test", "--bank", "--names", "--out")
    p.add_argument("--tau", type=float, default=None,
                   help="override the stored softmax temperature")

    p = _command(sub, "transduce", "fit on the test set itself and predict it", run=cmd_transduce)
    _file_flags(p, "--test", "--bank", "--names", "--out")
    p.add_argument("--report", default=None, help="also write a per-domain accuracy TSV here")
    _engine_flags(p, "clusters", "tau", "seed")

    p = _command(sub, "stream", "adapt over batches as they arrive", run=cmd_stream)
    _file_flags(p, "--test", "--bank", "--names", "--out")
    p.add_argument("--out-state", default=None, help="write the final state here")
    p.add_argument("--snapshot-every", type=int, default=0,
                   help="also snapshot every N batches to <out-state>.batchNNNNN (0 = never)")
    _engine_flags(p, "clusters", "tau", "eta", "mode", "batch_size", "seed")

    p = _command(sub, "synth", "generate the synthetic benchmark", run=cmd_synth)
    p.add_argument("--out-prefix", required=True, help="prefix for the written files")
    p.add_argument("--emit-domain-bank", action="store_true",
                   help="also write the domain anchor texts (for the bias probe)")
    d = SynthSpec()
    for flag, field, help_ in _SYNTH_FLAGS:
        default = getattr(d, field)
        p.add_argument(flag, type=type(default), default=default, help=help_)

    p = _command(sub, "diagnose", "bias and sanity reports, one subcommand each")
    reports = p.add_subparsers(title="reports", dest="report", required=True)

    p = _command(reports, "hist", "count the top-1 predictions of each class", run=cmd_hist)
    _file_flags(p, "--test", "--bank", "--names", "--out")
    p.add_argument("--state", default=None, help="fitted state to predict with")
    p.add_argument("--tau", type=float, default=None,
                   help=f"softmax temperature (unset: the state's, else {EngineConfig().tau})")

    p = _command(reports, "probe", "softmax each class text over the domain anchors", run=cmd_probe)
    _file_flags(p, "--bank", "--names", "--domain-bank", "--out")
    p.add_argument("--state", default=None, help="calibrated state to apply to the bank first")
    p.add_argument("--tau", type=float, default=1.0, help="softmax temperature over domains")

    p = _command(reports, "direction", "check each domain pair's mean feature transition "
                 "against its anchor direction (domain labels required)", run=cmd_direction)
    _file_flags(p, "--test", "--domain-bank", "--out")

    p = _command(reports, "balance", "pick up to N rows per (class, domain) cell", run=cmd_balance)
    _file_flags(p, "--test", "--out")
    p.add_argument("--per-cell", type=int, default=50, help="rows per (class, domain) cell")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")

    p = _command(sub, "sweep", "accuracy across one parameter's values (labels required)")
    params = p.add_subparsers(title="parameters", dest="param", required=True)
    # each parameter: what one value runs, the engine flags that run also
    # reads, and the mode of its streams; the swept value sets the parameter
    for param, run_each, flags, fixed, help_ in (
        ("clusters", transduce, ("tau", "seed"), {}, "cluster counts, a transduction each"),
        ("batch-size", run_stream, ("clusters", "tau", "seed"), {"mode": "memory"},
         "batch sizes, a memory-mode stream each"),
        ("eta", run_stream, ("clusters", "tau", "batch_size", "seed"), {"mode": "ema"},
         "moving-average rates, an ema-mode stream each"),
    ):
        p = _command(params, param, "sweep " + help_, run=cmd_sweep, run_each=run_each, **fixed)
        p.add_argument("--values", required=True, help="comma-separated parameter values")
        _file_flags(p, "--test", "--bank", "--names", "--out")
        _engine_flags(p, *flags)
    return parser


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
    parser = _command_tree()
    if not argv:
        parser.print_help()
        return EXIT_OK
    try:
        args = parser.parse_args(argv)
        args.run(args)
        return EXIT_OK
    except tuple(t for types, _, _ in _FAILURES for t in types) as e:
        code, label = next((c, lab) for types, c, lab in _FAILURES if isinstance(e, types))
        print(f"{label}: {e}", file=sys.stderr)
        return code


def _entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    _entry()
