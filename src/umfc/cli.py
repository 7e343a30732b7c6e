"""Command line driver.

Subcommands: fit, predict, transduce, stream, synth, diagnose, sweep.
Every tunable flag can also be set through an environment variable named
UMFC_<FLAG> (dashes become underscores, e.g. UMFC_BATCH_SIZE); an
explicit flag always wins over the environment.  Progress and reports go
to stderr; data goes to the files named by flags, never anywhere else.

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
    EmptyDomain,
    FormatError,
    MissingLabels,
    NonFiniteInput,
    TooFewSamples,
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
    raise ValueError(f"expected a boolean (0/1), got {raw!r}")


class Flags:
    """Declared tunables for one subcommand, resolved flag > env > default."""

    def __init__(self, parser: argparse.ArgumentParser):
        self.parser = parser
        self.specs = []

    def add(self, flag: str, type_, default, help_):
        env = _env_name(flag)
        self.parser.add_argument(
            flag,
            dest=flag.lstrip("-").replace("-", "_"),
            type=str,
            default=None,
            help=f"{help_} (default: {default}; env: {env})",
        )
        self.specs.append((flag, type_, default))

    def resolve(self, args) -> dict:
        out = {}
        for flag, type_, default in self.specs:
            dest = flag.lstrip("-").replace("-", "_")
            raw = getattr(args, dest)
            if raw is None:
                raw = os.environ.get(_env_name(flag))
            if raw is None:
                out[dest] = default
                continue
            try:
                out[dest] = _parse_bool(raw) if type_ is bool else type_(raw)
            except ValueError as e:
                raise UsageError(f"{flag}: {e}") from None
        return out


def _engine_flags(parser):
    f = Flags(parser)
    d = EngineConfig()
    f.add("--clusters", int, d.clusters, "number of cluster means")
    f.add("--tau", float, d.tau, "softmax temperature")
    f.add("--eta", float, d.eta, "moving-average rate (ema mode)")
    f.add("--mode", str, d.mode, "streaming statistics: memory or ema")
    f.add("--batch-size", int, d.batch_size, "streaming batch size")
    f.add("--seed", int, d.seed, "PRNG seed for clustering")
    f.add("--normalize-input", bool, d.normalize_input, "L2-normalize feature rows at ingestion")
    return f


def _config_from(vals: dict) -> EngineConfig:
    try:
        return EngineConfig(**{f.name: vals[f.name] for f in fields(EngineConfig)})
    except ValueError as e:
        raise UsageError(str(e)) from None


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
    if state.model is None:
        raise FormatError(f"{state_path}: state has no fitted model to predict with")
    if tau is not None:
        try:
            cfg = replace(cfg, tau=tau)
        except ValueError:
            raise UsageError(f"--tau: must be finite and > 0, got {tau}") from None
    if test.n and test.dim != state.model.dim:
        raise DimensionMismatch(f"rows of dim {test.dim} against a state of dim {state.model.dim}")
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
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--train", required=True, help="embedding file to fit on")
    parser.add_argument("--bank", required=True, help="text bank embedding file")
    parser.add_argument("--names", required=True, help="class names, one per line")
    parser.add_argument("--out-state", required=True, help="where to write the fitted state")
    flags = _engine_flags(parser)
    args = parser.parse_args(argv)
    cfg = _config_from(flags.resolve(args))

    train = _load_matrix(args.train)
    bank = uio.read_text_bank(args.bank, args.names)
    # the snapshot keeps cfg as given, so predict --state normalizes its rows
    state = fit_unsupervised(train, bank, _normalize_loaded(train, cfg))
    uio.snapshot_state(state, cfg, args.out_state)
    _note(f"fit: {train.n} samples -> {cfg.clusters} clusters")
    shift_norms = np.linalg.norm(state.calib.text_shifts, axis=1)
    for m in range(cfg.clusters):
        _note(f"  cluster {m}: size {int(state.model.counts[m])}, shift norm {shift_norms[m]:.6f}")
    _note(f"state written to {args.out_state}")
    return EXIT_OK


def cmd_predict(argv) -> int:
    parser = _Parser(
        prog="umfc predict",
        description="Apply a fitted state to a test matrix.  Output rows: "
        "id, predicted class, probability, cluster, flags (tab-separated).",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--state", required=True, help="state file from fit or stream")
    parser.add_argument("--test", required=True, help="embedding file to predict")
    parser.add_argument("--bank", required=True, help="text bank embedding file")
    parser.add_argument("--names", required=True, help="class names, one per line")
    parser.add_argument("--out", required=True, help="predictions TSV path")
    f = Flags(parser)
    f.add("--tau", float, None, "override the stored softmax temperature")
    args = parser.parse_args(argv)
    vals = f.resolve(args)

    test = _load_matrix(args.test)
    bank = uio.read_text_bank(args.bank, args.names)
    preds = _predict_loaded(args.state, vals["tau"], test, bank)
    _write_predictions(args.out, preds, test.ids, bank.names)
    _note(f"predict: {test.n} rows -> {args.out}")
    return EXIT_OK


def cmd_transduce(argv) -> int:
    parser = _Parser(
        prog="umfc transduce",
        description="Fit on the test matrix itself and predict it in one pass.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--test", required=True, help="embedding file to calibrate and predict")
    parser.add_argument("--bank", required=True, help="text bank embedding file")
    parser.add_argument("--names", required=True, help="class names, one per line")
    parser.add_argument("--out", required=True, help="predictions TSV path")
    parser.add_argument("--report", default=None, help="also write a per-domain accuracy TSV here")
    flags = _engine_flags(parser)
    flags.add("--micro", bool, False, "report micro instead of macro overall accuracy")
    args = parser.parse_args(argv)
    vals = flags.resolve(args)
    cfg = _config_from(vals)

    test = _load_matrix(args.test)
    bank = uio.read_text_bank(args.bank, args.names)
    if args.report is not None and (test.class_labels is None or test.domain_labels is None):
        raise MissingLabels("per-domain accuracy needs class and domain labels")
    preds, _ = transduce(test, bank, _normalize_loaded(test, cfg), keep_probs=False)
    _write_predictions(args.out, preds, test.ids, bank.names)
    _note(f"transduce: {test.n} rows -> {args.out}")
    if args.report is not None:
        table = per_domain_accuracy(preds, test.class_labels, test.domain_labels)
        uio._atomic_write(args.report, table.to_tsv(micro=vals["micro"]).encode("utf-8"))
        _note(f"report: overall {table.overall(micro=vals['micro']):.4f} -> {args.report}")
    return EXIT_OK


def cmd_stream(argv) -> int:
    parser = _Parser(
        prog="umfc stream",
        description="Consume the test matrix in batches, adapting as it goes.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
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
    flags = _engine_flags(parser)
    args = parser.parse_args(argv)
    cfg = _config_from(flags.resolve(args))
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


def cmd_synth(argv) -> int:
    parser = _Parser(
        prog="umfc synth",
        description="Generate the synthetic benchmark files.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--out-prefix", required=True, help="prefix for the written files")
    parser.add_argument(
        "--emit-domain-bank",
        action="store_true",
        help="also write the domain anchor texts (for the bias probe)",
    )
    f = Flags(parser)
    f.add("--classes", int, 10, "number of classes")
    f.add("--domains", int, 3, "number of domains")
    f.add("--dim", int, 32, "embedding dimension (>= classes + domains)")
    f.add("--class-sep", float, 1.0, "norm of the class anchor component")
    f.add("--domain-offset", float, 2.0, "norm of the domain offset component")
    f.add("--noise", float, 0.05, "feature noise sigma")
    f.add("--per-cell", int, 50, "samples per (class, domain) cell")
    f.add("--text-bias", float, 0.75, "text lean toward each class's home domain")
    f.add("--seed", int, 7, "generator seed")
    args = parser.parse_args(argv)
    v = f.resolve(args)

    try:
        spec = SynthSpec(
            n_classes=v["classes"],
            n_domains=v["domains"],
            dim=v["dim"],
            class_sep=v["class_sep"],
            domain_offset_norm=v["domain_offset"],
            noise_sigma=v["noise"],
            samples_per_cell=v["per_cell"],
            seed=v["seed"],
            text_domain_bias=v["text_bias"],
        )
    except (ValueError, DimensionTooSmall) as e:
        raise UsageError(str(e)) from None

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
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--which", required=True, choices=["hist", "probe", "direction", "balance"])
    parser.add_argument("--test", default=None, help="embedding file (hist, direction, balance)")
    parser.add_argument("--bank", default=None, help="text bank (hist, probe)")
    parser.add_argument("--names", default=None, help="class names (hist, probe)")
    parser.add_argument("--domain-bank", default=None, help="domain anchor embeddings (probe, direction)")
    parser.add_argument("--state", default=None, help="calibrated state to apply first (hist, probe)")
    parser.add_argument("--out", required=True, help="output table path")
    f = Flags(parser)
    f.add("--tau", float, None, "temperature (hist: classification; probe: softmax over domains)")
    f.add("--per-cell", int, 50, "balance: rows per (class, domain) cell")
    f.add("--seed", int, 0, "balance: sampling seed")
    args = parser.parse_args(argv)
    v = f.resolve(args)

    def need(flag, value):
        if value is None:
            raise UsageError(f"--which {args.which} requires {flag}")
        return value

    if args.which == "hist":
        test = _load_matrix(need("--test", args.test))
        bank = uio.read_text_bank(need("--bank", args.bank), need("--names", args.names))
        tau = EngineConfig().tau if v["tau"] is None else v["tau"]
        if args.state is not None:
            labels = _predict_loaded(args.state, tau, test, bank).labels
        else:
            # one row block at a time, keeping only its argmax; 0 rows still
            # score one empty block, so tau and the dimension are checked
            labels = np.empty(test.n, dtype=np.int64)
            for sl in row_blocks(max(test.n, 1)):
                labels[sl] = classify_batch(test.data[sl], bank.data, tau).argmax(axis=1)
        hist = prediction_histogram(labels, bank.k)
        lines = ["class\tcount"]
        for c, n in hist.top():
            lines.append(f"{bank.names[c]}\t{n}")
        uio._atomic_write(args.out, ("\n".join(lines) + "\n").encode("utf-8"))
        _note(f"histogram of {test.n} predictions -> {args.out}")
        return EXIT_OK

    if args.which == "probe":
        bank = uio.read_text_bank(need("--bank", args.bank), need("--names", args.names))
        anchors = _load_matrix(need("--domain-bank", args.domain_bank))
        probed = bank
        if args.state is not None:
            state, _ = uio.restore_state(args.state)
            if state.calib is None:
                raise FormatError(f"{args.state}: state has no calibration")
            probed = calibrate_bank(bank, state.calib.text_shifts)
        tau = 1.0 if v["tau"] is None else v["tau"]
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
    idx, shortfalls = balanced_subsample(test, v["per_cell"], v["seed"])
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
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--param", required=True, help="clusters | batch-size | eta")
    parser.add_argument("--values", required=True, help="comma-separated parameter values")
    parser.add_argument("--test", required=True, help="labeled embedding file")
    parser.add_argument("--bank", required=True, help="text bank embedding file")
    parser.add_argument("--names", required=True, help="class names, one per line")
    parser.add_argument("--out", required=True, help="accuracy table TSV path")
    flags = _engine_flags(parser)
    args = parser.parse_args(argv)
    base = _config_from(flags.resolve(args))

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
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DegenerateVector, AllShiftsDegenerate) as e:
        print(f"numerical degeneracy: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (
        FormatError,
        DimensionMismatch,
        TooFewSamples,
        MissingLabels,
        EmptyDomain,
        NonFiniteInput,
        OSError,
        UnicodeDecodeError,
    ) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except DimensionTooSmall as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except UmfcError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE


def _entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    _entry()
