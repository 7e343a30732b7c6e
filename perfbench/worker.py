"""Child processes of the benchmark, one job each.

    worker.py gen    --workload W --seed S --out DIR [--toy]
        generate W's inputs with umfc.generate_benchmark and write them
        to DIR (the set-up step; its wall time is set-up time)
    worker.py cli    [--trace-out FILE [--peak]] -- ARGS...
        run umfc.cli.main(ARGS) and exit with its code; with --trace-out,
        trace the layers (--peak: and their peak memory) and write the
        raw totals to FILE
    worker.py stream --workload W --data DIR --seconds T --result FILE [--trace] [--toy]
        run W's closed stream loop for T seconds and write timings,
        per-pass accuracy and (with --trace) raw layer totals to FILE

Each job runs in its own process so that the parent can read that
process's own peak memory and CPU time from os.wait4.
"""

import argparse
import json
import resource
import sys
import time

import common


def _spec_cfg(umfc, workload, seed, toy):
    w = common.WORKLOADS[workload]
    spec = umfc.SynthSpec(seed=seed, **w["toy_spec" if toy else "spec"])
    cfg = umfc.EngineConfig(**w["toy_cfg" if toy else "cfg"])
    return spec, cfg


def gen(args) -> int:
    import numpy as np

    umfc = common.import_umfc()
    spec, _ = _spec_cfg(umfc, args.workload, args.seed, args.toy)
    ds = umfc.generate_benchmark(spec)
    out = args.out
    if common.WORKLOADS[args.workload]["kind"] == "cli":
        umfc.write_embeddings(ds.images, f"{out}/images.bin")
        umfc.write_text_bank(ds.text_bank, f"{out}/bank.bin", f"{out}/names.txt")
    else:
        np.save(f"{out}/images.npy", ds.images.data)
        np.save(f"{out}/bank.npy", ds.text_bank.data)
        with open(f"{out}/names.json", "w") as fh:
            json.dump(list(ds.text_bank.names), fh)
    # ground truth for the benchmark's own output checks
    np.save(f"{out}/class_labels.npy", ds.images.class_labels)
    np.save(f"{out}/domain_labels.npy", ds.images.domain_labels)
    return 0


def cli(args) -> int:
    umfc = common.import_umfc()
    import umfc.cli

    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer(track_peak=args.peak)
        tracer.install()
    rc = umfc.cli.main(args.argv)
    if tracer is not None:
        snap = tracer.snapshot()
        snap["blas_threads"] = common.blas_threads()
        with open(args.trace_out, "w") as fh:
            json.dump(snap, fh)
    return rc


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime, ru.ru_stime


def stream(args) -> int:
    import numpy as np

    umfc = common.import_umfc()
    _, cfg = _spec_cfg(umfc, args.workload, 0, args.toy)
    size = common.WORKLOADS[args.workload]["batch"]
    d = args.data
    x = np.load(f"{d}/images.npy")
    with open(f"{d}/names.json") as fh:
        bank = umfc.TextBank(names=json.load(fh), data=np.load(f"{d}/bank.npy"))
    cls = np.load(f"{d}/class_labels.npy")
    dom = np.load(f"{d}/domain_labels.npy")
    slices = [slice(i, i + size) for i in range(0, x.shape[0], size)]
    batches = [x[s] for s in slices]
    # accuracy is checked between passes, untimed and untraced
    accuracy = umfc.per_domain_accuracy

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(track_peak=True)
        tracer.install()
    init, step = umfc.stream_init, umfc.stream_step

    # warm-up: the first tenth of a pass, untimed; peak memory is traced here only
    state = init(cfg)
    for b in batches[: max(1, len(batches) // 10)]:
        _, state = step(state, b, bank, cfg)
    if tracer is not None:
        tracer.reset()
        tracer.track_peak = False

    # The clock stops at the deadline, even mid-pass, once one pass is
    # complete.  Per-pass totals (CPU time, layer trace) are taken at the
    # end of the last complete pass, so they hold whole passes only.
    res = {"rows_per_pass": x.shape[0], "pass_rows": [], "pass_walls": [], "latencies": [],
           "accs": [], "attempted": 0,
           "failed": 0, "passes": 0, "cpu_user": 0.0, "cpu_sys": 0.0}
    lat = res["latencies"]
    u_start, s_start = _cpu()
    deadline = time.perf_counter() + args.seconds
    while not res["pass_walls"] or time.perf_counter() < deadline:
        kept = []
        t0 = time.perf_counter()
        state = init(cfg)
        for b in batches:
            if res["passes"] and time.perf_counter() >= deadline:
                break
            res["attempted"] += 1
            c0 = time.perf_counter()
            try:
                preds, state = step(state, b, bank, cfg)
            except Exception as e:  # a failed call ends the pass: its state is lost
                lat.append(time.perf_counter() - c0)
                res["failed"] += 1
                print(f"stream_step failed: {e!r}", file=sys.stderr)
                break
            lat.append(time.perf_counter() - c0)
            kept.append(preds)
        res["pass_walls"].append(time.perf_counter() - t0)
        if len(kept) == len(batches):
            res["passes"] += 1
            u, s = _cpu()
            res["cpu_user"], res["cpu_sys"] = u - u_start, s - s_start
            if tracer is not None:
                res["trace"] = json.loads(json.dumps(tracer.snapshot()))
        correct = {}
        total = {}
        res["pass_rows"].append(0)
        for preds, s, b in zip(kept, slices, batches):
            if len(preds) != b.shape[0]:
                res["failed"] += 1
                continue
            res["pass_rows"][-1] += b.shape[0]
            table = accuracy(preds, cls[s], dom[s])
            for z, c, t in zip(table.domains.tolist(), table.correct.tolist(), table.totals.tolist()):
                correct[z] = correct.get(z, 0) + c
                total[z] = total.get(z, 0) + t
        if len(kept) == len(batches):
            res["accs"].append(float(np.mean([correct[z] / total[z] for z in sorted(total)])))
    res["blas_threads"] = common.blas_threads()
    with open(args.result, "w") as fh:
        json.dump(res, fh)
    return 0


def main() -> int:
    p = argparse.ArgumentParser(prog="worker.py")
    sub = p.add_subparsers(dest="job", required=True)
    g = sub.add_parser("gen")
    g.add_argument("--workload", required=True, choices=common.WORKLOADS)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--toy", action="store_true")
    c = sub.add_parser("cli")
    c.add_argument("--trace-out")
    c.add_argument("--peak", action="store_true")
    c.add_argument("argv", nargs=argparse.REMAINDER)
    s = sub.add_parser("stream")
    s.add_argument("--workload", required=True, choices=common.WORKLOADS)
    s.add_argument("--data", required=True)
    s.add_argument("--seconds", type=float, required=True)
    s.add_argument("--result", required=True)
    s.add_argument("--trace", action="store_true")
    s.add_argument("--toy", action="store_true")
    args = p.parse_args()
    common.pin_blas_threads()
    if args.job == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return {"gen": gen, "cli": cli, "stream": stream}[args.job](args)


if __name__ == "__main__":
    sys.exit(main())
