"""Per-layer tracing from outside the program.

The tracer replaces each layer's public function with a timing wrapper
at every module attribute of the loaded `umfc` package that refers to it
(for example `umfc.engine.calibrate_bank`, which `engine` calls, and
`umfc.io.read_embeddings`, which `cli` reaches through `uio`).  It edits
no source.  A boundary whose function no longer exists is recorded as
missing, and the metrics built on it are left out rather than reported
as zero.

For every boundary it keeps calls, busy time (summed wall time of the
calls) and self time (busy time minus the wrapped calls beneath), and a
few keep a counter taken from their arguments or result.  The wrappers'
own bookkeeping is taken out of the time of every call that encloses it.

With track_peak set, three boundaries also record the peak of memory
traced by `tracemalloc` during the call.  Tracemalloc slows every
allocation, so it runs only while such a call is open, and the benchmark
turns it on only for the untimed warm-up.
"""

import importlib
import os
import sys
import time
import tracemalloc

MB = 1024.0 * 1024.0


def _lloyd_iters(args, result):
    return {"lloyd_iters": len(result[0].inertia_history)}


def _bank_rows(args, result):
    return {"rows": result.data.shape[0]}


def _prob_rows(args, result):
    return {"rows": result.shape[0]}


def _flag_rows(args, result):
    preds = result[0]
    return {
        "degenerate_rows": sum("degenerate" in p.flags for p in preds),
        "uncalibrated_rows": sum("uncalibrated" in p.flags for p in preds),
    }


def _bytes_read(args, result):
    path = str(args[0])
    sidecar = path + ".labels"
    extra = os.path.getsize(sidecar) if os.path.exists(sidecar) else 0
    return {"bytes": os.path.getsize(path) + extra}


# boundary name -> (defining module, attribute, counter hook, track peak memory)
BOUNDARIES = {
    "core.l2_normalize_rows": ("umfc.core", "l2_normalize_rows", None, False),
    "clustering.kmeans_fit": ("umfc.clustering", "kmeans_fit", _lloyd_iters, True),
    "clustering.assign_batch": ("umfc.clustering", "assign_batch", None, False),
    "clustering.batch_cluster_means": ("umfc.clustering", "batch_cluster_means", None, False),
    "calib.calibrate_bank": ("umfc.calib", "calibrate_bank", _bank_rows, False),
    "calib.classify_batch": ("umfc.calib", "classify_batch", _prob_rows, False),
    "engine.transduce": ("umfc.engine", "transduce", _flag_rows, True),
    "engine.stream_step": ("umfc.engine", "stream_step", _flag_rows, False),
    "io.read_embeddings": ("umfc.io", "read_embeddings", _bytes_read, True),
    "io.read_text_bank": ("umfc.io", "read_text_bank", None, False),
    "diagnostics.per_domain_accuracy": ("umfc.diagnostics", "per_domain_accuracy", None, False),
    "cli.main": ("umfc.cli", "main", None, False),
}


class _Frame:
    __slots__ = ("child", "excluded", "peak", "base")

    def __init__(self):
        self.child = 0.0  # time covered by wrapped calls beneath
        self.excluded = 0.0  # wrapper bookkeeping inside this call
        self.peak = 0  # highest traced memory seen while open
        self.base = 0  # traced memory at entry


class Tracer:
    """Install with install(); read raw totals with snapshot()."""

    def __init__(self, track_peak: bool = False):
        self.track_peak = track_peak
        self.peaks = {name: 0.0 for name, spec in BOUNDARIES.items() if spec[3]}
        self.missing = []
        self._stack = []
        self._peak_depth = 0  # open calls that track peak memory
        self._started_tracemalloc = False
        self.reset()

    def reset(self) -> None:
        self.stats = {name: {"calls": 0, "busy": 0.0, "self": 0.0, "counters": {}} for name in BOUNDARIES}
        self.broken = set()  # counters whose hook failed

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "umfc" or n.startswith("umfc.")]
        for name, (modname, attr, hook, peak) in BOUNDARIES.items():
            try:
                original = getattr(importlib.import_module(modname), attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, hook, peak)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _open_peak(self, frame: _Frame) -> None:
        if self._peak_depth == 0 and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        cur, peak = tracemalloc.get_traced_memory()
        for f in self._stack:
            f.peak = max(f.peak, peak)
        tracemalloc.reset_peak()
        frame.base = frame.peak = cur
        self._peak_depth += 1

    def _close_peak(self, frame: _Frame) -> float:
        _, peak = tracemalloc.get_traced_memory()
        frame.peak = max(frame.peak, peak)
        for f in self._stack:
            f.peak = max(f.peak, frame.peak)
        self._peak_depth -= 1
        if self._peak_depth == 0 and self._started_tracemalloc:
            tracemalloc.stop()
            self._started_tracemalloc = False
        return (frame.peak - frame.base) / MB

    def _wrap(self, name, fn, hook, peak):
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = _Frame()
            tracked = peak and self.track_peak
            if tracked:
                self._open_peak(frame)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                busy = t1 - t0 - frame.excluded
                st = self.stats[name]
                st["calls"] += 1
                st["busy"] += busy
                st["self"] += busy - frame.child
                if stack:
                    stack[-1].child += busy
                if tracked:
                    self.peaks[name] = max(self.peaks[name], self._close_peak(frame))
            if hook is not None and name not in self.broken:
                try:
                    for key, value in hook(args, result).items():
                        st["counters"][key] = st["counters"].get(key, 0) + int(value)
                except Exception:  # the result changed shape: report the counter as missing
                    self.broken.add(name)
            # everything after the call returned is bookkeeping
            overhead = time.perf_counter() - t1
            for f in stack:
                f.excluded += overhead
            return result

        return wrapper

    def snapshot(self) -> dict:
        """Totals since the last reset and peaks since creation, as JSON-able data."""
        return {"stats": self.stats, "peaks": self.peaks, "missing": self.missing,
                "broken": sorted(self.broken)}


def merge(snapshots):
    """Sum the totals of several traced processes; peaks take the max."""
    out = {"stats": {}, "peaks": {}, "missing": set(), "broken": set()}
    for snap in snapshots:
        out["missing"].update(snap["missing"])
        out["broken"].update(snap["broken"])
        for name, mb in snap["peaks"].items():
            out["peaks"][name] = max(out["peaks"].get(name, 0.0), mb)
        for name, st in snap["stats"].items():
            acc = out["stats"].setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0, "counters": {}})
            acc["calls"] += st["calls"]
            acc["busy"] += st["busy"]
            acc["self"] += st["self"]
            for key, value in st["counters"].items():
                acc["counters"][key] = acc["counters"].get(key, 0) + value
    return out
