"""Workload table, paths and run-environment record shared by the
benchmark's parent process and its workers.

Every path is inside the checkout that holds this directory: the program
is imported from its `src/` tree and scratch files go to `.perfbench_work/`.
"""

import ctypes
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# The declared metrics and their units come from BENCHMARK.json alone.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}

# macro_acc of the first pass for each workload and seed, recorded from
# the program by expected.py; a run whose accuracy differs is not correct.
EXPECTED = Path(__file__).resolve().parent / "expected_acc.json"


def expected_acc(workload: str, seed: int):
    """The stored macro_acc for this workload and seed, or None."""
    table = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    return table.get(workload, {}).get(str(seed))

# Each workload names the synthetic shape it is generated at (a real run
# and a toy run for the harness self-check), the engine settings, and how
# the program is driven.  Why each exists is in BENCHMARK.json.
WORKLOADS = {
    # DomainNet scale: 345 classes x 5 domains x 58 per cell = 100,050 x 512
    "transduce-100k": {
        "kind": "cli",
        "spec": dict(n_classes=345, n_domains=5, dim=512, samples_per_cell=58),
        "toy_spec": dict(n_classes=10, n_domains=3, dim=32, samples_per_cell=20),
        "cfg": dict(clusters=5),
        "toy_cfg": dict(clusters=3),
    },
    # 10,350 rows, so one pass is 104 batches of 100
    "stream-b100": {
        "kind": "stream",
        "batch": 100,
        "spec": dict(n_classes=345, n_domains=5, dim=512, samples_per_cell=6),
        "toy_spec": dict(n_classes=10, n_domains=3, dim=32, samples_per_cell=10),
        "cfg": dict(clusters=5),
        "toy_cfg": dict(clusters=3),
    },
    # the default 1,500 x 32 shape, one row per call
    "stream-b1-ema": {
        "kind": "stream",
        "batch": 1,
        "spec": dict(),
        "toy_spec": dict(samples_per_cell=5),
        "cfg": dict(clusters=3, mode="ema"),
        "toy_cfg": dict(clusters=3, mode="ema"),
    },
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """Give OpenBLAS one thread per usable core; children inherit it.

    Must run before numpy is imported.  OpenBLAS otherwise sizes its pool
    from the machine's core count, which can exceed what this process may
    use.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = str(nproc())


def import_umfc():
    """Import umfc from this checkout's source tree, never from elsewhere."""
    if not (SRC / "umfc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no umfc source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import umfc

    if Path(umfc.__file__).resolve().parent != (SRC / "umfc").resolve():
        raise SystemExit(f"perfbench: imported umfc from {umfc.__file__}, not {SRC}")
    return umfc


def _openblas():
    """The OpenBLAS library this process has loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _blas_call(names, restype):
    lib = _openblas()
    if lib is None:
        return None
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def blas_threads():
    """Threads OpenBLAS will use in this process, or None when unknown."""
    return _blas_call(
        ("openblas_get_num_threads", "openblas_get_num_threads64_",
         "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"),
        ctypes.c_int,
    )


def environment() -> dict:
    """What the numbers were measured on; call after numpy is imported."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    config = _blas_call(
        ("openblas_get_config", "openblas_get_config64_",
         "scipy_openblas_get_config64_", "scipy_openblas_get_config"),
        ctypes.c_char_p,
    )
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": config.decode() if config else None,
        "blas_threads": blas_threads(),
    }
