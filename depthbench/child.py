"""Run one depthbound CLI command in this fresh process and record its cost.

Usage: child.py RESULT_JSON [--trace] [--machine] [-- CLI ARGS...]

Times ``import depthbound.cli``, then, if CLI arguments follow ``--``, runs
``depthbound.cli.main`` on them and records wall time, user + system CPU
time, the exit code and, with ``--trace``, the spans of the outside-in
tracer.  Peak RSS is always recorded.  ``--machine`` adds the machine
record, taken after the measurement.
The result is written as JSON to RESULT_JSON; a crash writes nothing.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if any."""
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import platform

    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu_model = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": _blas_threads(),
        },
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith(("OPENBLAS_", "OMP_"))},
    }


def main() -> int:
    args = sys.argv[1:]
    cli_args = args[args.index("--") + 1:] if "--" in args else None
    flags = args[: args.index("--")] if "--" in args else args
    result_path = Path(flags[0])

    start = time.perf_counter()
    import depthbound.cli as cli

    record: dict = {"import_s": time.perf_counter() - start}
    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"depthbound imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    if cli_args is not None:
        entry = cli.main
        tracer = None
        if "--trace" in flags:
            from tracer import ROOT, Tracer

            tracer = Tracer()
            tracer.install()
            entry = tracer.wrap(ROOT, cli.main)
        cpu0 = _cpu_s()
        wall0 = time.perf_counter()
        record["rc"] = entry(cli_args)
        record["wall_s"] = time.perf_counter() - wall0
        record["cpu_s"] = _cpu_s() - cpu0
        if tracer is not None:
            record["spans"] = tracer.spans
    record["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if "--machine" in flags:
        record["machine"] = machine_record()
    result_path.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
