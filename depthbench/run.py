"""Benchmark of the depthbound CLI.

Usage (from the repository root):

    python3 depthbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every CLI command of a workload (see ``workloads.py``) runs in a fresh Python
process, the way users invoke ``depthbound``, so module-level caches start
cold each time.  Each run checks every output row against the recorded
reference (``check.py``) and prints, as its last stdout line, one JSON object
with ``correct``, ``attempted`` and ``failed`` (output rows) and ``metrics``.

``--trace 0`` repeats the workload untraced for about S seconds and reports
medians over the repetitions of

* ``wall_s``: time from the end of ``import depthbound.cli`` to the finished
  dataset, summed over the workload's commands;
* ``cpu_s``: user + system CPU seconds over the same span;
* ``peak_rss_mb``: the highest peak RSS of any process of the workload;
* ``setup_s``: time to ``import depthbound.cli`` in a fresh process, the
  median over every workload process and, if these are fewer than
  ``SETUP_SAMPLES``, import-only processes.

``--trace 1`` alternates untraced and traced repetitions (``tracer.py``) and
runs the workload once more with ``--threads 2``; it reports the per-layer
metrics named in ``BENCHMARK.json``, the speed-up from the second thread and
the tracing overhead among them.  The BLAS thread count is left at its default,
and the machine record printed before the result shows it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A run must end within 180 s; any process still running this many seconds
#: into the run is stopped.
TIME_LIMIT_S = 170.0
#: setup_s is the median of at least this many imports; import-only
#: processes top up what the workload's own processes give.
SETUP_SAMPLES = 5
MIN_REPS = 2


class OutOfTime(Exception):
    """The run reached ``TIME_LIMIT_S``."""


@dataclass
class Rep:
    """One pass over a workload's commands."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    rows: int = 0
    out_bytes: int = 0
    spans: list = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # DEPTHBOUND_THREADS would override the --threads the commands pass.
    env.pop("DEPTHBOUND_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Spawns the workload's processes and checks what they write."""

    def __init__(self, commands: list[workloads.Command], reference: dict[str, str] | None,
                 work_dir: Path, deadline: float):
        self.commands = commands
        self.reference = reference
        self.work_dir = work_dir
        self.deadline = deadline
        self.env = child_env()
        self.import_s: list[float] = []
        self.machine: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.reps: list[Rep] = []
        self._results = 0

    def spawn(self, cwd: Path, flags: list[str], argv: list[str] | None = None) -> dict | None:
        """Run child.py once; its record, or None if it crashed."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise OutOfTime
        self._results += 1
        result = self.work_dir / f"result-{self._results}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result), *flags]
        if argv is not None:
            cmd += ["--", *argv]
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise OutOfTime from None
        if proc.returncode != 0 or not result.exists():
            print(f"child failed (exit {proc.returncode}): {argv}\n{proc.stderr[-4000:]}", file=sys.stderr)
            return None
        record = json.loads(result.read_text())
        result.unlink()
        self.import_s.append(record["import_s"])
        if "machine" in record:
            self.machine = record["machine"]
        return record

    def top_up_imports(self, count: int) -> None:
        """Import-only processes until ``count`` imports have been timed."""
        while len(self.import_s) < count:
            self.spawn(self.work_dir, [])

    def run_commands(self, threads: int = 1, trace: bool = False) -> tuple[list[dict | None], Path]:
        rep_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        records = []
        for cmd in self.commands:
            flags = ["--trace"] if trace else []
            if self.machine is None:
                flags.append("--machine")
            records.append(self.spawn(rep_dir, flags, cmd.with_threads(threads)))
        return records, rep_dir

    def rep(self, threads: int = 1, trace: bool = False) -> Rep:
        records, rep_dir = self.run_commands(threads, trace)
        out = Rep()
        try:
            for cmd, record in zip(self.commands, records):
                ok = record is not None and record.get("rc") == 0
                if record is not None:
                    out.wall_s += record["wall_s"]
                    out.cpu_s += record["cpu_s"]
                    out.peak_rss_mb = max(out.peak_rss_mb, record["maxrss_mb"])
                    out.spans.append(record.get("spans", []))
                for name in cmd.outputs:
                    path = rep_dir / name
                    got = path.read_text() if ok and path.exists() else None
                    attempted, failed = check.compare(got, self.reference[name])
                    self.attempted += attempted
                    self.failed += failed
                    if got is not None:
                        out.rows += len(check.parse_csv(got)[1])
            out.out_bytes = sum(p.stat().st_size for p in rep_dir.iterdir())
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)
        return out


def repeat(run_once, seconds: float, deadline: float, min_reps: int) -> list:
    """Call ``run_once`` at least ``min_reps`` times, then while another call
    (of median duration) still ends within ``seconds``."""
    start = time.monotonic()
    results, durations = [], []
    while True:
        if len(results) >= min_reps:
            expected = time.monotonic() + statistics.median(durations)
            if expected - start > seconds or expected > deadline:
                return results
        t0 = time.monotonic()
        results.append(run_once())
        durations.append(time.monotonic() - t0)


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    reps = runner.reps = repeat(runner.rep, seconds, runner.deadline, MIN_REPS)
    runner.top_up_imports(SETUP_SAMPLES)
    return {
        "wall_s": statistics.median(r.wall_s for r in reps),
        "cpu_s": statistics.median(r.cpu_s for r in reps),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
        "setup_s": statistics.median(runner.import_s),
    }


def per_layer(runner: Runner, seconds: float) -> dict[str, float]:
    pairs = repeat(lambda: (runner.rep(), runner.rep(trace=True)), seconds, runner.deadline, 1)
    plain, traced = [p for p, _ in pairs], [t for _, t in pairs]
    threads2 = runner.rep(threads=2)
    runner.reps = plain + traced + [threads2]
    layers = [tracer.layer_metrics(rep.spans) for rep in traced]
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    plain_wall = statistics.median(r.wall_s for r in plain)
    metrics["cli.rows"] = traced[0].rows
    metrics["cli.out_bytes"] = traced[0].out_bytes
    metrics["cli.threads2_speedup"] = plain_wall / threads2.wall_s
    metrics["trace.overhead_frac"] = statistics.median(r.wall_s for r in traced) / plain_wall - 1.0
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    # On SIGTERM, unwind so that the running child is killed and waited for
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "depthbound" / "cli.py").is_file():
        print(f"no depthbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        runner = Runner(workloads.commands(args.workload, args.seed),
                        workloads.load_reference(args.workload, args.seed), work_dir, deadline)
        measure = per_layer if args.trace else end_to_end
        try:
            values = measure(runner, args.seconds)
        except OutOfTime:
            print(f"run exceeded {TIME_LIMIT_S:.0f} s", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if set(values) != set(declared):
        print(f"metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print("machine " + json.dumps(runner.machine, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {runner.failed}/{runner.attempted} rows failed, "
          f"failed_frac {runner.failed / max(runner.attempted, 1):.6g}, "
          f"wall_s per pass {[round(r.wall_s, 3) for r in runner.reps]}")
    print(json.dumps({
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": declared[name]} for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
