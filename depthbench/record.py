"""Record reference outputs for every workload and parameter set.

Usage (from the repository root): python3 depthbench/record.py [WORKLOAD ...]

Runs each workload's commands once per parameter set with the program in
``src/`` and stores the CSV files they write under ``depthbench/reference/``.
The references in the repository were recorded at the commit that added the
benchmark; re-record only when an output is meant to change.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from pathlib import Path

import check
import run
import workloads


def record(name: str, variant: int, work_dir: Path) -> dict[str, str]:
    commands = workloads.commands(name, variant)
    runner = run.Runner(commands, None, work_dir, time.monotonic() + run.TIME_LIMIT_S)
    records, rep_dir = runner.run_commands()
    outputs = {}
    for cmd, result in zip(commands, records):
        if result is None or result["rc"] != 0:
            raise SystemExit(f"command failed: {cmd.argv}")
        for out in cmd.outputs:
            outputs[out] = (rep_dir / out).read_text()
            if "error" in check.parse_csv(outputs[out])[0]:
                raise SystemExit(f"error rows in {out} of {cmd.argv}")
    return outputs


def main(names: list[str]) -> int:
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="record-", dir=run.ROOT / ".bench_work"))
    try:
        for name in names or workloads.WORKLOADS:
            for variant in range(workloads.VARIANTS):
                outputs = record(name, variant, work_dir)
                workloads.save_reference(name, variant, outputs)
                rows = sum(len(check.parse_csv(text)[1]) for text in outputs.values())
                print(f"{name} set {variant}: {rows} rows")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
