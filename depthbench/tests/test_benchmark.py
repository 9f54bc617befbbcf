"""Tests of the benchmark itself: tracer, checker, workloads and runner.

Run from the repository root: python3 -m pytest depthbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: Small commands that together reach every traced function.
SMALL = (
    ("scan", "--backend", "dense", "--n", "6", "--g", "1.1", "--beta-grid", "1,2", "--x-grid", "1:2",
     "--measure", "weak-x", "--out", "dense.csv"),
    ("bound", "--n", "6", "--g", "0.9", "--beta", "2", "--x-grid", "2", "--measure", "projective-x",
     "--out", "bound.csv"),
    ("bound", "--n", "5", "--g", "0.9", "--beta", "1", "--x-grid", "1", "--measure", "projective-x",
     "--epsilon", "0.001", "--out", "eps.csv"),
    ("scan", "--backend", "freefermion", "--n", "41", "--g", "1", "--beta-grid", "5,10", "--x-grid", "1:5",
     "--out", "ff.csv"),
    ("fig2", "--n", "41", "--beta-grid", "10,20", "--x-grid", "1:3", "--out", "fig2"),
    ("scan", "--backend", "cft", "--beta-grid", "10,20", "--x-grid", "1:3", "--out", "cft.csv"),
)


def _run_small(tmp_path: Path, trace: bool) -> tuple[list[dict], dict[str, bytes]]:
    out_dir = tmp_path / ("traced" if trace else "plain")
    out_dir.mkdir()
    records = []
    for i, argv in enumerate(SMALL):
        result = tmp_path / f"result-{trace}-{i}.json"
        flags = ["--trace"] if trace else []
        subprocess.run([sys.executable, str(BENCH / "child.py"), str(result), *flags, "--", *argv],
                       cwd=out_dir, env=run.child_env(), check=True, timeout=120)
        record = json.loads(result.read_text())
        assert record["rc"] == 0, argv
        records.append(record)
    outputs = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.suffix == ".csv"}
    return records, outputs


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("small")
    return _run_small(tmp, trace=False), _run_small(tmp, trace=True)


def test_traced_outputs_identical_to_untraced(small_runs):
    (_, plain), (_, traced) = small_runs
    assert len(plain) == 7
    assert traced == plain


def test_tracer_reaches_every_target(small_runs):
    _, (records, _) = small_runs
    metrics = tracer.layer_metrics(r["spans"] for r in records)
    idle = [name for name in metrics if name.endswith(".calls") and metrics[name] == 0]
    assert idle == []
    assert metrics["cli.self_s"] > 0
    assert metrics["linalg.eigh.dim_max"] == 2**6  # the n = 6 Hamiltonian and Gibbs state
    # the dense scan builds its model once per beta, each bound its own model once
    assert metrics["models.to_matrix.per_model"] == pytest.approx(4 / 3)


def test_self_times_sum_within_traced_wall(small_runs):
    _, (records, _) = small_runs
    metrics = tracer.layer_metrics(r["spans"] for r in records)
    self_total = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS) + metrics["cli.self_s"]
    wall = sum(r["wall_s"] for r in records)
    assert 0 < self_total <= wall


def test_tracer_restores_patched_functions():
    import numpy as np

    import depthbound.cli as cli
    import depthbound.fermion as fermion
    from depthbound.models import SpinHamiltonian

    before = (np.linalg.eigh, cli.bdg_diagonalize, fermion.bdg_diagonalize, SpinHamiltonian.to_matrix)
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.bdg_diagonalize is fermion.bdg_diagonalize is not before[1]
        np.linalg.eigh(np.eye(3))
    finally:
        t.uninstall()
    assert (np.linalg.eigh, cli.bdg_diagonalize, fermion.bdg_diagonalize, SpinHamiltonian.to_matrix) == before
    assert [span[2] for span in t.spans] == ["linalg.eigh"]


def test_layer_metrics_self_time_and_per_model():
    spans = [
        (1, 0, "models.to_matrix", 0.1, 0.2, "A"),
        (2, 0, "linalg.eigh", 0.2, 0.5, 8),
        (0, -1, "models.gibbs_state", 0.0, 1.0, None),
        (3, -1, "models.to_matrix", 1.0, 1.5, "A"),
    ]
    other = [(0, -1, "models.to_matrix", 0.0, 0.25, "B")]
    m = tracer.layer_metrics([spans, other])
    assert m["models.gibbs_state.self_s"] == pytest.approx(0.6)
    assert m["models.to_matrix.calls"] == 3
    assert m["models.to_matrix.per_model"] == pytest.approx(1.5)
    assert m["models.self_s"] == pytest.approx(0.6 + 0.1 + 0.5 + 0.25)
    assert (m["linalg.eigh.work_d3"], m["linalg.eigh.dim_max"]) == (512, 8)
    assert m["fermion.bdg_diagonalize.per_model"] == 0


def _reference_rows(workload: str, name: str) -> tuple[str, list[str]]:
    text = workloads.load_reference(workload, 0)[name]
    lines = text.splitlines()
    return lines[0], lines[1:]


def _edit(line: str, column: str, header: str, change) -> str:
    cells = line.split(", ")
    i = header.split(", ").index(column)
    cells[i] = change(cells[i])
    return ", ".join(cells)


@pytest.mark.parametrize("workload,name", [("dense-scan", "dense_scan.csv"), ("ff-scan", "ff_scan.csv")])
def test_checker_accepts_reference_and_jitter(workload, name):
    header, rows = _reference_rows(workload, name)
    ref = "\n".join([header] + rows) + "\n"
    assert check.compare(ref, ref) == (len(rows), 0)
    jittered = [_edit(r, "chi_B", header, lambda v: repr(float(v) + 1e-10)) for r in rows]
    assert check.compare("\n".join([header] + jittered), ref) == (len(rows), 0)


@pytest.mark.parametrize("column,change", [
    ("depth_lb", lambda v: "0" if v != "0" else "1"),
    ("chi_B", lambda v: repr(float(v) + 1e-6)),
    ("chi_E", lambda v: repr(float(v) - 1e-6)),
    ("criterion", lambda v: repr(float(v) + 1e-6)),
    ("ratio", lambda v: repr(float(v) * (1 + 1e-6) + 1e-6)),
    ("n", lambda v: str(int(v) + 1)),
    ("backend", lambda v: "cft"),
])
def test_checker_rejects_single_row_change(column, change):
    header, rows = _reference_rows("dense-scan", "dense_scan.csv")
    ref = "\n".join([header] + rows) + "\n"
    broken = rows[:3] + [_edit(rows[3], column, header, change)] + rows[4:]
    assert check.compare("\n".join([header] + broken), ref) == (len(rows), 1)


def test_checker_fails_missing_extra_and_error_rows():
    header, rows = _reference_rows("dense-scan", "dense_scan.csv")
    ref = "\n".join([header] + rows) + "\n"
    assert check.compare(None, ref) == (len(rows), len(rows))
    assert check.compare("\n".join([header] + rows[:-2]), ref) == (len(rows), 2)
    assert check.compare("\n".join([header] + rows + rows[:1]), ref) == (len(rows) + 1, 1)
    with_error = [header + ", error"] + [r + ", " for r in rows[:-1]] + [rows[-1] + ", boom"]
    assert check.compare("\n".join(with_error), ref) == (len(rows), 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_parameters_not_row_counts(workload):
    base = workloads.commands(workload, 0)
    base_rows = {k: len(v.splitlines()) for k, v in workloads.load_reference(workload, 0).items()}
    for seed in range(1, workloads.VARIANTS):
        cmds = workloads.commands(workload, seed)
        assert [c.argv for c in cmds] != [c.argv for c in base]
        assert [c.outputs for c in cmds] == [c.outputs for c in base]
        assert [c.argv[:2] for c in cmds] == [c.argv[:2] for c in base]
        rows = {k: len(v.splitlines()) for k, v in workloads.load_reference(workload, seed).items()}
        assert rows == base_rows
    assert workloads.commands(workload, workloads.VARIANTS + 1) == workloads.commands(workload, 1)


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names[: len(tracer.metric_names())] == tracer.metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_exits_nonzero_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "depthbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "depthbench/run.py", "--workload", "ff-scan", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
