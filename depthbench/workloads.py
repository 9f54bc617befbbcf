"""Workload definitions: CLI commands per seed and their recorded references.

Each workload is a list of ``depthbound`` CLI commands, each run in a fresh
process.  A seed picks one of ``VARIANTS`` parameter sets (``seed %
VARIANTS``); set 0 is the canonical configuration, and the others move the
transverse field g and offset the β grids.  No set changes n or a grid
length, and the dense sets keep the size of the purification's environment
register, so the cost of a workload does not depend on the seed.  Every set
has reference outputs under ``reference/``, recorded by ``record.py``.
"""

from __future__ import annotations

import json
import lzma
import random
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 4
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``outputs`` are the CSV files it writes to its
    working directory.  ``--threads`` is appended when it runs."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]

    def with_threads(self, threads: int) -> list[str]:
        return list(self.argv) + ["--threads", str(threads)]


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _beta_offset(rng: random.Random) -> float:
    return round(rng.uniform(0.5, 5.0), 2)


def _dense_scan(variant: int, rng: random.Random) -> list[Command]:
    # The ranges keep the purification's environment register at 10, 10, 10
    # and 8 qubits across the beta grid, as in set 0.
    g, betas = 1.0, [0.5, 1.0, 2.0, 4.0]
    if variant:
        g = round(rng.uniform(0.85, 1.15), 3)
        shift = round(rng.uniform(0.05, 0.25), 2)
        betas = [b + shift for b in betas]
    argv = ("scan", "--backend", "dense", "--n", "10", "--g", f"{g:g}",
            "--beta-grid", ",".join(f"{b:g}" for b in betas), "--x-grid", "1:4",
            "--measure", "weak-x", "--out", "dense_scan.csv")
    return [Command(argv, ("dense_scan.csv",))]


def _dense_bound(variant: int, rng: random.Random) -> list[Command]:
    # (n, g, beta, x, g range, beta range); the ranges keep the environment
    # register of the purification (ceil(log2(rank)) qubits, rank = Gibbs
    # weights above 1e-14) at its set-0 size: 11, 10 and 6 qubits.
    cases = [(11, 1.0, 2.0, 2, (0.9, 1.05), (2.0, 2.1)),
             (10, 0.5, 1.0, 1, (0.4, 0.6), (1.0, 1.1)),
             (9, 1.5, 4.0, 3, (1.4, 1.6), (4.0, 4.1))]
    out = []
    for i, (n, g, beta, x, g_range, beta_range) in enumerate(cases):
        if variant:
            g = round(rng.uniform(*g_range), 3)
            beta = round(rng.uniform(*beta_range), 3)
        name = f"bound_{i}.csv"
        argv = ("bound", "--backend", "dense", "--n", str(n), "--g", f"{g:g}", "--beta", f"{beta:g}",
                "--x-grid", str(x), "--measure", "projective-x", "--out", name)
        out.append(Command(argv, (name,)))
    return out


def _ff_scan(variant: int, rng: random.Random) -> list[Command]:
    g, grid = 1.0, "10:100:10"
    if variant:
        g = round(rng.uniform(0.9, 1.1), 3)
        shift = _beta_offset(rng)
        grid = f"{10 + shift:g}:{100 + shift:g}:10"
    argv = ("scan", "--backend", "freefermion", "--n", "301", "--g", f"{g:g}",
            "--beta-grid", grid, "--x-grid", "1:79", "--out", "ff_scan.csv")
    return [Command(argv, ("ff_scan.csv",))]


def _fig2_cft(variant: int, rng: random.Random) -> list[Command]:
    fig2 = ("fig2", "--out", "fig2")
    grid = "10:100:10"
    if variant:
        shift = _beta_offset(rng)
        fig2 += ("--beta-grid", f"{10 + shift:g}:{100 + shift:g}:10")
        shift = _beta_offset(rng)
        grid = f"{10 + shift:g}:{100 + shift:g}:10"
    cft = ("scan", "--backend", "cft", "--beta-grid", grid, "--x-grid", "1:79", "--out", "cft_scan.csv")
    return [Command(fig2, ("fig2_ratio.csv", "fig2_depth.csv")), Command(cft, ("cft_scan.csv",))]


#: Why each workload is there is recorded in BENCHMARK.json.
_BUILDERS = {
    "dense-scan": _dense_scan,
    "dense-bound": _dense_bound,
    "ff-scan": _ff_scan,
    "fig2-cft": _fig2_cft,
}
WORKLOADS = tuple(_BUILDERS)


def commands(workload: str, seed: int) -> list[Command]:
    variant = variant_of(seed)
    return _BUILDERS[workload](variant, random.Random(f"{workload}/{variant}"))


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-{variant_of(seed)}.json.xz"


def load_reference(workload: str, seed: int) -> dict[str, str]:
    """CSV text by output file name, as the reference commit wrote it."""
    return json.loads(lzma.decompress(reference_path(workload, seed).read_bytes()))


def save_reference(workload: str, seed: int, outputs: dict[str, str]) -> None:
    data = json.dumps(outputs, sort_keys=True).encode()
    reference_path(workload, seed).write_bytes(lzma.compress(data, preset=9))
