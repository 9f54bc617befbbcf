"""The backends as a library: import cost, export lists, rows against the
CLI, and the README's Python examples."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import depthbound
from depthbound import backends, models
from depthbound.cli import main

README = Path(__file__).parent.parent / "README.md"


def test_import_loads_no_cli_argparse_or_scipy():
    code = ("import sys, depthbound.backends\n"
            "print(sorted(m for m in sys.modules if m in ('depthbound.cli', 'argparse') "
            "or m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(backends.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_every_export_resolves():
    """Every name in a module's ``__all__`` and in the package's resolves, and
    the package exports only what its modules export (and its version), so
    a deleted name cannot leave a dangling export."""
    exported = set()
    for info in pkgutil.iter_modules(depthbound.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"depthbound.{info.name}")
        names = getattr(module, "__all__", [])
        assert [name for name in names if not hasattr(module, name)] == [], info.name
        exported.update(names)
    assert [name for name in depthbound.__all__ if not hasattr(depthbound, name)] == []
    assert len(set(depthbound.__all__)) == len(depthbound.__all__)
    assert set(depthbound.__all__) - exported == {"__version__"}


def _cells(ctx, x):
    """The row of one point as the CSV prints it."""
    x_ab, chi_b = ctx.at(x)
    verdict = ctx.verdict(chi_b, x_ab)
    values = (ctx.beta, ctx.model.g, ctx.model.n, x_ab, chi_b, ctx.chi_e, chi_b / ctx.chi_e,
              verdict.criterion_value, verdict.threshold, verdict.epsilon, verdict.depth_lower_bound)
    return ["%d" % v if isinstance(v, int) else "%.12g" % v for v in values] + [ctx.model.backend]


@pytest.mark.parametrize(
    "model, argv",
    [
        (lambda: backends.DenseModel(models.build_tfim(8, 1.0), "weak-x", 3, 1.0),
         ("--n", "8", "--g", "1", "--measure", "weak-x")),
        (lambda: backends.DenseModel(models.build_tfim(7, 0.8), "projective-x", 2, 0.8),
         ("--n", "7", "--g", "0.8", "--measure", "projective-x", "--site", "2")),
        (lambda: backends.FermionModel(41, 1.0, 20), ("--backend", "freefermion", "--n", "41", "--g", "1")),
        (lambda: backends.CftModel(backends.DEFAULT_N, 1.0), ("--backend", "cft")),
    ],
    ids=["dense-weak", "dense-projective", "freefermion", "cft"],
)
def test_library_row_equals_scan_row(tmp_path, model, argv):
    out = tmp_path / "scan.csv"
    assert main(["scan", *argv, "--beta", "2", "--x-grid", "2", "--epsilon", "0.01", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(", ")
    assert _cells(model().context(2.0, 0.01), 2) == row


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
