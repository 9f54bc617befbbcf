"""The backends as a library: import cost, export lists, rows against the
CLI, and the README's Python examples."""

import importlib
import json
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


_IMPORT_LINE = """\
import json, sys
import depthbound.cli as cli

LATE = ("depthbound.oracles", "configparser", "concurrent.futures", "logging")
seen = {"import": [m for m in LATE if m in sys.modules]}
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    seen[argv[0] + " " + argv[-1]] = [code] + [m for m in LATE if m in sys.modules]
print(json.dumps(seen))
"""


def test_cli_runs_import_no_oracles(tmp_path):
    """``import depthbound.cli`` loads neither the oracle routes nor the
    stdlib that only ``--config`` and worker threads use, and no backend's
    run loads the oracles: in one process, after a dense weak-x scan, a
    dense projective-x JSON bound, a free-fermion scan, a small ``fig2``
    and a cft scan and bound, ``depthbound.oracles`` is still absent.  A
    ``--config`` run then loads ``configparser``, a ``--threads 2`` run
    ``concurrent.futures``, and only ``selftest`` loads the oracles."""
    (tmp_path / "run.ini").write_text("[run]\nbackend = freefermion\nn = 21\ng = 1\nbeta = 2\nx_grid = 3\n")
    runs = [
        ["scan", "--backend", "dense", "--n", "6", "--g", "1", "--beta-grid", "0.5,2", "--x-grid", "1:2",
         "--measure", "weak-x", "--out", "dense.csv"],
        ["bound", "--backend", "dense", "--n", "6", "--g", "1", "--beta", "1", "--x-grid", "2",
         "--measure", "projective-x", "--format", "json"],
        ["scan", "--backend", "freefermion", "--n", "21", "--g", "1", "--beta-grid", "5,10", "--x-grid", "1:3",
         "--out", "ff.csv"],
        ["fig2", "--n", "21", "--beta-grid", "5", "--x-grid", "2", "--out", "f2"],
        ["scan", "--backend", "cft", "--beta-grid", "10,20", "--x-grid", "1:3", "--out", "cft.csv"],
        ["bound", "--backend", "cft", "--beta", "50", "--x-grid", "10"],
        ["bound", "--config", "run.ini"],
        ["scan", "--backend", "freefermion", "--n", "21", "--g", "1", "--beta-grid", "5,10", "--x-grid", "1",
         "--out", "threads.csv", "--threads", "2"],
        ["selftest", "--seed", "0"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(backends.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _IMPORT_LINE, json.dumps(runs)], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout
    seen = json.loads(out.splitlines()[-1])
    assert seen == {
        "import": [],
        "scan dense.csv": [0],
        "bound json": [0],
        "scan ff.csv": [0],
        "fig2 f2": [0],
        "scan cft.csv": [0],
        "bound 10": [0],
        "bound run.ini": [0, "configparser"],
        "scan 2": [0, "configparser", "concurrent.futures", "logging"],
        "selftest 0": [0, "depthbound.oracles", "configparser", "concurrent.futures", "logging"],
    }


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


def test_import_depthbound_loads_no_layer_module():
    """``import depthbound`` loads numpy, under its OpenBLAS thread timeout,
    and of the package's modules only ``_openblas``; a name loads its home
    module on first use, with what that module imports and nothing else."""
    code = ("import sys, depthbound\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('depthbound.'))\n"
            "print(loaded(), 'numpy' in sys.modules)\n"
            "depthbound.g_func\n"
            "print(loaded())\n")
    env = dict(os.environ, PYTHONPATH=str(Path(backends.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["['depthbound._openblas'] True", "['depthbound._openblas', 'depthbound.bounds']"]


def test_package_names_resolve_from_their_home_modules():
    """Each name of the package is its home module's own object and, once
    read, is bound in ``vars(depthbound)``, also after it was dropped there;
    ``dir`` lists every export, and each home module's name gives the
    module itself."""
    assert set(depthbound.__all__) <= set(dir(depthbound))
    for home, names in depthbound._PUBLIC.items():
        module = importlib.import_module(f"depthbound.{home}")
        assert getattr(depthbound, home) is module
        for name in names:
            vars(depthbound).pop(name, None)
            assert getattr(depthbound, name) is getattr(module, name), name
            assert vars(depthbound)[name] is getattr(module, name), name
    assert depthbound.fermion is sys.modules["depthbound.fermion"]
    with pytest.raises(AttributeError, match="module 'depthbound' has no attribute 'gibbs'"):
        depthbound.gibbs


def test_oracle_routes_resolve_from_their_old_modules():
    """Each oracle route resolves from the one module it left, and from the
    package if it exports the name, as the oracles' own object, and is then
    bound in that module's namespace, where an outside tracer reading
    ``vars(module)`` finds it."""
    from depthbound import oracles, perturbative, purification, states

    old_homes = (states, purification, perturbative, models)
    for name in oracles.__all__:
        value = getattr(oracles, name)
        assert value.__module__ == "depthbound.oracles", name
        (home,) = [module for module in old_homes if name in module.__all__]
        for module in (home, depthbound) if name in depthbound.__all__ else (home,):
            assert getattr(module, name) is value, name
            assert vars(module)[name] is value, name
    assert models._richardson is oracles._richardson
    with pytest.raises(AttributeError, match="has no attribute 'gibbs_state'"):
        states.gibbs_state


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
