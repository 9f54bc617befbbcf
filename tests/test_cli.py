"""End-to-end command-line behavior: exit codes, CSV schema, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from depthbound import backends, fermion, models
from depthbound.cft import c_constant, fit_kappa
from depthbound.cli import main
from depthbound.fermion import bdg_diagonalize, connected_xx, thermal_covariance, x_expectation
from depthbound.perturbative import correlator_lb_value

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(__file__).resolve().parents[1] / "src")

HEADER = "beta, g, n, x_ab, chi_B, chi_E, ratio, criterion, threshold, epsilon, depth_lb, backend"


def run(*argv):
    return main(list(argv))


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(", ")
    return header, [dict(zip(header, ln.split(", "))) for ln in lines[1:]]


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def test_bound_cft_exact_preparation_pinned_value(capsys):
    assert run("bound", "--backend", "cft", "--beta", "50", "--epsilon", "0") == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert ", ".join(header) == HEADER
    (row,) = rows
    assert row["backend"] == "cft"
    assert row["n"] == "0"
    assert float(row["depth_lb"]) == pytest.approx(2.757945001908145, abs=1e-11)
    assert float(row["chi_E"]) > 0


def test_bound_dense_small_chain(capsys):
    rc = run("bound", "--n", "6", "--g", "1.1", "--beta", "2.0", "--x-grid", "2")
    assert rc == 0
    _, rows = parse_csv(capsys.readouterr().out)
    (row,) = rows
    assert row["backend"] == "dense"
    assert row["x_ab"] == "2"
    chi_b, chi_e = float(row["chi_B"]), float(row["chi_E"])
    assert 0 < chi_b < chi_e  # B is far from the probe; E holds the record
    assert float(row["ratio"]) == pytest.approx(chi_b / chi_e, rel=1e-10)


def test_bound_freefermion_against_dense(capsys):
    """Same chain through both backends: chi_E agrees exactly, while the
    fermion chi_B is the two-point lower bound and may only fall below the
    dense many-body value."""
    assert run("bound", "--n", "8", "--g", "1.0", "--beta", "3.0", "--x-grid", "2",
               "--measure", "weak-x") == 0
    _, dense_rows = parse_csv(capsys.readouterr().out)
    assert run("bound", "--backend", "freefermion", "--n", "8", "--g", "1.0",
               "--beta", "3.0", "--x-grid", "2") == 0
    _, ff_rows = parse_csv(capsys.readouterr().out)
    assert float(ff_rows[0]["chi_E"]) == pytest.approx(float(dense_rows[0]["chi_E"]), rel=1e-7)
    assert 0 < float(ff_rows[0]["chi_B"]) <= float(dense_rows[0]["chi_B"]) * (1 + 1e-9)


def test_bound_json_format(capsys):
    assert run("bound", "--backend", "cft", "--beta", "40", "--format", "json") == 0
    record = json.loads(capsys.readouterr().out)
    assert record["backend"] == "cft"
    assert record["version"]
    assert record["wall_time_seconds"] >= 0
    assert record["depth_lb"] == pytest.approx(40 * math.log(2) / (4 * math.pi), rel=1e-12)


def test_bound_writes_out_file(tmp_path):
    out = tmp_path / "row.csv"
    assert run("bound", "--backend", "cft", "--beta", "30", "--out", str(out)) == 0
    header, rows = parse_csv(out.read_text())
    assert ", ".join(header) == HEADER
    assert len(rows) == 1


def test_bound_k_eps_is_inverted(capsys):
    assert run("bound", "--backend", "freefermion", "--n", "41", "--g", "1.0",
               "--beta", "8.0", "--x-grid", "3", "--k-eps", "1e-5") == 0
    _, rows = parse_csv(capsys.readouterr().out)
    eps = float(rows[0]["epsilon"])
    assert eps == pytest.approx(1.46336337323e-7, rel=1e-6)
    assert float(rows[0]["threshold"]) == pytest.approx(12 * eps, rel=1e-9)


def test_bound_cft_distance_far_below_beta(capsys):
    """2 pi x / beta = 6e-100: ln(1 - e^{-y}) must not round to ln 0."""
    assert run("bound", "--backend", "cft", "--beta", "1e100", "--x-grid", "1") == 0
    _, (row,) = parse_csv(capsys.readouterr().out)
    assert math.isfinite(float(row["chi_B"])) and float(row["chi_B"]) > 0


def test_bound_cft_depth_at_largest_beta(capsys):
    """c beta^2 eps overflows at the top of the accepted beta range; the
    depth tends to 1/(4 pi sqrt(c eps)) there."""
    assert run("bound", "--backend", "cft", "--beta", "1.34e154", "--epsilon", "0.1",
               "--format", "json") == 0
    record = json.loads(capsys.readouterr().out)
    c = c_constant(1.0, record["kappa"])
    assert record["depth_lb"] == pytest.approx(1.0 / (4.0 * math.pi * math.sqrt(0.1 * c)), rel=1e-12)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "--n", "6", "--g", "1.0", "--x-grid", "2"),  # no beta
        ("bound", "--backend", "cft", "--beta", "50", "--epsilon", "0", "--k-eps", "1e-5"),
        ("bound", "--backend", "cft", "--beta", "50", "--epsilon=-1e-3"),
        ("bound", "--backend", "freefermion", "--n", "21", "--g", "1", "--beta", "2"),  # no x
        ("scan", "--n", "21", "--backend", "freefermion", "--g", "1", "--beta", "2",
         "--x-grid", "3"),  # no --out
        ("bound", "--n", "6", "--g", "1.0", "--beta", "1.0", "--region-b", "2",
         "--site", "2"),  # probe inside B
        ("fig2",),  # no --out
        ("scan", "--out", "/tmp/x.csv", "--n", "9", "--g", "1", "--beta", "1",
         "--x-grid", "1,2,x"),  # bad grid
        ("bound", "--n", "6", "--g", "1.0", "--beta", "1.0", "--x-grid", "1",
         "--site", "6"),  # dense probe off the chain
        ("bound", "--n", "6", "--g", "1.0", "--beta", "1.0", "--region-b", "0",
         "--site=-1"),  # negative probe site
        ("bound", "--backend", "freefermion", "--n", "21", "--g", "1", "--beta", "2",
         "--x-grid", "3", "--site", "21"),  # freefermion probe off the chain
        ("scan", "--out", "/tmp/x.csv", "--backend", "freefermion", "--n", "21", "--g", "1",
         "--beta", "2", "--x-grid", "3", "--site", "30"),
        ("bound", "--n", "6", "--g", "1.0", "--beta=-1", "--x-grid", "2"),  # dense beta < 0
        ("bound", "--backend", "cft", "--beta=-1"),  # cft beta < 0
        ("scan", "--out", "/tmp/x.csv", "--n", "6", "--g", "1", "--beta-grid=-1,1",
         "--x-grid", "1"),  # dense beta grid < 0
        ("scan", "--out", "/tmp/x.csv", "--backend", "cft", "--beta-grid=-1,1",
         "--x-grid", "1"),  # cft beta grid < 0
        ("bound", "--n", "1", "--g", "1.0", "--beta", "1.0", "--x-grid", "1"),  # tfim n < 2
        ("bound", "--backend", "cft", "--beta", "0"),  # cft divides by beta
        ("scan", "--out", "/tmp/x.csv", "--backend", "cft", "--beta-grid", "0,1",
         "--x-grid", "1"),  # cft beta grid with 0
        ("bound", "--n", "6", "--g", "1.0", "--beta", "nan", "--x-grid", "2"),  # dense nan
        ("bound", "--n", "6", "--g", "1.0", "--beta", "inf", "--x-grid", "2"),  # dense inf
        ("bound", "--backend", "freefermion", "--n", "21", "--g", "1", "--beta", "nan",
         "--x-grid", "3"),  # freefermion nan
        ("bound", "--backend", "freefermion", "--n", "21", "--g", "1", "--beta", "inf",
         "--x-grid", "3"),  # freefermion inf
        ("bound", "--backend", "cft", "--beta", "nan"),  # cft nan
        ("bound", "--backend", "cft", "--beta", "inf", "--x-grid", "1"),  # cft inf
        ("scan", "--out", "/tmp/x.csv", "--backend", "freefermion", "--n", "21", "--g", "1",
         "--beta-grid", "1,nan", "--x-grid", "3"),  # nan in a beta grid
        ("scan", "--out", "/tmp/x.csv", "--n", "6", "--g", "1", "--beta-grid", "1:inf",
         "--x-grid", "1"),  # unbounded beta range
        ("bound", "--n", "6", "--g", "1.0", "--beta", "1.0", "--x-grid", "nan"),  # nan distance
        ("bound", "--backend", "cft", "--beta", "1e-320"),  # 1/beta overflows
        ("bound", "--backend", "cft", "--beta", "1e-200", "--x-grid", "1"),  # (pi T)^2 overflows
        ("bound", "--backend", "cft", "--beta", "1e200", "--epsilon", "0.1"),  # beta^2 overflows
        ("scan", "--out", "/tmp/x.csv", "--backend", "cft", "--beta-grid", "1e-200,1",
         "--x-grid", "1"),  # cft beta grid with an overflowing value
        ("bound", "--n", "6", "--g", "1", "--beta", "1", "--region-b", "10"),  # B off the chain
        ("bound", "--n", "6", "--g", "1", "--beta", "1", "--region-b=-1"),  # negative B site
        ("bound", "--n", "6", "--g", "1", "--beta", "1", "--region-b", "0,0"),  # repeated B site
        ("bound", "--n", "6", "--g", "1", "--beta", "1", "--x-grid", "1",
         "--epsilon", "2"),  # epsilon above 1
        ("bound", "--n", "6", "--g", "1", "--beta", "1", "--x-grid", "1",
         "--k-eps", "100"),  # k(eps) above k(1)
        ("fig2", "--n", "21", "--out", "/tmp/f2", "--k-eps", "100"),  # fig2 k(eps) above k(1)
        ("bound", "--backend", "cft", "--beta", "50", "--threads", "0"),  # bound threads < 1
        ("bound", "--backend", "freefermion", "--n", "21", "--g", "1", "--beta", "2",
         "--x-grid", "3", "--region-b", "0,1"),  # region B is a dense-bound option
        ("fig2", "--n", "21", "--beta-grid", "5", "--x-grid", "2", "--out", "/tmp/f2",
         "--epsilon", "0.5"),  # fig2 reads --k-eps only
        ("fig2", "--n", "21", "--beta-grid", "5", "--x-grid", "2", "--out", "/tmp/f2",
         "--g", "0.7"),  # fig2 runs its own g values
        ("fig2", "--n", "21", "--beta-grid", "5", "--x-grid", "2", "--out", "/tmp/f2",
         "--beta", "3"),  # fig2 reads --beta-grid
        ("fig2", "--n", "21", "--beta-grid", "5", "--x-grid", "2", "--out", "/tmp/f2",
         "--format", "json"),  # fig2 writes CSV only
        ("scan", "--out", "/tmp/x.csv", "--backend", "cft", "--beta", "10", "--x-grid", "1",
         "--seed", "5"),  # only selftest is seeded
        ("bound", "--backend", "cft", "--beta", "50", "--beta-grid", "1,2"),  # bound takes --beta
        ("selftest", "--n", "4"),  # selftest reads --seed only
        ("bound", "--n", "4", "--g", "nan", "--beta", "1", "--x-grid", "1"),  # dense nan field
        ("bound", "--n", "4", "--g", "inf", "--beta", "1", "--x-grid", "1"),  # dense inf field
        ("bound", "--backend", "freefermion", "--n", "21", "--g", "nan", "--beta", "1",
         "--x-grid", "1"),  # freefermion nan field
        ("scan", "--out", "/tmp/x.csv", "--backend", "freefermion", "--n", "21", "--g", "inf",
         "--beta", "1", "--x-grid", "1"),  # freefermion inf field
        ("bound", "--backend", "freefermion", "--n", "21", "--g", "1", "--beta", "2",
         "--x-grid", "0"),  # the probe is not its own region B
        ("bound", "--backend", "freefermion", "--n", "21", "--g", "1", "--beta", "2",
         "--x-grid=-1"),  # negative distance
        ("bound", "--backend", "cft", "--beta", "10", "--x-grid", "0"),  # cft x = 0
        ("scan", "--out", "/tmp/x.csv", "--backend", "cft", "--beta", "10", "--beta-grid", "20",
         "--x-grid", "1"),  # --beta and --beta-grid exclude each other
        ("bound", "--backend", "cft", "--beta", "10", "--site", "7"),  # cft has no probe site
        ("bound", "--backend", "cft", "--beta", "10", "--site", "9999"),
        ("bound", "--backend", "cft", "--beta", "10", "--n", "10"),  # too few kappa-fit samples
        ("scan", "--out", "/tmp/x.csv", "--backend", "cft", "--n", "10", "--beta", "10",
         "--x-grid", "1"),
        ("selftest", "--seed=-1"),  # seeds are non-negative
        ("bound", "--n", "8", "--g", "1", "--beta", "2", "--x-grid", "1:3"),  # bound reads one x
        ("bound", "--n", "8", "--g", "1", "--beta", "2", "--x-grid", "1",
         "--region-b", "0"),  # --x-grid and --region-b exclude each other
        ("bound", "--n", "8", "--g", "1", "--beta", "2"),  # dense bound without a point
        ("bound", "--region-b", "1", "--site", "0", "--config",
         "[run]\nmodel = custom\nbeta = 1\n[terms]\nt1 = nan Z0 Z1\n"),  # nan coefficient
        ("bound", "--region-b", "1", "--site", "0", "--config",
         "[run]\nmodel = custom\nbeta = 1\n[terms]\nt1 = -inf Z0 Z1\n"),  # infinite coefficient
    ],
)
def test_config_errors_exit_2(argv, capsys, tmp_path):
    if "--config" in argv:  # the text of the config file follows the flag
        i = argv.index("--config") + 1
        (tmp_path / "run.ini").write_text(argv[i])
        argv = (*argv[:i], str(tmp_path / "run.ini"), *argv[i + 1:])
    assert run(*argv) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, keys",
    [
        ("bound", "backend = freefermion\nn = 21\ng = 1\nbeta = 2\nx_grid = 3\nregion_b = 0,1\n"),
        ("fig2", "n = 21\nbeta_grid = 5\nx_grid = 2\nout = /tmp/f2\nepsilon = 0.5\n"),
        ("selftest", "seed = 1\nthreads = 2\n"),
        ("bound", "n = 8\ng = 1\nbeta = 2\nx_grid = 1\nregion_b = 0\n"),  # an exclusive pair
    ],
)
def test_inapplicable_config_keys_exit_2(tmp_path, capsys, command, keys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\n" + keys)
    assert run(command, "--config", str(cfg)) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "--n", "20", "--g", "1.0", "--beta", "1.0", "--x-grid", "2"),  # dense cap
        ("bound", "--backend", "freefermion", "--n", "21", "--g", "1", "--beta", "2",
         "--x-grid", "3", "--measure", "projective-x"),
        ("fig2", "--backend", "dense", "--out", "/tmp/f2"),
        ("fig2", "--backend", "dense", "--out", "/tmp/f2", "--format", "json"),  # 3 before 2
        ("fig2", "--measure", "projective-x", "--out", "/tmp/f2"),
        ("bound", "--backend", "cft", "--beta", "50", "--model", "custom"),
    ],
)
def test_capability_errors_exit_3(argv, capsys):
    assert run(*argv) == 3
    assert "capability error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [("bound",), ("scan", "--x-grid", "1", "--out", "/tmp/x.csv")])
def test_rejected_kappa_fit_exits_4(command, capsys):
    """At n = 60 the samples exist but miss the power law."""
    assert run(*command, "--backend", "cft", "--n", "60", "--beta", "10") == 4
    assert "numerical-consistency failure: power-law fit rejected" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "--n", "6", "--g", "1e308", "--beta", "1", "--x-grid", "1"),
        ("scan", "--n", "6", "--g", "1e308", "--beta", "1", "--x-grid", "1", "--measure", "projective-x"),
        ("bound", "--backend", "freefermion", "--n", "21", "--g", "1e308", "--beta", "1", "--x-grid", "1"),
        ("scan", "--backend", "freefermion", "--n", "21", "--g", "1e308", "--beta", "1", "--x-grid", "1"),
        ("bound", "--n", "6", "--g", "1", "--beta", "1e308", "--x-grid", "1", "--measure", "weak-x"),
        ("scan", "--n", "6", "--g", "1", "--beta", "3e307", "--x-grid", "1"),
        ("bound", "--backend", "freefermion", "--n", "21", "--g", "1", "--beta", "1e308", "--x-grid", "1"),
    ],
)
def test_overflowing_field_or_beta_exits_4(argv, tmp_path, capsys, recwarn):
    """Energies past the float range (2g, or the sum of the couplings) and a
    beta*omega that overflows into a nan chi_E stop the run with exit 4,
    with the one-line message as the only output: no numpy warning."""
    if argv[0] == "scan":
        argv += ("--out", str(tmp_path / "s.csv"))
    assert run(*argv) == 4
    assert [str(w.message) for w in recwarn] == []
    err = capsys.readouterr().err
    assert err.startswith("numerical-consistency failure:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "s.csv").exists()


def test_failed_schur_form_exits_4(monkeypatch, tmp_path, capsys):
    """A Schur form that LAPACK reports as failed (info != 0) stops the run
    with exit 4 and the one-line message, not a traceback."""
    _, dgees = fermion._load_lapack()

    def failing_dhseqr(*args):
        args[-3].value = 1  # INFO, before the two string lengths

    monkeypatch.setattr(fermion, "_lapack", (failing_dhseqr, dgees))
    out = tmp_path / "s.csv"
    assert run("scan", "--backend", "freefermion", "--n", "21", "--g", "1", "--beta-grid", "1:2",
               "--x-grid", "1:2", "--out", str(out)) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical-consistency failure: LAPACK dhseqr found no real Schur form (info = 1)")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("--g", "1", "--beta", "1e308", "--measure", "projective-x"),
        ("--g", "1e307", "--beta", "1"),
    ],
)
def test_projective_chi_E_rounding_residue_prints_0(argv, capsys):
    """A Holevo quantity is non-negative: the rounding residue of S(rho)
    minus the conditioned entropies prints as 0, not as -6.4e-17 or -0."""
    assert run("bound", "--n", "6", "--x-grid", "1", *argv) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    (row,) = rows
    assert row["chi_E"] == "0"


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "10", "--beta-grid", "0.5", "--x-grid", "4", "--measure", "weak-x"),
        ("--n", "8", "--beta-grid", "0.1", "--x-grid", "2", "--measure", "projective-x"),
    ],
)
def test_dense_chi_B_rounding_residue_prints_0(argv, tmp_path):
    """chi_B is a second-order Holevo coefficient (weak-x) or a Holevo
    quantity (projective-x), so non-negative: far from the probe at high
    temperature its rounding residue prints as 0, and so does the ratio."""
    out = tmp_path / "s.csv"
    assert run("scan", "--backend", "dense", "--g", "1", *argv, "--out", str(out)) == 0
    _, rows = parse_csv(out.read_text())
    (row,) = rows
    assert (row["chi_B"], row["ratio"]) == ("0", "0")


def test_correlator_bound_underflow_exits_4(tmp_path, capsys):
    """At g = 1e7 the probe's neighbour is polarized: 1 - <X>^2 underflows.
    bound stops with exit 4; scan records the message as a row error."""
    args = ("--backend", "freefermion", "--n", "21", "--g", "1e7", "--beta", "100", "--x-grid", "3")
    assert run("bound", *args) == 4
    assert "numerical-consistency failure: 1 − <O_B>² below 1e-12" in capsys.readouterr().err
    out = tmp_path / "scan.csv"
    assert run("scan", *args, "--out", str(out)) == 0
    assert "below 1e-12" in out.read_text().splitlines()[1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("bound", "--backend", "cft", "--beta", "10", "--x-grid", "1:1e9"),
         "1000000000 points in grid '1:1e9' exceed the limit of 1000000"),
        (("bound", "--n", "8", "--g", "1", "--beta", "2", "--x-grid", "1:1e300:1e-300"),
         "inf points in grid"),
        (("scan", "--backend", "cft", "--beta-grid", "1:1000", "--x-grid", "1:1001", "--out", "/tmp/x.csv"),
         "1001000 scan rows exceed the limit of 1000000"),
        (("fig2", "--beta-grid", "1:600", "--x-grid", "1:600", "--out", "/tmp/f2"),
         "1080000 fig2 rows exceed the limit of 1000000"),
    ],
)
def test_oversized_grids_exit_2(argv, message, capsys):
    assert run(*argv) == 2
    assert message in capsys.readouterr().err


def test_out_of_memory_off_the_dense_backend(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(backends, "bdg_diagonalize", exhausted)
    assert run("bound", "--backend", "freefermion", "--n", "21", "--g", "1", "--beta", "2",
               "--x-grid", "3") == 3
    err = capsys.readouterr().err
    assert "capability error: out of memory at n = 21" in err and "dense" not in err


@pytest.mark.parametrize("n, code", [(142, 4), (143, 0)])
def test_cft_needs_143_fit_sites(n, code, capsys):
    """The README's lower limit for a cft --n: the kappa fit passes from n = 143."""
    assert run("bound", "--backend", "cft", "--beta", "10", "--x-grid", "2", "--n", str(n)) == code


@pytest.mark.parametrize("n", [143, 301])
def test_kappa_fit_matches_schur_route(n, monkeypatch):
    """The ground-state fit reads the state that the Schur route gave at
    beta = 50n, here through the prefix covariance the freefermion rows use."""
    monkeypatch.setattr(backends, "_KAPPA_CACHE", {})
    center = backends._center_site(n)
    cov = thermal_covariance(bdg_diagonalize(n, 1.0), 50.0 * n, prefix=center + 1)
    seps = np.arange(10, min(51, center))
    cors = [connected_xx(cov, center, center - int(s)) for s in seps]
    schur_kappa = fit_kappa(seps, np.array(cors), 1.0).kappa
    assert backends.fit_lattice_kappa(n, 1.0) == pytest.approx(schur_kappa, rel=1e-12, abs=0)


def test_version_flag_exits_zero():
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_csv_schema_and_sidecar(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run("scan", "--backend", "freefermion", "--n", "21", "--g", "1.0",
             "--beta-grid", "2,4", "--x-grid", "2:4", "--out", str(out))
    assert rc == 0
    text = out.read_text()
    assert text.splitlines()[0] == HEADER
    _, rows = parse_csv(text)
    assert len(rows) == 6  # 2 betas x 3 distances
    assert {r["beta"] for r in rows} == {"2", "4"}
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert sidecar["rows"] == 6
    assert sidecar["config"]["n"] == 21
    assert "timing_seconds" in sidecar and "version" in sidecar


def test_scan_partial_failure_gets_error_column(tmp_path):
    out = tmp_path / "partial.csv"
    rc = run("scan", "--backend", "freefermion", "--n", "21", "--g", "1.0",
             "--beta", "2", "--x-grid", "3,15", "--out", str(out))
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == HEADER + ", error"
    good = lines[1].split(", ")
    bad = lines[2].split(", ")
    assert good[-1] == ""  # clean row has an empty error cell
    assert "region B" in bad[-1]
    assert bad[4] == "nan"  # chi_B is nan on the failed row


def test_scan_cft_rows_use_n_zero(tmp_path):
    out = tmp_path / "cft.csv"
    rc = run("scan", "--backend", "cft", "--g", "1.0", "--beta-grid", "40,60",
             "--x-grid", "1,2,3", "--out", str(out))
    assert rc == 0
    _, rows = parse_csv(out.read_text())
    assert len(rows) == 6
    assert all(r["n"] == "0" for r in rows)
    assert all(r["backend"] == "cft" for r in rows)


def test_scan_dense_row_matches_bound_off_center(tmp_path, capsys):
    """Off the center, region B is still every site at least x left of the
    probe, so x_ab is the grid x."""
    args = ("--n", "6", "--g", "1", "--beta", "1", "--site", "4", "--measure", "weak-x")
    out = tmp_path / "dense.csv"
    assert run("scan", *args, "--x-grid", "1:2", "--out", str(out)) == 0
    _, scan_rows = parse_csv(out.read_text())
    assert [r["x_ab"] for r in scan_rows] == ["1", "2"]
    for x, scan_row in zip((1, 2), scan_rows):
        assert run("bound", *args, "--x-grid", str(x)) == 0
        _, (bound_row,) = parse_csv(capsys.readouterr().out)
        assert scan_row == bound_row


@pytest.mark.parametrize("measure", ["projective-x", "weak-x"])
def test_dense_scan_rows_are_grid_independent(tmp_path, capsys, measure):
    """At the centre probe every grid row is reduced from one marginal per
    beta, yet a row's bits depend on its own point only: each row of a 1:4
    scan equals the one-point scan and bound at its x, byte for byte."""
    args = ("--n", "9", "--g", "1", "--beta", "1", "--measure", measure)
    out = tmp_path / "grid.csv"
    assert run("scan", *args, "--x-grid", "1:4", "--out", str(out)) == 0
    grid_rows = out.read_text().splitlines()[1:]
    assert len(grid_rows) == 4
    for x, grid_row in zip(range(1, 5), grid_rows):
        single = tmp_path / f"x{x}.csv"
        assert run("scan", *args, "--x-grid", str(x), "--out", str(single)) == 0
        assert single.read_text().splitlines()[1:] == [grid_row]
        assert run("bound", *args, "--x-grid", str(x)) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [grid_row]


@pytest.mark.parametrize("measure", ["projective-x", "weak-x"])
@pytest.mark.parametrize("site, keeps", [
    # At the centre (2·site ≤ n − 1), one marginal per beta on the probe and
    # every site left of it; each grid point reduces it.
    (3, [(3, 0, 1, 2)] * 2),
    # Right of the centre that marginal would outgrow the points it serves:
    # each point forms its own, on the probe and its region B.
    (4, [(4, 0, 1, 2, 3), (4, 0, 1, 2), (4, 0, 1)] * 2),
])
def test_dense_scan_forms_one_marginal_per_beta(monkeypatch, tmp_path, measure, site, keeps):
    formed = []
    marginal = models.ThermalEigensystem.marginal

    def counted(self, beta, keep):
        formed.append(tuple(keep))
        return marginal(self, beta, keep)

    monkeypatch.setattr(models.ThermalEigensystem, "marginal", counted)
    assert run("scan", "--n", "8", "--g", "1", "--beta-grid", "0.5,2", "--x-grid", "1:3",
               "--site", str(site), "--measure", measure, "--out", str(tmp_path / "s.csv")) == 0
    assert formed == keeps


@pytest.mark.parametrize("g", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("n", [8, 9])
def test_chain_backends_describe_one_region(n, g):
    """At every probe site and x, the dense and freefermion backends both put
    region B x away from the probe; the freefermion chi_B, the correlator
    bound of one site of B, cannot exceed the dense chi_B of all of B."""
    ham = models.build_tfim(n, g)
    for site in range(1, n):
        dense = backends.DenseModel(ham, "weak-x", site, g)
        fermion = backends.FermionModel(n, g, site)
        for beta in (0.5, 2.0, 8.0):
            dense_ctx = dense.context(beta, 0.0)
            fermion_ctx = fermion.context(beta, 0.0)
            for x in range(1, site + 1):
                x_dense, chi_dense = dense_ctx.at(x)
                x_fermion, chi_fermion = fermion_ctx.at(x)
                assert x_dense == x_fermion == x
                assert chi_dense >= chi_fermion - 1e-12, (site, beta, x)


def test_scan_freefermion_off_center_reaches_the_chain_end(tmp_path):
    """With the probe at site 15 of 21, every x up to 15 leaves region B a
    site; chi_B correlates the probe with site 15 - x."""
    out = tmp_path / "ff.csv"
    assert run("scan", "--backend", "freefermion", "--n", "21", "--g", "1", "--beta", "2",
               "--site", "15", "--x-grid", "10:14", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == HEADER
    assert lines[1] == ("2, 1, 21, 10, 1.84086628224e-15, 0.0246519967216, 7.46741249008e-14, "
                        "-0.0246519967216, 0, 0, 0, freefermion")
    _, rows = parse_csv(out.read_text())
    assert [r["x_ab"] for r in rows] == ["10", "11", "12", "13", "14"]
    # The run forms the covariance of sites 0..15 only; its bits set the
    # rounding-level rows, and it agrees with the full covariance to 1e-15.
    spectrum = bdg_diagonalize(21, 1.0)
    cov = thermal_covariance(spectrum, 2.0, prefix=16)
    full = thermal_covariance(spectrum, 2.0)
    for x, row in zip(range(10, 15), rows):
        chi_b = correlator_lb_value(connected_xx(cov, 15, 15 - x), x_expectation(cov, 15 - x))
        assert row["chi_B"] == "%.12g" % chi_b
        full_chi_b = correlator_lb_value(connected_xx(full, 15, 15 - x), x_expectation(full, 15 - x))
        assert chi_b == pytest.approx(full_chi_b, rel=0, abs=1e-15)
    np.testing.assert_allclose(cov.gamma, full.gamma[:32, :32], rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "8", "--g", "1", "--measure", "projective-x"),
        ("--n", "8", "--g", "1", "--measure", "weak-x"),
        ("--n", "8", "--g", "1", "--measure", "projective-x", "--site", "6", "--epsilon", "0.01"),
        ("--n", "8", "--g", "1", "--measure", "weak-x", "--site", "6"),
        ("--backend", "freefermion", "--n", "41", "--g", "1", "--k-eps", "1e-5"),
        ("--backend", "cft", "--epsilon", "1e-4"),
    ],
)
def test_bound_prints_the_scan_row(tmp_path, capsys, argv):
    """bound is a one-point scan: the same CSV row and JSON values."""
    args = (*argv, "--beta", "2", "--x-grid", "2")
    out = tmp_path / "scan.csv"
    assert run("scan", *args, "--out", str(out)) == 0
    assert run("bound", *args) == 0
    assert capsys.readouterr().out == out.read_text()
    assert run("scan", *args, "--format", "json", "--out", str(out)) == 0
    assert run("bound", *args, "--format", "json") == 0
    record = json.loads(capsys.readouterr().out)
    (scan_record,) = json.loads(out.read_text())["rows"]
    assert {k: record[k] for k in scan_record} == scan_record


def test_scan_json_format(tmp_path):
    out = tmp_path / "sweep.json"
    rc = run("scan", "--backend", "freefermion", "--n", "21", "--g", "1.0",
             "--beta", "3", "--x-grid", "2,3", "--format", "json", "--out", str(out))
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload["rows"]) == 2
    assert "errors" not in payload
    assert not any("error" in record for record in payload["rows"])
    assert payload["rows"][0]["backend"] == "freefermion"


def test_scan_json_errors_stay_on_their_rows(tmp_path):
    """A failed row carries its message as its own ``error`` field, as the
    CSV error column does; clean rows carry none."""
    out = tmp_path / "sweep.json"
    assert run("scan", "--backend", "freefermion", "--n", "21", "--g", "1", "--beta-grid", "1,2",
               "--x-grid", "9:12", "--format", "json", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert "errors" not in payload
    rows = payload["rows"]
    assert [r["x_ab"] for r in rows] == [9, 10, 11, 12] * 2
    for record in rows:
        if record["x_ab"] > 10:
            assert record["error"] == f"x = {record['x_ab']} leaves region B empty left of site 10"
            assert record["chi_B"] == "nan"
        else:
            assert "error" not in record
            assert math.isfinite(record["chi_B"])


def test_scan_threads_determinism(tmp_path, monkeypatch):
    """Worker count must not change a byte of the dataset."""
    args = ("scan", "--backend", "freefermion", "--n", "21", "--g", "1.0",
            "--beta-grid", "1,2,3,4", "--x-grid", "2:6")
    serial = tmp_path / "serial.csv"
    monkeypatch.delenv("DEPTHBOUND_THREADS", raising=False)
    assert run(*args, "--out", str(serial)) == 0
    pooled = tmp_path / "pooled.csv"
    monkeypatch.setenv("DEPTHBOUND_THREADS", "4")
    assert run(*args, "--out", str(pooled)) == 0
    assert serial.read_bytes() == pooled.read_bytes()


def test_threads_env_must_be_integer(tmp_path, monkeypatch):
    monkeypatch.setenv("DEPTHBOUND_THREADS", "many")
    rc = run("scan", "--backend", "freefermion", "--n", "21", "--g", "1.0",
             "--beta", "2", "--x-grid", "3", "--out", str(tmp_path / "t.csv"))
    assert rc == 2


def test_bound_checks_threads_env(monkeypatch, capsys):
    monkeypatch.setenv("DEPTHBOUND_THREADS", "abc")
    assert run("bound", "--backend", "cft", "--beta", "50") == 2
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_config_file_merge_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[run]\nmodel = tfim\nn = 21\ng = 1.0\nbeta = 2.0\n"
        "backend = freefermion\nx_grid = 3\n"
    )
    assert run("bound", "--config", str(cfg), "--beta", "3.0") == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert rows[0]["beta"] == "3"  # flag beat the file
    assert rows[0]["n"] == "21"  # file key survived


def test_config_file_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nn = 6\nbogus = 1\n")
    assert run("bound", "--config", str(cfg), "--beta", "1.0") == 2


@pytest.mark.parametrize("key, value", [
    ("backend", "quantum"), ("measure", "strong"), ("format", "xml"), ("model", "ising"),
])
def test_config_file_values_checked_against_choices(tmp_path, capsys, key, value):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\nn = 6\ng = 1.0\nbeta = 1.0\nx_grid = 2\n{key} = {value}\n"
                   "[terms]\nt1 = -1.0 Z0 Z1\n")
    assert run("bound", "--config", str(cfg)) == 2
    assert f"config key {key!r}: {value!r} is not one of" in capsys.readouterr().err


def test_config_file_missing(tmp_path):
    assert run("bound", "--config", str(tmp_path / "nope.ini"), "--beta", "1.0") == 2


@pytest.mark.parametrize("command, keys", [
    ("bound", ""),
    ("bound", "backend = freefermion\n"),
    ("scan", "out = /tmp/x.csv\n"),
])
def test_terms_without_custom_model_exit_2(tmp_path, capsys, command, keys):
    """A [terms] section is read by the custom model only; without
    model = custom it would be ignored silently."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\nn = 4\ng = 1\nbeta = 1\nx_grid = 1\n{keys}[terms]\nt1 = -1.0 Z0 Z1\n")
    assert run(command, "--config", str(cfg)) == 2
    assert "[terms] section" in capsys.readouterr().err


def test_custom_model_terms(tmp_path, capsys):
    cfg = tmp_path / "custom.ini"
    cfg.write_text(
        "[run]\nmodel = custom\nbeta = 1.5\n"
        "[terms]\nt1 = -1.0 Z0 Z1\nt2 = 0.5 X0\nt3 = 0.5 X1\n"
    )
    rc = run("bound", "--config", str(cfg), "--region-b", "1", "--site", "0")
    assert rc == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert rows[0]["n"] == "2"
    assert float(rows[0]["chi_B"]) > 0


@pytest.mark.parametrize("g_flag, g_key", [(("--g", "0.7"), ""), ((), "g = 0.7\n")],
                         ids=["flag", "config key"])
def test_custom_model_rejects_g(tmp_path, capsys, g_flag, g_key):
    """H comes from [terms] alone, so a --g flag or g key would be ignored
    silently; a custom row prints g = 0."""
    cfg = tmp_path / "custom.ini"
    cfg.write_text(f"[run]\nmodel = custom\nn = 3\nbeta = 1\n{g_key}[terms]\nt1 = -1.0 Z0 Z1\nt2 = 0.5 X2\n")
    argv = ("bound", "--config", str(cfg), "--x-grid", "1", "--site", "2")
    assert run(*argv, *g_flag) == 2
    assert "config error: the custom model does not read --g" in capsys.readouterr().err
    cfg.write_text(cfg.read_text().replace(g_key, ""))
    assert run(*argv) == 0
    _, (row,) = parse_csv(capsys.readouterr().out)
    assert row["g"] == "0"


@pytest.mark.parametrize(
    "run_keys, term, code, message",
    [
        ("n = 2\n", "Z0 Z3", 2, "config error: custom model: site 3 out of range"),
        ("", "Z0 Z15", 3, "capability error: dense backend capped at 14 sites"),  # n from terms
    ],
)
def test_custom_model_sites_checked(tmp_path, capsys, run_keys, term, code, message):
    cfg = tmp_path / "custom.ini"
    cfg.write_text(f"[run]\nmodel = custom\n{run_keys}beta = 1.0\n[terms]\nt1 = -1.0 {term}\n")
    assert run("bound", "--config", str(cfg), "--region-b", "1", "--site", "0") == code
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fig2
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    stem = tmp_path_factory.mktemp("fig2") / "panels"
    rc = run("fig2", "--n", "41", "--beta-grid", "5,10", "--x-grid", "2:10",
             "--out", str(stem))
    assert rc == 0
    return stem


class TestFig2:
    def test_stem_expands_to_three_files(self, dataset):
        assert (dataset.parent / "panels_ratio.csv").exists()
        assert (dataset.parent / "panels_depth.csv").exists()
        assert (dataset.parent / "panels.json").exists()

    def test_ratio_file_schema(self, dataset):
        text = (dataset.parent / "panels_ratio.csv").read_text()
        assert text.splitlines()[0] == HEADER
        _, rows = parse_csv(text)
        assert {r["g"] for r in rows} == {"0.5", "1", "1.5"}
        assert all(r["backend"] == "freefermion" for r in rows)

    def test_depth_file_schema(self, dataset):
        text = (dataset.parent / "panels_depth.csv").read_text()
        assert text.splitlines()[0] == "beta, g, n, epsilon, depth_lb, backend"
        _, rows = parse_csv(text)
        # one exact and one approximate series per (g, beta)
        assert len(rows) == 3 * 2 * 2
        eps_values = sorted({float(r["epsilon"]) for r in rows})
        assert eps_values[0] == 0.0
        assert eps_values[1] == pytest.approx(1.46336337323e-7, rel=1e-6)

    def test_sidecar_config_echo(self, dataset):
        payload = json.loads((dataset.parent / "panels.json").read_text())
        assert payload["config"]["n"] == 41
        assert payload["rows"] > 0


def test_fig2_failed_points_get_error_rows(tmp_path):
    """x = 11 and 12 leave region B empty left of the centre site 10: their
    ratio rows carry the message, and the depth rows are those of the clean x."""
    args = ("fig2", "--n", "21", "--beta-grid", "5,10")
    assert run(*args, "--x-grid", "9:12", "--out", str(tmp_path / "all")) == 0
    assert run(*args, "--x-grid", "9:10", "--out", str(tmp_path / "clean")) == 0
    text = (tmp_path / "all_ratio.csv").read_text()
    assert text.splitlines()[0] == HEADER + ", error"
    _, rows = parse_csv(text)
    assert len(rows) == 3 * 2 * 4
    for row in rows:
        failed = row["x_ab"] in ("11", "12")
        assert ("region B" in row["error"]) == failed
        assert (row["chi_B"] == "nan") == failed
    assert json.loads((tmp_path / "all.json").read_text())["rows"] == 24
    depth = (tmp_path / "all_depth.csv").read_bytes()
    assert depth == (tmp_path / "clean_depth.csv").read_bytes()


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def test_selftest_passes(capsys):
    assert run("selftest") == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 6
    assert "[FAIL]" not in out
    assert "6/6 suites passed" in out


# ---------------------------------------------------------------------------
# golden datasets and model-level setup
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("threads", ["1", "2"])
def test_scan_freefermion_matches_golden(tmp_path, threads):
    out = tmp_path / "ff.csv"
    assert run("scan", "--backend", "freefermion", "--n", "41", "--g", "1.0",
               "--beta-grid", "1:10:3", "--x-grid", "1:19", "--threads", threads,
               "--out", str(out)) == 0
    assert out.read_bytes() == (GOLDEN / "ff_scan_n41.csv").read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_fig2_matches_golden(tmp_path, threads):
    stem = tmp_path / "f2"
    assert run("fig2", "--n", "61", "--beta-grid", "10,20", "--x-grid", "1:20",
               "--threads", threads, "--out", str(stem)) == 0
    for panel in ("ratio", "depth"):
        got = (tmp_path / f"f2_{panel}.csv").read_bytes()
        assert got == (GOLDEN / f"fig2_n61_{panel}.csv").read_bytes()


def test_fig2_first_schur_forms_race_in_a_fresh_process(tmp_path):
    """Three worker threads start the three g panels at once, so their
    first Schur forms race to load the LAPACK extension; the datasets
    keep their golden bytes."""
    stem = tmp_path / "f2"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "depthbound", "fig2", "--n", "61", "--beta-grid", "10,20",
                    "--x-grid", "1:20", "--threads", "3", "--out", str(stem)],
                   env=env, capture_output=True, check=True, timeout=120)
    for panel in ("ratio", "depth"):
        got = (tmp_path / f"f2_{panel}.csv").read_bytes()
        assert got == (GOLDEN / f"fig2_n61_{panel}.csv").read_bytes()


def _csvs_at_thread_timeout(tmp_path, timeout, *args):
    """The CSVs a CLI command writes in a fresh process, in a directory of
    its own, with OPENBLAS_THREAD_TIMEOUT unset or set to ``timeout``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if timeout is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = timeout
    cwd = tmp_path / f"timeout{timeout}"
    cwd.mkdir()
    subprocess.run([sys.executable, "-m", "depthbound", *args], cwd=cwd, env=env, capture_output=True,
                   check=True, timeout=120)
    return {path.name: path.read_bytes() for path in sorted(cwd.glob("*.csv"))}


def test_fig2_bits_do_not_depend_on_the_openblas_thread_timeout(tmp_path):
    """Both OpenBLAS libraries, numpy's and the Schur form's, load with a
    short thread timeout unless the user sets one; 28, OpenBLAS's
    default, keeps their workers spinning between calls.  The timeout
    changes when the workers sleep, not how the work is split, so both
    runs write the same bytes."""
    args = ("fig2", "--n", "41", "--beta-grid", "10,20", "--x-grid", "1:3", "--out", "fig2")
    plain = _csvs_at_thread_timeout(tmp_path, None, *args)
    assert sorted(plain) == ["fig2_depth.csv", "fig2_ratio.csv"]
    assert _csvs_at_thread_timeout(tmp_path, "28", *args) == plain


def test_dense_scan_bits_do_not_depend_on_the_openblas_thread_timeout(tmp_path):
    """The same for a dense scan, which runs on numpy's OpenBLAS alone."""
    args = ("scan", "--backend", "dense", "--n", "8", "--g", "1", "--beta-grid", "0.5,2", "--x-grid", "1:3",
            "--out", "dense.csv")
    plain = _csvs_at_thread_timeout(tmp_path, None, *args)
    assert list(plain) == ["dense.csv"]
    assert _csvs_at_thread_timeout(tmp_path, "28", *args) == plain


def test_readme_cft_bound_matches_golden(tmp_path):
    out = tmp_path / "cft.csv"
    assert run("bound", "--backend", "cft", "--beta", "50", "--epsilon", "0", "--out", str(out)) == 0
    assert out.read_bytes() == (GOLDEN / "bound_cft_beta50.csv").read_bytes()


@pytest.mark.parametrize(
    "golden, argv",
    [
        # The README example (projective probe, the default measure).
        ("bound_dense_n8.csv", ("--n", "8", "--g", "1.0", "--beta", "2.0", "--x-grid", "2")),
        ("bound_dense_n11.csv", ("--n", "11", "--g", "1", "--beta", "2", "--x-grid", "2")),
        ("bound_dense_n10.csv", ("--n", "10", "--g", "0.5", "--beta", "1", "--x-grid", "1")),
        ("bound_dense_n9.csv", ("--n", "9", "--g", "1.5", "--beta", "4", "--x-grid", "3")),
        # bound reads --threads, which the benchmark passes, and runs on one thread.
        ("bound_dense_n8.csv", ("--n", "8", "--g", "1.0", "--beta", "2.0", "--x-grid", "2", "--threads", "2")),
    ],
)
def test_dense_bound_matches_golden(tmp_path, golden, argv):
    out = tmp_path / "dense.csv"
    assert run("bound", "--backend", "dense", "--measure", "projective-x", *argv,
               "--out", str(out)) == 0
    assert_matches_golden(out, golden)


def test_dense_weak_scan_matches_golden(tmp_path):
    out = tmp_path / "dense.csv"
    assert run("scan", "--backend", "dense", "--n", "10", "--g", "1", "--beta-grid", "0.5,1,2,4",
               "--x-grid", "1:4", "--measure", "weak-x", "--out", str(out)) == 0
    assert_matches_golden(out, "scan_dense_weak_n10.csv")


def test_dense_weak_scan_at_the_mirror_fixed_site_matches_golden(tmp_path):
    """The centre of an odd chain, where X_site is rotated half by half."""
    out = tmp_path / "dense.csv"
    assert run("scan", "--backend", "dense", "--n", "11", "--g", "1", "--beta-grid", "0.5,2",
               "--x-grid", "1:3", "--measure", "weak-x", "--out", str(out)) == 0
    assert_matches_golden(out, "scan_dense_weak_n11.csv")


def test_dense_projective_scan_matches_golden(tmp_path):
    out = tmp_path / "dense.csv"
    assert run("scan", "--backend", "dense", "--n", "10", "--g", "1", "--beta-grid", "0.5,1,2,4",
               "--x-grid", "1:4", "--measure", "projective-x", "--out", str(out)) == 0
    assert_matches_golden(out, "scan_dense_projective_n10.csv")


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("bound_dense_weak_n8.json",
         ("--n", "8", "--g", "1", "--beta", "2", "--x-grid", "2", "--measure", "weak-x")),
        ("bound_dense_projective_region_b_n8.json",
         ("--n", "8", "--g", "0.8", "--beta", "1.5", "--region-b", "0,1,5", "--measure", "projective-x")),
        ("bound_ff_n41.json",
         ("--backend", "freefermion", "--n", "41", "--g", "1", "--beta", "2", "--x-grid", "3", "--k-eps", "1e-5")),
        ("bound_cft_beta50.json", ("--backend", "cft", "--beta", "50", "--epsilon", "0")),
    ],
)
def test_bound_json_matches_golden(capsys, golden, argv):
    """The bound record with its extras (s_b and s_abc, or kappa), without
    its wall time: dense values to 1e-10, as in the dense CSV goldens, and
    the others byte for byte."""
    assert run("bound", "--format", "json", *argv) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    text = "".join(ln for ln in lines if not ln.lstrip().startswith('"wall_time_seconds"'))
    expected = (GOLDEN / golden).read_text()
    if "dense" not in golden:
        assert text == expected
        return
    got, want = json.loads(text), json.loads(expected)
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, str):
            assert got[key] == value, key
        else:
            assert got[key] == pytest.approx(value, rel=0, abs=1e-10), key


def assert_matches_golden(out, golden):
    """Column by column to 1e-10: the last printed digits of a dense row
    depend on how H is diagonalized and its sectors summed."""
    header, rows = parse_csv(out.read_text())
    golden_header, expected_rows = parse_csv((GOLDEN / golden).read_text())
    assert header == golden_header
    assert len(rows) == len(expected_rows)
    for got, expected in zip(rows, expected_rows):
        assert got["backend"] == expected["backend"]
        for column in header[:-1]:
            assert float(got[column]) == pytest.approx(float(expected[column]), rel=0, abs=1e-10), column


@pytest.fixture
def forbid_gibbs_state(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("gibbs_state called on the run path")

    monkeypatch.setattr(models, "gibbs_state", forbidden)
    monkeypatch.setattr(backends, "gibbs_state", forbidden, raising=False)


@pytest.mark.parametrize("measure", ["projective-x", "weak-x"])
@pytest.mark.parametrize("where", [("--region-b", "4,0,1"), ("--x-grid", "1")])
def test_dense_bound_forms_no_gibbs_state(forbid_gibbs_state, capsys, measure, where):
    assert run("bound", "--n", "6", "--g", "0.8", "--beta", "1.5", "--measure", measure, *where) == 0
    _, (row,) = parse_csv(capsys.readouterr().out)
    assert float(row["chi_E"]) > 0


@pytest.mark.parametrize("measure", ["projective-x", "weak-x"])
def test_dense_scan_forms_no_gibbs_state(forbid_gibbs_state, tmp_path, measure):
    out = tmp_path / "scan.csv"
    assert run("scan", "--n", "6", "--g", "0.8", "--beta-grid", "0.5,2", "--x-grid", "1:2",
               "--measure", measure, "--out", str(out)) == 0
    _, rows = parse_csv(out.read_text())
    assert len(rows) == 4 and "error" not in rows[0]


def test_dense_out_of_memory_exits_3(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np.linalg, "eigh", exhausted)
    assert run("bound", "--n", "7", "--g", "1", "--beta", "1", "--x-grid", "1") == 3
    err = capsys.readouterr().err
    assert "capability error" in err and "n = 7" in err


#: Q's rows that the freefermion model keeps at n = 21: 2·(site + 1) for
#: the centre probe, site 10, all that its prefix covariance and its mode
#: amplitudes read.
PROBE_ROWS_21 = 2 * (10 + 1)


@pytest.fixture
def bdg_calls(monkeypatch):
    """(n, g, rows) of each Schur form the run path asks for."""
    calls = []
    original = backends.bdg_diagonalize

    def counted(n, g, rows=None):
        calls.append((n, g, rows))
        return original(n, g, rows)

    monkeypatch.setattr(backends, "bdg_diagonalize", counted)
    return calls


@pytest.mark.parametrize("threads", ["1", "4"])
def test_scan_freefermion_diagonalizes_once(tmp_path, bdg_calls, threads):
    assert run("scan", "--backend", "freefermion", "--n", "21", "--g", "1.0",
               "--beta-grid", "1,2,3,4", "--x-grid", "2:6", "--threads", threads,
               "--out", str(tmp_path / "s.csv")) == 0
    assert bdg_calls == [(21, 1.0, PROBE_ROWS_21)]


@pytest.mark.parametrize("threads", ["1", "4"])
def test_fig2_diagonalizes_once_per_g(tmp_path, bdg_calls, threads):
    assert run("fig2", "--n", "21", "--beta-grid", "5,10", "--x-grid", "2:4",
               "--threads", threads, "--out", str(tmp_path / "f2")) == 0
    assert sorted(bdg_calls) == [(21, 0.5, PROBE_ROWS_21), (21, 1.0, PROBE_ROWS_21), (21, 1.5, PROBE_ROWS_21)]


@pytest.mark.parametrize("threads", ["1", "4"])
def test_scan_cft_fits_kappa_once(tmp_path, monkeypatch, bdg_calls, threads):
    """One ground-state covariance for the whole grid, of the sites up to
    the centre only, and no Schur form."""
    monkeypatch.setattr(backends, "_KAPPA_CACHE", {})
    fits = []
    original = backends.ground_state_covariance

    def counted(n, g, prefix=None):
        fits.append((n, g, prefix))
        return original(n, g, prefix)

    monkeypatch.setattr(backends, "ground_state_covariance", counted)
    assert run("scan", "--backend", "cft", "--beta-grid", "10,20,30,40", "--x-grid", "1:3",
               "--threads", threads, "--out", str(tmp_path / "c.csv")) == 0
    assert fits == [(301, 1.0, 151)]
    assert bdg_calls == []


@pytest.fixture
def forbid_line_merge(monkeypatch):
    """chi_E sums over the unmerged lines: the run path never merges a
    line."""
    def forbidden(*args, **kwargs):
        raise AssertionError("SpectralLines.merged called on the run path")

    monkeypatch.setattr(models.SpectralLines, "merged", classmethod(forbidden))


@pytest.fixture
def forbid_weak_x_lines(monkeypatch):
    """chi_E is summed term by term from the spectrum: the run path never
    asks weak_x_lines for the lines."""
    def forbidden(*args, **kwargs):
        raise AssertionError("weak_x_lines called on the run path")

    monkeypatch.setattr(fermion, "weak_x_lines", forbidden)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_scan_freefermion_builds_no_line_table(tmp_path, bdg_calls, forbid_weak_x_lines, forbid_line_merge, threads):
    out = tmp_path / "s.csv"
    assert run("scan", "--backend", "freefermion", "--n", "21", "--g", "1.0",
               "--beta-grid", "1,2,3,4", "--x-grid", "2:6", "--threads", threads,
               "--out", str(out)) == 0
    assert bdg_calls == [(21, 1.0, PROBE_ROWS_21)]
    assert len(parse_csv(out.read_text())[1]) == 20


@pytest.mark.parametrize("threads", ["1", "2"])
def test_fig2_builds_no_line_table(tmp_path, bdg_calls, forbid_weak_x_lines, forbid_line_merge, threads):
    assert run("fig2", "--n", "21", "--beta-grid", "5,10", "--x-grid", "2:4",
               "--threads", threads, "--out", str(tmp_path / "f2")) == 0
    assert sorted(bdg_calls) == [(21, 0.5, PROBE_ROWS_21), (21, 1.0, PROBE_ROWS_21), (21, 1.5, PROBE_ROWS_21)]
