"""CLI front end, driven in-process through main() for speed."""

import functools
import io
import json
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqvac import (
    FockVector,
    GaussianWignerSpec,
    GridGeometry,
    WignerGrid,
    identity_residual,
    photon_outcomes,
    rasterize,
    renormalize,
    state_grid,
)
from sqvac import cli, phasespace, verify
from sqvac.cli import main
from sqvac.errors import DegenerateInputError
from sqvac.io import load_grid, load_state, save_grid, save_state


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def parsed_lines(out):
    """key=value lines -> dict, exact float re-parse."""
    kv = {}
    for line in out.splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            kv[k] = float(v)
    return kv


# ---------------------------------------------------------------- pipeline

def test_state_wigner_residual_matches_library_bitwise(tmp_path, capsys):
    state = tmp_path / "pure.json"
    grid_path = tmp_path / "grid.csv"
    assert run(capsys, "state", "--kind", "pure", "--sigma-x", "2",
               "-o", str(state))[0] == 0
    assert run(capsys, "wigner", "--state", str(state),
               "-o", str(grid_path))[0] == 0
    code, out, _ = run(capsys, "residual", "--grid", str(grid_path))
    assert code == 0
    got = parsed_lines(out)

    spec = GaussianWignerSpec.pure_state(2.0)
    chk = identity_residual(state_grid(spec))
    assert got["residual"] == chk.residual  # bit-for-bit through the CSV
    assert got["R_used"] == chk.ratio_used
    assert got["added_integral"] == chk.added_integral
    assert got["subtracted_integral"] == chk.subtracted_integral


def test_add_and_sub_outcomes(tmp_path, capsys):
    state = tmp_path / "pure.json"
    grid_path = tmp_path / "grid.csv"
    run(capsys, "state", "--kind", "pure", "--sigma-x", "2", "-o", str(state))
    run(capsys, "wigner", "--state", str(state), "-o", str(grid_path))
    for cmd in ("add", "sub"):
        out_path = tmp_path / f"{cmd}.csv"
        code, out, _ = run(capsys, cmd, "--grid", str(grid_path), "-o", str(out_path))
        assert code == 0
        assert parsed_lines(out)["R_used"] == pytest.approx(25.0 / 9.0, abs=1e-6)
        outcome, _ = load_grid(out_path)
        assert outcome.integral() == pytest.approx(1.0, abs=1e-12)
        m = outcome.geometry.points // 2
        center = outcome.values[m, m]
        assert center == pytest.approx(-1.0 / math.pi, abs=1e-3)


def test_add_sub_and_residual_print_the_same_ratio(tmp_path, capsys):
    # one grid, one norm ratio: every command takes R from the same integrals
    grid_path = tmp_path / "grid.csv"
    save_grid(grid_path, state_grid(GaussianWignerSpec.pure_state(2.0)))
    printed = set()
    for argv in (("add", "-o", str(tmp_path / "a.csv")), ("sub", "-o", str(tmp_path / "s.csv")),
                 ("residual",)):
        code, out, _ = run(capsys, argv[0], "--grid", str(grid_path), *argv[1:])
        assert code == 0
        printed |= {line for line in out.splitlines() if line.startswith("R_used=")}
    assert len(printed) == 1, printed


def test_add_scans_its_grid_once(tmp_path, capsys, monkeypatch):
    # the norm ratio's integrals and the outcome grids read one kept first pass
    grid_path = tmp_path / "grid.csv"
    save_grid(grid_path, state_grid(GaussianWignerSpec.pure_state(2.0)))
    calls = []
    scan = phasespace._scan
    monkeypatch.setattr(phasespace, "_scan", lambda source: calls.append(source) or scan(source))
    code, _, _ = run(capsys, "add", "--grid", str(grid_path), "-o", str(tmp_path / "a.csv"))
    assert code == 0 and len(calls) == 1


def test_fock_state_pipeline(tmp_path, capsys):
    state = tmp_path / "squeezed.json"
    grid_path, add_path, lib_path = (tmp_path / n for n in ("grid.csv", "add.csv", "lib.csv"))
    run(capsys, "state", "--kind", "squeezed", "--sigma-x", "2",
        "--trunc", "68", "-o", str(state))
    assert run(capsys, "wigner", "--state", str(state),
               "-o", str(grid_path))[0] == 0
    grid, comments = load_grid(grid_path)
    assert comments == ["cmd: wigner"]
    m = grid.geometry.points // 2
    center = grid.values[m, m]
    assert center == pytest.approx(1.0 / math.pi, abs=1e-6)
    code, out, _ = run(capsys, "add", "--grid", str(grid_path), "-o", str(add_path))
    assert code == 0
    assert parsed_lines(out)["R_used"] == pytest.approx(25.0 / 9.0, abs=1e-3)
    # the two commands write the bytes the library gives for the state
    outcome = renormalize(photon_outcomes(state_grid(load_state(state)))[0])
    save_grid(lib_path, outcome, ["cmd: add"])
    assert add_path.read_bytes() == lib_path.read_bytes()


def test_wigner_geometry_flags(tmp_path, capsys):
    # --points sets the point count; the extent, 6 sigma_x, is the state's
    state = tmp_path / "pure.json"
    grid_path = tmp_path / "grid.csv"
    run(capsys, "state", "--kind", "pure", "--sigma-x", "2", "-o", str(state))
    run(capsys, "wigner", "--state", str(state), "--points", "513", "-o", str(grid_path))
    grid, _ = load_grid(grid_path)
    assert grid.geometry.axis()[0] == -12.0 and grid.geometry.points == 513


def test_seed_recorded_in_header(tmp_path, capsys):
    code, out, _ = run(capsys, "figure", "fig3", "--seed", "11", "-o", str(tmp_path))
    assert code == 0
    for path in out.splitlines():
        assert "# seed 11\n" in open(path).readlines()


# --------------------------------------------------------------- exit codes

def test_vacuum_residual_names_the_exclusion(tmp_path, capsys):
    state = tmp_path / "vac.json"
    grid_path = tmp_path / "grid.csv"
    run(capsys, "state", "--kind", "pure", "--sigma-x", "1", "-o", str(state))
    run(capsys, "wigner", "--state", str(state), "-o", str(grid_path))
    code, _, err = run(capsys, "residual", "--grid", str(grid_path))
    assert code == 1
    assert "sigma_x = 1" in err


def test_vanishing_added_outcome_exits_one_without_traceback(tmp_path, zero_added_grid):
    import sqvac
    grid_path = tmp_path / "zero_added.csv"
    out_path = tmp_path / "sub.csv"
    save_grid(grid_path, zero_added_grid)
    src = os.path.dirname(os.path.dirname(sqvac.__file__))
    for argv in (["residual"], ["sub", "-o", str(out_path)]):
        proc = subprocess.run([sys.executable, "-m", "sqvac.cli", *argv, "--grid", str(grid_path)],
                              capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "the added integral" in proc.stderr
        assert not out_path.exists()


def test_overflowing_outcome_integrals_refused_without_output(tmp_path, capsys, recwarn):
    # a pure sigma_x = 1e150 state on its default grid: x^2 times the Simpson
    # weight overflows at the far rows, where W is 0, so the integrals are nan
    geometry = GridGeometry(6e150, 65)
    values = np.zeros((65, 65))
    values[:, 32] = np.exp(-(geometry.axis() / 1e150) ** 2) / np.pi
    grid_path = tmp_path / "grid.csv"
    save_grid(grid_path, WignerGrid(geometry, values))
    code, out, err = run(capsys, "residual", "--grid", str(grid_path))
    assert code == 2 and out == ""
    assert "not finite" in err and err.count("\n") == 1
    for cmd in ("add", "sub"):
        out_path = tmp_path / f"{cmd}.csv"
        code, out, err = run(capsys, cmd, "--grid", str(grid_path), "-o", str(out_path))
        assert code == 2 and out == ""
        assert "not finite" in err and err.count("\n") == 1
        assert not out_path.exists()
    # a warning would reach stderr ahead of the error line
    assert [str(w.message) for w in recwarn] == []


def test_overflowing_outcomes_refused_with_one_error_line(tmp_path):
    # one large node on a fine step: W is finite, its stencils overflow
    import sqvac
    values = np.zeros((33, 33))
    values[16, 16] = 1e303
    grid_path, out_path = tmp_path / "grid.csv", tmp_path / "add.csv"
    save_grid(grid_path, WignerGrid(GridGeometry(0.016, 33), values))
    src = os.path.dirname(os.path.dirname(sqvac.__file__))
    for argv in (["add", "-o", str(out_path)], ["residual"]):
        proc = subprocess.run([sys.executable, "-m", "sqvac.cli", *argv, "--grid", str(grid_path)],
                              capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 2 and proc.stdout == ""
        # a numpy warning would reach stderr ahead of the error line; residual
        # names the outcomes as add does, not the integral |A| they overflow
        assert proc.stderr == ("error: the added and subtracted outcomes are not finite: the "
                               "grid's x^2 + p^2 or its values overflow\n")
        assert not out_path.exists()


def test_failed_write_names_its_target(tmp_path, capsys):
    # a missing directory fails the temp file's open, an existing directory
    # its rename; either way the error names -o's path, not the temp file
    grid_path = tmp_path / "grid.csv"
    grid_path.write_bytes(_grid_file_bytes())
    (tmp_path / "adir").mkdir()
    for target in (tmp_path / "missing" / "x.out", tmp_path / "adir"):
        for argv in (["add", "--grid", str(grid_path)],
                     ["state", "--kind", "pure", "--sigma-x", "2"]):
            code, out, err = run(capsys, *argv, "-o", str(target))
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert err.rstrip().endswith(f"{str(target)!r}") and ".tmp-" not in err, err
            assert sorted(os.listdir(tmp_path)) == ["adir", "grid.csv"]
            assert os.listdir(tmp_path / "adir") == []


def test_extreme_width_rasterizes_without_warnings(tmp_path, capsys, recwarn):
    # sigma_p = 1e-77: p^2 / sigma_p^2 overflows to inf away from p = 0, where
    # the density underflows to 0 anyway; no 513-point grid resolves the
    # sigma_p = 1e-77 ridge, so the grid is refused with one error line
    state, grid_path = tmp_path / "wide.json", tmp_path / "wide.csv"
    assert run(capsys, "state", "--kind", "pure", "--sigma-x", "1e77", "-o", str(state))[0] == 0
    code, out, err = run(capsys, "wigner", "--state", str(state), "-o", str(grid_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not grid_path.exists()
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("sigma", ["1e+77", "1e-77"])
def test_extreme_angular_average_refused_without_warnings(tmp_path, sigma):
    # b s overflows at the grid's far corners, where i0e is 0 to double
    # precision; no 513-point grid resolves the state, so it is refused
    import sqvac
    state, grid_path = tmp_path / "angavg.json", tmp_path / "angavg.csv"
    state.write_text(f'{{"format": "angavg-v1", "sigma_x": {sigma}}}')
    src = os.path.dirname(os.path.dirname(sqvac.__file__))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "sqvac.cli", "wigner",
                           "--state", str(state), "-o", str(grid_path)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: normalization drift") and proc.stderr.count("\n") == 1
    assert not grid_path.exists()


@pytest.mark.parametrize("sigma", ["50", "1e-8"])
@pytest.mark.parametrize("cmd", ["wigner"])
def test_unresolved_grid_refused_without_output(tmp_path, capsys, cmd, sigma):
    # the default 513-point grid spans 6 sigma_x = 300 for sigma_x = 50, so it
    # undersamples the sigma_p = 0.02 ridge; sigma_x = 1e-8 undersamples itself
    state, out_path = tmp_path / "state.json", tmp_path / "out.csv"
    assert run(capsys, "state", "--kind", "pure", "--sigma-x", sigma, "-o", str(state))[0] == 0
    code, out, err = run(capsys, cmd, "--state", str(state), "-o", str(out_path))
    assert code == 2 and out == ""
    assert "normalization drift" in err and "--points" in err and err.count("\n") == 1
    assert not out_path.exists()


def test_refined_grid_resolves_a_wide_state(tmp_path, capsys):
    # sigma_x = 5 drifts by 5e-4 on the default 513 points and by 2e-13 on 1025
    state, grid_path = tmp_path / "state.json", tmp_path / "grid.csv"
    run(capsys, "state", "--kind", "pure", "--sigma-x", "5", "-o", str(state))
    assert run(capsys, "wigner", "--state", str(state), "-o", str(grid_path))[0] == 2
    code, out, _ = run(capsys, "wigner", "--state", str(state), "--points", "1025",
                       "-o", str(grid_path))
    assert code == 0 and out.strip() == str(grid_path)
    assert load_grid(grid_path)[0].geometry.points == 1025


@pytest.mark.parametrize("kind", ["pure", "angular-average"])
@pytest.mark.parametrize("sigma", ["1e-300", "1e-160", "1e100"])
def test_state_refuses_width_outside_float_range(tmp_path, capsys, kind, sigma):
    out_path = tmp_path / "state.json"
    code, out, err = run(capsys, "state", "--kind", kind, "--sigma-x", sigma, "-o", str(out_path))
    assert code == 2 and out == ""
    assert "4th power" in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [("--kind", "pure", "--sigma-x", "0"),
                                  ("--kind", "pure", "--sigma-x", "-0.0"),
                                  ("--kind", "mixture", "--sigma-x", "0")])
def test_state_refuses_a_zero_width(tmp_path, capsys, recwarn, argv):
    # the pure constructor once inverted the width before checking it
    out_path = tmp_path / "state.json"
    code, out, err = run(capsys, "state", *argv, "-o", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "positive" in err
    assert not out_path.exists()
    assert [str(w.message) for w in recwarn] == []


def test_vacuum_outcome_refused_without_output(tmp_path, capsys):
    state = tmp_path / "vac.json"
    grid_path = tmp_path / "grid.csv"
    run(capsys, "state", "--kind", "pure", "--sigma-x", "1", "-o", str(state))
    run(capsys, "wigner", "--state", str(state), "-o", str(grid_path))
    for cmd in ("add", "sub"):
        out_path = tmp_path / f"{cmd}.csv"
        code, out, err = run(capsys, cmd, "--grid", str(grid_path), "-o", str(out_path))
        assert code == 1 and out == ""
        assert "sigma_x = 1" in err
        assert not out_path.exists()


def test_non_finite_state_refused_without_output(tmp_path, capsys):
    for argv in (("--kind", "pure", "--sigma-x", "2", "--theta", "nan"),
                 ("--kind", "squeezed", "--z", "nan"),
                 ("--kind", "angular-average", "--sigma-x", "inf")):
        out_path = tmp_path / "state.json"
        code, _, err = run(capsys, "state", *argv, "-o", str(out_path))
        assert code == 2 and "finite" in err
        assert not out_path.exists()


def test_residual_takes_no_ratio(tmp_path, capsys):
    # the grid fixes R = integral(A)/integral(S); there is no value to override it with
    grid_path = tmp_path / "grid.csv"
    save_grid(grid_path, state_grid(GaussianWignerSpec.pure_state(2.0)))
    code, out, _ = run(capsys, "residual", "--grid", str(grid_path), "--ratio", "1.5")
    assert code == 2 and out == ""


def test_zero_trunc_refused(tmp_path, capsys):
    # --trunc 0 is a bad basis size, not "use the default"; verify takes no
    # --trunc at all, since its suites size their own bases
    out_path = tmp_path / "coherent.json"
    code, out, _ = run(capsys, "state", "--kind", "coherent", "--alpha", "1", "--trunc", "0",
                       "-o", str(out_path))
    assert code == 2 and out == ""
    assert not out_path.exists()
    code, out, err = run(capsys, "verify", "--suite", "fock-ratio", "--trunc", "0",
                         "-o", str(tmp_path))
    assert code == 2 and out == ""
    assert "trunc" in err
    assert not (tmp_path / "verify_fock-ratio.json").exists()


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("--kind", "squeezed", "--z", "0.5", "--theta", "1.0"), "--theta"),
        (("--kind", "coherent", "--alpha", "1", "--sigma-x", "3"), "--sigma-x"),
        (("--kind", "pure", "--sigma-x", "2", "--weight", "0.9", "--z", "4"), "--weight"),
        (("--kind", "impure", "--sigma-x", "4", "--sigma-p", "0.5", "--theta2", "1"),
         "--theta2"),
        (("--kind", "angular-average", "--sigma-x", "2.2", "--trunc", "40"), "--trunc"),
        (("--kind", "squeezed", "--z", "0.5", "--sigma-x", "2"), "--sigma-x"),
    ],
)
def test_state_refuses_flags_its_kind_ignores(tmp_path, capsys, argv, flag):
    out_path = tmp_path / "state.json"
    code, out, err = run(capsys, "state", *argv, "-o", str(out_path))
    assert code == 2 and out == ""
    assert flag in err
    assert not out_path.exists()


@pytest.mark.parametrize("cmd", ["add", "sub"])
@pytest.mark.parametrize(
    "extra",
    [
        ("--points", "769", "--extent", "3"),
        ("--points", "769"),
        ("--extent", "3"),
        ("--state", "missing.json"),
        ("--seed", "11"),
    ],
)
def test_outcome_from_grid_refuses_state_and_geometry_flags(tmp_path, capsys, cmd, extra):
    # the grid file fixes the state and the geometry: add and sub take no
    # other input, and nothing is random
    grid_path = tmp_path / "w.csv"
    save_grid(grid_path, state_grid(GaussianWignerSpec.pure_state(2.0)))
    out_path = tmp_path / f"{cmd}.csv"
    code, out, err = run(capsys, cmd, "--grid", str(grid_path), *extra, "-o", str(out_path))
    assert code == 2 and out == ""
    assert "unrecognized arguments: " + " ".join(extra) in err
    assert not out_path.exists()


def test_wigner_refuses_seed(tmp_path, capsys):
    # nothing is random; test_non_finite_extent_or_step_refused_before_the_build
    # covers wigner --extent
    state, out_path = tmp_path / "pure.json", tmp_path / "w.csv"
    run(capsys, "state", "--kind", "pure", "--sigma-x", "2", "-o", str(state))
    code, out, err = run(capsys, "wigner", "--state", str(state), "--seed", "11",
                         "-o", str(out_path))
    assert code == 2 and out == ""
    assert "unrecognized arguments: --seed 11" in err
    assert not out_path.exists()


def test_mixture_weight_flag(tmp_path, capsys):
    for argv, weight in (((), 0.5), (("--weight", "0.3"), 0.3)):
        path = tmp_path / "mix.json"
        assert run(capsys, "state", "--kind", "mixture", "--sigma-x", "2.2", *argv,
                   "-o", str(path))[0] == 0
        assert load_state(path).components[0].weight == weight


def test_truncation_refusal_is_exit_one(tmp_path, capsys):
    code, _, err = run(capsys, "state", "--kind", "squeezed", "--z", "3",
                       "--trunc", "40", "-o", str(tmp_path / "s.json"))
    assert code == 1
    assert "trunc" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("bogus",),
        ("state", "--wat"),
        ("state", "--kind", "pure"),          # missing --sigma-x
        ("verify", "--suite", "nope"),
        ("figure", "fig9"),
        ("add",),                             # no --grid
        # verify's bounds are pinned: it has no --tol
        ("verify", "--suite", "fock-ratio", "--tol", "junk"),
        ("verify", "--suite", "fock-ratio", "--tol", "ratio=-1"),
        ("verify", "--suite", "fock-ratio", "--tol", "ratoi=1e-30"),
    ],
)
def test_usage_errors_exit_two(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv("SQVAC_OUT", str(tmp_path))
    assert run(capsys, *argv)[0] == 2


def test_missing_grid_file_exit_two(tmp_path, capsys):
    assert run(capsys, "residual", "--grid", str(tmp_path / "none.csv"))[0] == 2


def test_grid_header_larger_than_file_exit_two(tmp_path, capsys):
    # the 8193^2 values the header names need at least 400 MB of rows
    grid_path = tmp_path / "huge.csv"
    grid_path.write_text("# wigner-grid-v1 -4096 1 8193 -4096 1 8193\n0,0,0\n")
    code, out, err = run(capsys, "residual", "--grid", str(grid_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "too small" in err


@pytest.mark.parametrize("layout,message", [
    ("-12 0.375 65 -11 0.375 65", "not a square grid"),       # p layout differs from x
    ("-12 0.375 65 -12 0.375 63", "not a square grid"),
    ("-12 0.5 65 -12 0.5 65", "2*extent/(nx-1) = 0.375"),     # dx is not 24/64
    ("-12 0.375 64 -12 0.375 64", "odd"),                     # even count
    ("-12 0.75 31 -12 0.75 31", "at least 33 points"),        # below 33 points
    ("-4097 1 8195 -4097 1 8195", "cap of 8193"),             # past the cap
], ids=["p0", "np", "dx", "even", "few", "cap"])
@pytest.mark.parametrize("cmd", ["add", "sub", "residual"])
def test_grid_header_not_a_square_geometry_exit_two(tmp_path, capsys, cmd, layout, message):
    grid_path, out_path = tmp_path / "grid.csv", tmp_path / "out.csv"
    save_grid(grid_path, rasterize(GaussianWignerSpec.pure_state(2.0), GridGeometry(12.0, 65)))
    lines = grid_path.read_text().splitlines()
    assert lines[0] == "# wigner-grid-v1 -12 0.375 65 -12 0.375 65"
    grid_path.write_text("\n".join([f"# wigner-grid-v1 {layout}"] + lines[1:]) + "\n")
    argv = (cmd, "--grid", str(grid_path)) + (() if cmd == "residual" else ("-o", str(out_path)))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {grid_path}: ") and err.count("\n") == 1
    assert message in err
    assert not out_path.exists()


@pytest.fixture(scope="module")
def oversized_state(tmp_path_factory):
    """A 514-level number-basis state, one level past the transform's cap:
    a file `state` refuses to write, so it is written here."""
    path = tmp_path_factory.mktemp("oversized") / "past-cap.json"
    save_state(path, FockVector(np.eye(514)[0]))
    return path


@pytest.mark.parametrize("cmd", ["wigner"])
def test_state_too_large_for_transform_refused_without_output(tmp_path, capsys,
                                                              oversized_state, cmd):
    # refused by the transform's Hermite table, before any grid exists
    capsys.readouterr()
    out_path = tmp_path / f"{cmd}.csv"
    code, out, err = run(capsys, cmd, "--state", str(oversized_state), "-o", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cap of 513 levels" in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    # each of these once allocated 58 GiB to 1.5 TiB
    ("--kind", "squeezed", "--z", "10"),
    ("--kind", "squeezed", "--sigma-x", "1e-5"),
    ("--kind", "coherent", "--alpha", "1", "--trunc", "100000000000"),
    # 32 cosh 2z overflows: no finite basis holds these
    ("--kind", "squeezed", "--z", "400"),
    ("--kind", "squeezed", "--z", "1000"),
    ("--kind", "squeezed", "--sigma-x", "1e-300"),
    ("--kind", "squeezed", "--z", "1000", "--trunc", "100"),
    # 352 424 levels: a file that no grid command could take
    ("--kind", "squeezed", "--z", "5"),
])
def test_state_refuses_a_basis_no_grid_command_takes(tmp_path, capsys, recwarn, argv):
    out_path = tmp_path / "state.json"
    code, out, err = run(capsys, "state", *argv, "-o", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_path.exists()
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("alpha", ["1e20", "1.4e154", "1e200"])
def test_state_refuses_a_coherent_amplitude_no_basis_holds(tmp_path, capsys, recwarn, alpha):
    # 1.4e154 and 1e200 once ended in an OverflowError traceback
    out_path = tmp_path / "state.json"
    code, out, err = run(capsys, "state", "--kind", "coherent", "--alpha", alpha,
                         "-o", str(out_path))
    assert code == 1 and out == ""
    assert err == "error: trunc 40 keeps only 1 - 1.000e+00 of the coherent state\n"
    assert not out_path.exists()
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("extent", ["inf", "1e308"])
@pytest.mark.parametrize("cmd", ["wigner", "add"])
@pytest.mark.parametrize("kind", [("--kind", "pure", "--sigma-x", "2"),
                                  ("--kind", "squeezed", "--z", "0.5")])
def test_non_finite_extent_or_step_refused_before_the_build(tmp_path, capsys, recwarn,
                                                             kind, cmd, extent):
    # an extent whose value (inf) or step (1e308) is not finite once reached
    # the build; no grid command takes --extent now, so it is a usage error
    state, grid_path, out_path = (tmp_path / n for n in ("state.json", "w.csv", "out.csv"))
    assert run(capsys, "state", *kind, "-o", str(state))[0] == 0
    source = ("--state", str(state))
    if cmd == "add":
        assert run(capsys, "wigner", *source, "-o", str(grid_path))[0] == 0
        source = ("--grid", str(grid_path))
    code, out, err = run(capsys, cmd, *source, "--extent", extent, "-o", str(out_path))
    assert code == 2 and out == ""
    assert f"unrecognized arguments: --extent {extent}" in err
    assert not out_path.exists()
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("kind", [("--kind", "pure", "--sigma-x", "2"),
                                  ("--kind", "squeezed", "--z", "0.5")])
def test_point_count_past_the_cap_refused_before_the_build(tmp_path, capsys, kind):
    # 100000001^2 values would take 71 PiB
    state, out_path = tmp_path / "state.json", tmp_path / "out.csv"
    assert run(capsys, "state", *kind, "-o", str(state))[0] == 0
    code, out, err = run(capsys, "wigner", "--state", str(state), "--points", "100000001",
                         "-o", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cap of 8193" in err
    assert not out_path.exists()


_AMPS = [[1.0, 0.0], [0.0, 0.0]]
_COMPONENT = {"weight": 1.0, "theta": 0.0, "sigma_x": 2.0, "sigma_p": 0.5}


@pytest.mark.parametrize("text", [
    json.dumps({"format": "fock-v1"}),
    json.dumps({"format": "gauss-v1",
                "components": [{k: v for k, v in _COMPONENT.items() if k != "theta"}]}),
    "[1, 2]",
    "not json",
    json.dumps({"format": "fock-v1", "trunc": "abc", "amps": _AMPS}),
    json.dumps({"format": "fock-v1", "trunc": 2, "amps": [[1.0], [0.0, 0.0]]}),
    json.dumps({"format": "gauss-v1", "components": [dict(_COMPONENT, sigma_x="2")]}),
    json.dumps({"format": "gauss-v1", "components": [dict(_COMPONENT, sigma_p=None)]}),
    json.dumps({"format": "fock-v1", "trunc": 2, "amps": [["x", 0.0], [0.0, 0.0]]}),
    # once read as trunc 2
    json.dumps({"format": "fock-v1", "trunc": 2.7, "amps": _AMPS}),
], ids=["fock-no-fields", "gauss-no-theta", "list", "not-json", "trunc-text", "short-pair",
        "width-text", "width-null", "amplitude-text", "trunc-fraction"])
def test_malformed_state_file_refused_without_output(tmp_path, capsys, text):
    state, out_path = tmp_path / "state.json", tmp_path / "out.csv"
    state.write_text(text)
    code, out, err = run(capsys, "wigner", "--state", str(state), "-o", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_path.exists()


@pytest.mark.parametrize("k", [1000, -1000, -1074], ids=["2^1000", "2^-1000", "subnormal"])
def test_scaled_fock_file_gives_the_unscaled_bytes(tmp_path, capsys, k):
    # the amplitudes times 2^k are exact, subnormal ones at 2^-1074 included,
    # so the grid, its outcome and its residual are the unscaled state's byte
    # for byte, with no numpy warning on the way (at 2^1000 the squared norm
    # overflows)
    amps = np.array([3.0, 2.0, -1.0j, 1.0, 0.0, 0.0])
    results = []
    for parts in (amps, np.ldexp(amps.real, k) + 1j * np.ldexp(amps.imag, k)):
        state, grid, added = (tmp_path / name for name in ("state.json", "grid.csv", "add.csv"))
        save_state(state, FockVector(parts))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(capsys, "wigner", "--state", str(state), "-o", str(grid))[0] == 0
            assert run(capsys, "add", "--grid", str(grid), "-o", str(added))[0] == 0
            code, out, _ = run(capsys, "residual", "--grid", str(grid))
        assert code == 0
        results.append((grid.read_bytes(), added.read_bytes(), out))
    assert results[1] == results[0]


@pytest.mark.parametrize("amps", [
    [1e150, -1e150j, 1e-150, 0.0, 5e-324],
    [1e150 * (-1) ** n if n % 3 else 1e-150j for n in range(40)],
], ids=["transformed", "refused"])
def test_wide_range_amplitudes_give_finite_grid_or_no_file(tmp_path, capsys, amps):
    state, out_path = tmp_path / "state.json", tmp_path / "out.csv"
    save_state(state, FockVector(np.array(amps)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "wigner", "--state", str(state), "-o", str(out_path))
    if code == 0:
        grid, _ = load_grid(out_path)
        assert np.all(np.isfinite(grid.values))
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_path.exists()


@pytest.mark.parametrize("where", ["grid-header", "grid-row", "state"])
def test_undecodable_bytes_refused_naming_the_file(tmp_path, capsys, where):
    path, out_path = tmp_path / "in.dat", tmp_path / "out.csv"
    if where == "state":
        path.write_bytes(b"\xff")
        argv = ("wigner", "--state", str(path))
    else:
        save_grid(path, state_grid(GaussianWignerSpec.pure_state(2.0)))
        data = bytearray(path.read_bytes())
        data[10 if where == "grid-header" else 5010] = 0xFF
        path.write_bytes(bytes(data))
        argv = ("add", "--grid", str(path))
    code, out, err = run(capsys, *argv, "-o", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert not out_path.exists()


def test_unresolved_transform_refused_without_output(tmp_path, capsys):
    # sigma_x = 1/2 has 1.3 points per narrowest width on 65 points
    state, out_path = tmp_path / "state.json", tmp_path / "out.csv"
    assert run(capsys, "state", "--kind", "squeezed", "--z", repr(math.log(2.0)),
               "-o", str(state))[0] == 0
    code, out, err = run(capsys, "wigner", "--state", str(state), "--points", "65",
                         "-o", str(out_path))
    assert code == 2 and out == ""
    assert "normalization drift" in err and "--points" in err and err.count("\n") == 1
    assert not out_path.exists()


def test_transform_builds_one_density_matrix(tmp_path, capsys, monkeypatch):
    # one moments pass sizes the grid and one Hermite table feeds the
    # transform's kernel psi(x - y/2) psi*(x + y/2): a pure state needs no
    # eigendecomposition
    state, grid_path = tmp_path / "z1.json", tmp_path / "z1.csv"
    assert run(capsys, "state", "--kind", "squeezed", "--z", "1", "-o", str(state))[0] == 0
    calls = {}

    def count(owner, name):
        wrapped = getattr(owner, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return wrapped(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((phasespace, "quadrature_moments"), (phasespace, "hermite_psi_table"),
                        (np.linalg, "eigh"), (np.linalg, "eigvalsh")):
        count(owner, name)
    assert run(capsys, "wigner", "--state", str(state), "-o", str(grid_path))[0] == 0
    assert calls == {"quadrature_moments": 1, "hermite_psi_table": 1, "eigh": 0, "eigvalsh": 0}


# ------------------------------------------------------- figures and verify

def test_figure_fig3(tmp_path, capsys):
    code, out, _ = run(capsys, "figure", "fig3", "-o", str(tmp_path))
    assert code == 0
    paths = out.splitlines()
    assert len(paths) == 2 and all(os.path.exists(p) for p in paths)


def test_verify_subcommand(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--suite", "fock-ratio",
                       "-o", str(tmp_path))
    assert code == 0
    assert "fock-ratio: PASS (6 cases)" in out
    report = json.loads((tmp_path / "verify_fock-ratio.json").read_text())
    assert report["suite"] == "fock-ratio" and len(report["cases"]) == 6


def test_verify_reports_failures(tmp_path, capsys, monkeypatch):
    # a negative bound fails every ratio error, including one that is exactly 0.0
    monkeypatch.setitem(verify._TOLERANCES, "fock_ratio", -1.0)
    code, out, _ = run(capsys, "verify", "--suite", "fock-ratio", "-o", str(tmp_path))
    assert code == 1
    assert "FAIL" in out and "measured=" in out
    report = json.loads((tmp_path / "verify_fock-ratio.json").read_text())
    assert [c["pass"] for c in report["cases"]] == [False, True] * 3


def test_pooled_verify_all_matches_inline(tmp_path, capsys, monkeypatch):
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(phasespace, "_worker_count", lambda: workers)
        if workers == 2:
            parent = os.getpid()

            def in_worker(name):
                assert os.getpid() != parent, "a suite ran in the parent"
                return verify.run_suite(name)

            monkeypatch.setattr(cli, "run_suite", in_worker)
        out_dir = tmp_path / f"workers{workers}"
        code, out, err = run(capsys, "verify", "--suite", "all", "-o", str(out_dir))
        assert code == 0 and err == ""
        assert multiprocessing.active_children() == []
        reports = {name: (out_dir / f"verify_{name}.json").read_bytes()
                   for name in verify.SUITE_NAMES}
        assert sorted(os.listdir(out_dir)) == sorted(f"verify_{n}.json" for n in reports)
        outputs.append((out, reports))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].splitlines()[0] == "pure-identity: PASS (24 cases)"


@pytest.mark.parametrize("workers", [1, 2])
def test_degenerate_suite_stops_verify_after_the_earlier_reports(tmp_path, capsys, monkeypatch,
                                                                 workers):
    # the fifth suite raises, in a forked worker when there are two; the
    # reports of the four before it are written and none after it
    parent = os.getpid()
    planted = verify.SUITE_NAMES[4]

    def suite(name):
        def cases():
            if name == planted:
                where = "the parent" if os.getpid() == parent else "a worker"
                raise DegenerateInputError(f"planted in {where}")
            return [verify.CaseResult(f"{name}-case", 0.0, 1.0)]
        return cases

    monkeypatch.setattr(verify, "_SUITES", {name: suite(name) for name in verify.SUITE_NAMES})
    monkeypatch.setattr(phasespace, "_worker_count", lambda: workers)
    code, out, err = run(capsys, "verify", "--suite", "all", "-o", str(tmp_path))
    assert code == 1
    assert err == f"error: planted in {'a worker' if workers == 2 else 'the parent'}\n"
    earlier = verify.SUITE_NAMES[:4]
    assert out.splitlines() == [f"{name}: PASS (1 cases)" for name in earlier]
    assert sorted(os.listdir(tmp_path)) == sorted(f"verify_{name}.json" for name in earlier)
    assert multiprocessing.active_children() == []


def test_single_suite_imports_no_process_pool(tmp_path):
    # one suite runs inline, so the pool's modules are never imported
    import sqvac
    src = os.path.dirname(os.path.dirname(sqvac.__file__))
    code = ("import sys; from sqvac.cli import main; "
            "assert main(['verify', '--suite', 'fock-ratio', '-o', sys.argv[1]]) == 0; "
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout.splitlines() == ["fock-ratio: PASS (6 cases)", "[]"]


def test_grid_suite_imports_no_thread_pool(tmp_path):
    # angular-average rasterizes, runs the identity check and squares W for
    # the purity, each pass in the calling thread
    import sqvac
    src = os.path.dirname(os.path.dirname(sqvac.__file__))
    code = ("import sys; from sqvac.cli import main; "
            "assert main(['verify', '--suite', 'angular-average', '-o', sys.argv[1]]) == 0; "
            "print('concurrent.futures.thread' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout.splitlines()[-1] == "False"


# ------------------------------------------------------------- environment

def test_sqvac_out_default_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SQVAC_OUT", str(tmp_path))
    code, out, _ = run(capsys, "state", "--kind", "angular-average",
                       "--sigma-x", "2.2")
    assert code == 0
    path = out.strip()
    assert path.startswith(str(tmp_path)) and os.path.exists(path)


def test_explicit_out_beats_environment(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "env"
    env_dir.mkdir()
    monkeypatch.setenv("SQVAC_OUT", str(env_dir))
    target = tmp_path / "explicit.json"
    code, out, _ = run(capsys, "state", "--kind", "pure", "--sigma-x", "2",
                       "-o", str(target))
    assert code == 0
    assert target.exists()
    assert os.listdir(env_dir) == []


def test_import_loads_no_scipy_submodules():
    # every sqvac command pays its import; scipy and the thread and process
    # pools are imported where they are used
    import sqvac
    src = os.path.dirname(os.path.dirname(sqvac.__file__))
    code = ("import sys, sqvac.cli; "
            "print(sorted(m for m in ('scipy.linalg', 'scipy.special', 'concurrent.futures', "
            "'concurrent.futures.process', 'multiprocessing') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout.strip() == "[]"


def test_reports_do_not_depend_on_blas_thread_count(tmp_path):
    # OpenBLAS splits its sums by its thread count; the reports must not see it
    import sqvac
    src = os.path.dirname(os.path.dirname(sqvac.__file__))
    reports = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"blas{threads}"
        subprocess.run([sys.executable, "-m", "sqvac.cli", "verify", "--suite",
                        "angular-average", "-o", str(out_dir)], check=True, capture_output=True,
                       env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads))
        reports.append((out_dir / "verify_angular-average.json").read_bytes())
    assert reports[0] == reports[1]


def test_transform_grid_does_not_depend_on_blas_thread_count(tmp_path):
    # the transform's y sum once ran through a complex BLAS product, which
    # OpenBLAS splits by its thread count; the complex state also feeds the
    # imaginary parts of psi and of the kernel
    import sqvac
    src = os.path.dirname(os.path.dirname(sqvac.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    squeezed, complex_state = tmp_path / "squeezed.json", tmp_path / "complex.json"
    subprocess.run([sys.executable, "-m", "sqvac.cli", "state", "--kind", "squeezed", "--z",
                    repr(math.log(2.0)), "-o", str(squeezed)], check=True, capture_output=True,
                   env=env)
    r = 1.0 / math.sqrt(3.0)  # (|0> + i|1> + |2>) / sqrt(3)
    complex_state.write_text(json.dumps({"format": "fock-v1", "trunc": 3,
                                         "amps": [[r, 0.0], [0.0, r], [r, 0.0]]}))
    for state in (squeezed, complex_state):
        grids = []
        for threads in ("1", "2"):
            path = tmp_path / f"{state.stem}_blas{threads}.csv"
            subprocess.run([sys.executable, "-m", "sqvac.cli", "wigner", "--state", str(state),
                            "-o", str(path)], check=True, capture_output=True,
                           env=dict(env, OPENBLAS_NUM_THREADS=threads))
            grids.append(path.read_bytes())
        assert grids[0] == grids[1], state.name


def test_console_script_installed():
    exe = shutil.which("sqvac")
    if exe is None:
        pytest.skip("entry point not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "wigner" in proc.stdout and "verify" in proc.stdout


# ------------------------------------------------ finite or refused, end to end

_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
# half of the numbers are positive and finite, from 1e-300 to 1e300
_NUMBERS = st.one_of(st.floats(-690.0, 690.0).map(math.exp), _ANY_FLOAT)
_ODD_VALUES = st.one_of(_ANY_FLOAT, st.integers(-3, 70), st.none(), st.text(max_size=4),
                        st.lists(st.floats(-2.0, 2.0), max_size=3))


def _some_keys(obj: dict):
    """obj as it is, or with one key dropped, or with one value replaced."""
    keys = st.sampled_from(sorted(obj))
    return st.one_of(
        st.just(obj),
        keys.map(lambda key: {k: v for k, v in obj.items() if k != key}),
        st.tuples(keys, _ODD_VALUES).map(lambda kv: obj | {kv[0]: kv[1]}))


@st.composite
def _state_texts(draw):
    """State JSON of every format, its numbers of any magnitude and sign."""
    kind = draw(st.sampled_from(["fock-v1", "gauss-v1", "angavg-v1", "bogus"]))
    if kind == "fock-v1":
        amps = draw(st.lists(st.one_of(st.tuples(_NUMBERS, _NUMBERS).map(list),
                                       st.lists(_ANY_FLOAT, max_size=3)), max_size=12))
        obj = {"trunc": draw(st.one_of(st.just(len(amps)), st.integers(-1, 14))), "amps": amps}
    elif kind == "gauss-v1":
        count = draw(st.integers(0, 3))
        obj = {"components": [draw(_some_keys({"weight": 1.0 / max(count, 1),
                                               **{k: draw(_NUMBERS) for k in
                                                  ("theta", "sigma_x", "sigma_p")}}))
                              for _ in range(count)]}
    else:
        obj = {"sigma_x": draw(_NUMBERS)}
    return json.dumps(draw(_some_keys({"format": kind, **obj})))


@functools.cache
def _grid_file_bytes() -> bytes:
    """A 65-point grid file of a pure sigma_x = 2 state, made once."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.csv")
        save_grid(path, rasterize(GaussianWignerSpec.pure_state(2.0, 0.3), GridGeometry(12.0, 65)))
        with open(path, "rb") as fh:
            return fh.read()


@st.composite
def _grid_texts(draw):
    """The 65-point grid file truncated, with bytes or digits flipped, a
    header field replaced or a row duplicated."""
    data = bytearray(_grid_file_bytes())
    how = draw(st.sampled_from(["truncate", "flip", "digit", "header", "duplicate"]))
    if how == "truncate":
        return bytes(data[:draw(st.integers(0, len(data) - 1))])
    if how in ("flip", "digit"):
        digits = [i for i, byte in enumerate(data) if chr(byte).isdigit()]
        for _ in range(draw(st.integers(1, 3))):
            if how == "flip":
                data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
            else:
                data[draw(st.sampled_from(digits))] = ord(draw(st.sampled_from("0123456789")))
        return bytes(data)
    lines = bytes(data).split(b"\n")
    if how == "header":
        fields = lines[0].split(b" ")
        token = draw(st.one_of(st.sampled_from(["nan", "inf", "-0", "1e308", "63", "33", "x", ""]),
                               _ANY_FLOAT.map(repr), st.integers(-10, 9000).map(str)))
        fields[draw(st.integers(0, len(fields) - 1))] = token.encode()
        lines[0] = b" ".join(fields)
    else:
        row = draw(st.integers(1, len(lines) - 2))
        lines.insert(row, lines[row])
    return b"\n".join(lines)


_NOT_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _finite_or_refused(argv, tmp, out_path):
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main(argv)  # an exception here, a warning included, fails the test
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1, 2)
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (out, err)
        assert out_path is None or not os.path.exists(out_path)
        return
    assert not _NOT_FINITE.search(out.replace(tmp, "")), out
    if out_path is not None:
        with open(out_path) as fh:
            assert not _NOT_FINITE.search(fh.read())


@settings(max_examples=40, deadline=None)
@given(text=_state_texts(), points=st.sampled_from([None, 33, 65]))
def test_any_state_file_gives_a_finite_grid_or_one_error_line(text, points):
    with tempfile.TemporaryDirectory() as tmp:
        state, out_path = os.path.join(tmp, "state.json"), os.path.join(tmp, "out.csv")
        with open(state, "w") as fh:
            fh.write(text)
        argv = ["wigner", "--state", state, "-o", out_path]
        _finite_or_refused(argv + ([] if points is None else ["--points", str(points)]),
                           tmp, out_path)


@settings(max_examples=40, deadline=None)
@given(data=_grid_texts(), cmd=st.sampled_from(["add", "sub", "residual"]))
def test_any_grid_file_gives_finite_output_or_one_error_line(data, cmd):
    with tempfile.TemporaryDirectory() as tmp:
        grid_path = os.path.join(tmp, "grid.csv")
        with open(grid_path, "wb") as fh:
            fh.write(data)
        out_path = None if cmd == "residual" else os.path.join(tmp, "out.csv")
        _finite_or_refused([cmd, "--grid", grid_path] + ([] if out_path is None else
                                                         ["-o", out_path]), tmp, out_path)


# flag values: every special float, huge and negative basis sizes, and point
# counts that are negative, even or past 8193, each beside values that work;
# valid counts stay at or below 129, so each example runs fast
_FLAG_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                                          -5e-324, 1e-300, -1e-300, 1e300, -1e300]),
                         st.floats(0.1, 5.0), st.floats())
_FLAG_INTS = st.one_of(st.integers(-5, 60), st.integers(min_value=10**3, max_value=10**30),
                       st.integers(max_value=-1))
_POINTS = st.one_of(st.integers(16, 64).map(lambda k: 2 * k + 1), st.integers(-10**6, 129),
                    st.integers(65, 10**9).map(lambda k: 2 * k),
                    st.integers(4097, 10**9).map(lambda k: 2 * k + 1))


@st.composite
def _state_flags(draw):
    """state of a random kind, each of its own flags left out or given a value."""
    kind = draw(st.sampled_from(sorted(cli._KIND_FLAGS)))
    argv = ["state", "--kind", kind]
    for name in cli._KIND_FLAGS[kind]:
        if draw(st.booleans()):
            value = draw(_FLAG_INTS if name == "trunc" else _FLAG_FLOATS)
            # --flag=value, so argparse reads -inf or -1e-300 as a value, not a flag
            argv.append(f"--{name.replace('_', '-')}={value!r}")
    return argv


@settings(max_examples=40, deadline=None)
@given(argv=st.one_of(_state_flags(), _POINTS.map(lambda n: ["wigner", f"--points={n}"])))
def test_any_flag_value_gives_a_finite_file_or_one_error_line(argv):
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "wigner":
            state = os.path.join(tmp, "state.json")
            save_state(state, GaussianWignerSpec.pure_state(2.0))
            argv = argv + ["--state", state]
        out_path = os.path.join(tmp, "out")
        _finite_or_refused(argv + ["-o", out_path], tmp, out_path)
