"""Verification suites: all green, deterministic, and honestly encoded."""

import filecmp
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from sqvac import (
    ConfigurationError,
    GaussianWignerSpec,
    TruncationError,
    figure_data,
    refined_geometry,
    run_suite,
)
from sqvac import io as sqio
from sqvac import phasespace, verify
from sqvac.io import load_grid, save_report
from sqvac.verify import SUITE_NAMES


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_passes(name):
    report = run_suite(name)
    assert report.suite == name
    assert report.passed, [
        (c.label, c.measured, c.bound) for c in report.failures
    ]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="suite workers are forked")
def test_suite_order_keeps_one_scipy_special_import():
    # verify --suite all forks its workers from a CLI process that has not
    # imported scipy.special, and hands them suites in SUITE_NAMES order;
    # each worker that runs a suite needing it pays the import (0.2 s,
    # 29 MB). Each suite here runs in a child forked from a fresh
    # interpreter, as in a worker that has run nothing else.
    import sqvac
    src = os.path.dirname(os.path.dirname(sqvac.__file__))
    code = (
        "import os, sys\n"
        "from sqvac.verify import SUITE_NAMES, run_suite\n"
        "assert 'scipy.special' not in sys.modules\n"
        "for name in SUITE_NAMES:\n"
        "    pid = os.fork()\n"
        "    if pid == 0:\n"
        "        try:\n"
        "            run_suite(name)\n"
        "            print(name, 'scipy.special' in sys.modules, flush=True)\n"
        "        finally:\n"
        "            os._exit(0)\n"
        "    os.waitpid(pid, 0)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    loads = dict(line.split() for line in proc.stdout.splitlines())
    assert list(loads) == list(SUITE_NAMES)
    special = [name for name in SUITE_NAMES if loads[name] == "True"]
    assert special == ["commutator", "angular-average"]
    # pure-identity, the longest, takes the first worker; the second runs
    # negative-cases (its 769^2 grids) before the import, then both suites
    # that import it back to back, so one worker imports it in any run
    names = list(SUITE_NAMES)
    first = names.index(special[0])
    assert names[0] == "pure-identity"
    assert names.index("negative-cases") < first
    assert names[first:first + 2] == special


def test_unknown_suite():
    with pytest.raises(ConfigurationError):
        run_suite("no-such-suite")


def test_reports_are_deterministic(tmp_path):
    for name in ("fock-ratio", "impure-difference"):
        a = run_suite(name).to_obj()
        b = run_suite(name).to_obj()
        assert a == b
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_report(p1, a)
    save_report(p2, b)
    assert p1.read_bytes() == p2.read_bytes()


def test_case_schema():
    obj = run_suite("fock-ratio").to_obj()
    assert set(obj) == {"suite", "cases"}
    for case in obj["cases"]:
        assert set(case) == {"label", "measured", "bound", "pass"}
        assert case["pass"] == (case["measured"] <= case["bound"])


def test_impure_suite_holds_no_outcome_grid():
    points = refined_geometry(GaussianWignerSpec.single(4.0, 0.5)).points
    w_bytes = 8 * points * points
    tracemalloc.start()
    try:
        run_suite("impure-difference")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the spec is sampled block by block, so not even W is held: only
    # axis-length vectors and each worker's tile-sized buffers
    assert peak < 0.5 * w_bytes


def test_floor_cases_store_negated_values():
    report = run_suite("impure-difference")
    case = {c.label: c for c in report.cases}["impure-residual-floor"]
    # encoded so that pass <=> measured <= bound even for lower bounds
    assert case.bound == -0.05
    assert case.measured < case.bound  # actual residual well above the floor


def test_error_expectation_case_encoding():
    report = run_suite("negative-cases")
    case = {c.label: c for c in report.cases}["vacuum-grid-degenerate-error"]
    assert (case.measured, case.bound) == (0.0, 0.0)


def test_tolerance_overrides_bind(monkeypatch):
    # no option resets a bound; a suite reads the pinned table when it runs
    monkeypatch.setitem(verify._TOLERANCES, "fock_ratio", 1e-30)
    report = run_suite("fock-ratio")
    assert not report.passed
    assert all(c.label.endswith("-ratio-err") for c in report.failures)


def test_tolerance_table_is_pinned():
    # the whole table, and every bound a report carries comes from it: a
    # ceiling as is, a floor negated; only error expectations bound at 0.0
    assert verify._TOLERANCES == {
        "annihilation": 1e-6, "coherent_floor": 0.1, "commutator": 1e-4,
        "elliptic_alt_floor": 1e-3, "factor_gap_floor": 0.1, "fock_ratio": 1e-6,
        "fock_residual": 1e-6, "maxdiff_floor": 0.01, "mixture_floor": 0.01, "origin": 1e-3,
        "pairing_floor": 0.1, "purity": 1e-4, "purity_drop": 1e-6, "ratio": 1e-3,
        "residual": 1e-4, "residual_floor": 0.05, "second_round_floor": 0.01,
        "vacuum_purity": 1e-10,
    }
    table = set(verify._TOLERANCES.values())
    for name in SUITE_NAMES:
        for case in run_suite(name).cases:
            if case.label.endswith("-error"):
                assert case.bound == 0.0, case
            else:
                assert abs(case.bound) in table, case


def test_grid_tolerances_leave_fock_bounds_alone(monkeypatch):
    # the grid suites' ratio and residual bounds are 1e-3 and 1e-4; loosening
    # them must not loosen the number-basis bounds of 1e-6
    monkeypatch.setitem(verify._TOLERANCES, "ratio", 1e-3)
    monkeypatch.setitem(verify._TOLERANCES, "residual", 1e-3)
    cases = run_suite("fock-ratio").cases
    assert [c.bound for c in cases] == [1e-6] * 6  # three ratio-err, three residual


def test_parameter_overrides_bind(monkeypatch):
    # each suite sizes its number basis by suggested_truncation; a basis too
    # small for the state is refused, not truncated silently
    monkeypatch.setattr(verify, "suggested_truncation", lambda z: 20)
    with pytest.raises(TruncationError):
        run_suite("fock-ratio")
    monkeypatch.setattr(verify, "suggested_truncation", lambda z: 200)
    assert run_suite("fock-ratio").passed


# -------------------------------------------------------------- figure data

def test_fig1_outputs(tmp_path):
    paths = figure_data("fig1", str(tmp_path))
    assert [p.rsplit("/", 1)[-1] for p in paths] == \
        ["fig1_added.csv", "fig1_subtracted.csv", "fig1_difference.csv"]
    diff, comments = load_grid(paths[2])
    assert np.max(np.abs(diff.values)) > 0.01
    assert any("added minus subtracted" in c for c in comments)


def test_fig1_deterministic(tmp_path):
    a = figure_data("fig1", str(tmp_path / "a"))
    b = figure_data("fig1", str(tmp_path / "b"))
    assert filecmp.cmp(a[2], b[2], shallow=False)


def test_fig1_files_are_the_same_bytes_on_per_file_workers(tmp_path, monkeypatch):
    files = []
    for workers in (1, 2):
        monkeypatch.setattr(phasespace, "_worker_count", lambda: workers)
        if workers == 2:
            parent, save_grid = os.getpid(), sqio.save_grid

            def in_worker(*args, **kwargs):
                assert os.getpid() != parent, "a figure file was written in the parent"
                return save_grid(*args, **kwargs)

            monkeypatch.setattr(sqio, "save_grid", in_worker)
        out_dir = tmp_path / f"workers{workers}"
        paths = figure_data("fig1", str(out_dir), seed=5)
        assert multiprocessing.active_children() == []
        names = ["fig1_added.csv", "fig1_subtracted.csv", "fig1_difference.csv"]
        assert paths == [str(out_dir / name) for name in names]
        assert sorted(os.listdir(out_dir)) == sorted(names)
        files.append([(out_dir / name).read_bytes() for name in names])
    assert files[0] == files[1]


def test_figure_worker_error_reaches_caller_and_keeps_target(tmp_path, monkeypatch):
    # raises only in a forked worker, so an inline write would not raise
    parent, format_rows = os.getpid(), sqio._format_rows

    def fail_in_worker(rows, block):
        if os.getpid() != parent:
            raise RuntimeError("worker failed")
        return format_rows(rows, block)

    monkeypatch.setattr(sqio, "_format_rows", fail_in_worker)
    monkeypatch.setattr(phasespace, "_worker_count", lambda: 2)
    target = tmp_path / "fig1_subtracted.csv"
    target.write_text("old\n")
    with pytest.raises(RuntimeError, match="worker failed"):
        figure_data("fig1", str(tmp_path))
    assert multiprocessing.active_children() == []
    assert os.listdir(tmp_path) == ["fig1_subtracted.csv"]
    assert target.read_text() == "old\n"


def test_fig2_outcome_origins(tmp_path):
    for path in figure_data("fig2", str(tmp_path)):
        grid, _ = load_grid(path)
        m = grid.geometry.points // 2
        origin = grid.values[m, m]
        assert abs(origin - (-1.0 / math.pi)) < 1e-3


def test_fig3_tail_departs_from_gaussian(tmp_path):
    profile_path, purity_path = figure_data("fig3", str(tmp_path))
    rows = np.loadtxt(profile_path, delimiter=",", comments="#")
    radii, logw = rows[:, 0], rows[:, 1]
    # best gaussian through the core: straight line in log10 W vs r^2
    core = radii <= 3.0
    coeff = np.polyfit(radii[core] ** 2, logw[core], 1)
    fitted = np.polyval(coeff, radii ** 2)
    assert np.max(np.abs(logw[~core] - fitted[~core])) > 0.05

    table = np.loadtxt(purity_path, delimiter=",", comments="#")
    sigmas, purities = table[:, 0], table[:, 1]
    assert sigmas[0] == 1.0 and sigmas[-1] == 5.0
    assert abs(purities[0] - 1.0) < 1e-10
    assert np.all(np.diff(purities) < 0.0)
    assert purities[-1] == pytest.approx(0.19923780683180788, rel=1e-12)


def test_figure_seed_recorded(tmp_path):
    for path in figure_data("fig3", str(tmp_path), seed=7):
        header = [l for l in open(path) if l.startswith("#")]
        assert any(l.strip() == "# seed 7" for l in header)


def test_unknown_figure(tmp_path):
    with pytest.raises(ConfigurationError):
        figure_data("fig9", str(tmp_path))
