import io
import json
import math
import multiprocessing
import os
import re
import threading
import warnings

import numpy as np
import pytest

from sqvac import (
    AngularAverageSpec,
    ConfigurationError,
    GaussianWignerSpec,
    GeometryError,
    GridGeometry,
    WignerGrid,
    coherent_state,
    identity_residual,
    rasterize,
    squeezed_vacuum,
    state_grid,
)
import sqvac.io as io_module
from sqvac import phasespace
from sqvac.io import (
    atomic_write,
    load_grid,
    load_state,
    obj_to_state,
    save_grid,
    save_report,
    save_state,
    state_to_obj,
)


# ------------------------------------------------------------- state JSON

def test_fock_state_roundtrip_exact(tmp_path):
    path = tmp_path / "state.json"
    orig = squeezed_vacuum(math.log(2.0), 68)
    save_state(path, orig)
    loaded = load_state(path)
    assert loaded.trunc == 68
    # json floats reparse to the identical doubles
    assert np.array_equal(loaded.amps, orig.amps)


def test_fock_state_keeps_imaginary_parts(tmp_path):
    path = tmp_path / "state.json"
    orig = coherent_state(0.5 + 0.25j, 32)
    save_state(path, orig)
    assert np.array_equal(load_state(path).amps, orig.amps)


def test_gauss_state_roundtrip(tmp_path):
    path = tmp_path / "state.json"
    spec = GaussianWignerSpec.two_angle_mixture(0.3, 0.2, math.pi / 4, 2.2)
    save_state(path, spec)
    assert load_state(path) == spec


def test_angular_average_roundtrip(tmp_path):
    path = tmp_path / "state.json"
    save_state(path, AngularAverageSpec(2.2))
    assert load_state(path) == AngularAverageSpec(2.2)


def test_state_serialization_rejects_unknown():
    with pytest.raises(ConfigurationError):
        state_to_obj(42)
    with pytest.raises(ConfigurationError):
        obj_to_state({"format": "mystery-v9"})
    with pytest.raises(ConfigurationError):
        obj_to_state({"format": "fock-v1", "trunc": 5, "amps": [[1.0, 0.0]]})
    # a boolean is not a width, nor is an integer no float can hold
    for sigma_x in (True, 10 ** 400):
        with pytest.raises(ConfigurationError, match="finite number"):
            obj_to_state({"format": "angavg-v1", "sigma_x": sigma_x})


# --------------------------------------------------------------- grid CSV

def small_grid():
    return rasterize(GaussianWignerSpec.pure_state(2.0), GridGeometry(12.0, 65))


def test_grid_roundtrip_bit_exact(tmp_path):
    path = tmp_path / "grid.csv"
    grid = small_grid()
    save_grid(path, grid, ["alpha", "seed 7"])
    loaded, comments = load_grid(path)
    assert comments == ["alpha", "seed 7"]
    assert loaded.geometry == grid.geometry
    assert np.array_equal(loaded.values, grid.values)
    assert np.array_equal(loaded.geometry.axis(), grid.geometry.axis())


def test_roundtrip_preserves_residual_bitwise(tmp_path):
    # the whole point of the 17-digit format: downstream numbers cannot move
    path = tmp_path / "grid.csv"
    grid = state_grid(GaussianWignerSpec.pure_state(2.0))
    save_grid(path, grid)
    loaded, _ = load_grid(path)
    assert identity_residual(loaded) == identity_residual(grid)


def awkward_grid(n):
    # values of every magnitude, none symmetric, so an x/p transposition
    # cannot pass; a step that is not an exact binary fraction, so every
    # coordinate needs all 17 digits
    rng = np.random.default_rng(11)
    values = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-20, 5, (n, n))
    values.flat[:8] = [-0.0, 5e-324, 1e-300, 1.0, 0.1, -1.0, -2.5e-7, 0.0]
    return WignerGrid(GridGeometry(1.7, n), values)


def savetxt_reference(grid, comments) -> bytes:
    ref = io.StringIO()
    axis, n = grid.geometry.axis(), grid.geometry.points
    layout = "%.17g %.17g %d" % (axis[0], grid.geometry.step, n)
    ref.write(f"# wigner-grid-v1 {layout} {layout}\n")
    for c in comments:
        ref.write(f"# {c}\n")
    table = np.column_stack([np.repeat(axis, n), np.tile(axis, n), grid.values.ravel()])
    np.savetxt(ref, table, fmt="%.17g", delimiter=",")
    return ref.getvalue().encode()


@pytest.mark.parametrize("comments", [[], ["alpha"], ["alpha", "seed 7; x,p"]])
def test_grid_bytes_match_savetxt_reference(tmp_path, comments):
    grid = awkward_grid(35)
    path = tmp_path / "grid.csv"
    save_grid(path, grid, comments)
    assert path.read_bytes() == savetxt_reference(grid, comments)
    assert path.read_bytes().splitlines()[len(comments) + 1] == b"-1.7,-1.7,-0"
    second_row = b"-1.7,-1.5999999999999999,4.9406564584124654e-324"
    assert path.read_bytes().splitlines()[len(comments) + 2] == second_row


def _set_workers(monkeypatch, workers):
    monkeypatch.setattr(phasespace, "_worker_count", lambda: workers)


@pytest.mark.parametrize("workers,fork", [(1, True), (2, True), (2, False)])
def test_pooled_grid_bytes_match_savetxt_reference(tmp_path, monkeypatch, workers, fork):
    # 401 rows of 401 values are two row blocks, so two workers split them;
    # a platform without fork formats them inline
    _set_workers(monkeypatch, workers)
    if not fork:
        monkeypatch.delattr(os, "fork")
    grid = awkward_grid(401)
    path = tmp_path / "grid.csv"
    save_grid(path, grid, ["alpha"])
    assert multiprocessing.active_children() == []
    assert path.read_bytes() == savetxt_reference(grid, ["alpha"])
    loaded, _ = load_grid(path)
    assert loaded.values.tobytes() == grid.values.tobytes()


def test_worker_error_reaches_caller_and_keeps_target(tmp_path, monkeypatch):
    # raises only in a forked worker, so an inline save would not raise
    parent, format_rows = os.getpid(), io_module._format_rows

    def fail_in_worker(rows, block):
        if os.getpid() != parent:
            raise RuntimeError("worker failed")
        return format_rows(rows, block)

    monkeypatch.setattr(io_module, "_format_rows", fail_in_worker)
    _set_workers(monkeypatch, 2)
    target = tmp_path / "grid.csv"
    target.write_text("old\n")
    with pytest.raises(RuntimeError, match="worker failed"):
        save_grid(target, awkward_grid(401))
    assert multiprocessing.active_children() == []
    assert os.listdir(tmp_path) == ["grid.csv"]
    assert target.read_text() == "old\n"


def test_grid_rejects_wrong_magic(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("# some-other-format 0 1 33 0 1 33\n")
    with pytest.raises(ConfigurationError):
        load_grid(path)


def test_grid_rejects_truncated_file(tmp_path):
    path = tmp_path / "grid.csv"
    save_grid(path, small_grid())
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-10]) + "\n")
    with pytest.raises(ConfigurationError):
        load_grid(path)


def test_grid_rejects_non_finite_values(tmp_path):
    path = tmp_path / "grid.csv"
    save_grid(path, small_grid())
    lines = path.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",nan"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError):
        load_grid(path)


def test_load_grid_names_the_file_holding_non_finite_values(tmp_path):
    # the grid refuses the values; load_grid adds the path
    path = tmp_path / "grid.csv"
    save_grid(path, small_grid())
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",-inf"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError) as info:
        load_grid(path)
    assert str(info.value) == f"{path}: grid holds non-finite values"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_save_grid_refuses_non_finite_values(tmp_path, bad):
    values = small_grid().values.copy()
    values[3, 5] = bad
    path = tmp_path / "grid.csv"
    with pytest.raises(ConfigurationError, match="non-finite"):
        save_grid(path, WignerGrid(small_grid().geometry, values))
    assert os.listdir(tmp_path) == []


def test_save_report_refuses_non_finite_numbers(tmp_path):
    with pytest.raises(ValueError):
        save_report(tmp_path / "r.json", {"measured": math.nan})
    assert os.listdir(tmp_path) == []


def test_grid_rejects_tampered_coordinates(tmp_path):
    path = tmp_path / "grid.csv"
    save_grid(path, small_grid())
    lines = path.read_text().splitlines()
    first, rest = lines[1].split(",", 1)  # first data row
    lines[1] = "99," + rest
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError):
        load_grid(path)


@pytest.mark.parametrize("line,column,text", [
    (1, 0, "-12.0"),           # x of the first row: the same value in other digits
    (-1, 1, "12.000000000"),   # p of the last row
    (66, 0, "-11.6250"),       # x of the second row
])
def test_grid_refuses_coordinate_text_save_grid_does_not_write(tmp_path, line, column, text):
    path = tmp_path / "grid.csv"
    save_grid(path, small_grid())
    lines = path.read_text().splitlines()
    fields = lines[line].split(",")
    assert float(fields[column]) == float(text) and fields[column] != text
    fields[column] = text
    lines[line] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match="coordinate"):
        load_grid(path)


def test_grid_read_in_small_pieces(tmp_path, monkeypatch):
    # pieces of 3 lines do not divide the 35 rows of one x, so pieces
    # straddle x values; every row must still be read once, bit for bit,
    # and checked
    monkeypatch.setattr(io_module, "_READ_ROWS", 3)
    grid = awkward_grid(35)
    path = tmp_path / "grid.csv"
    save_grid(path, grid, ["alpha"])
    loaded, comments = load_grid(path)
    assert comments == ["alpha"]
    assert loaded.values.tobytes() == grid.values.tobytes()
    lines = path.read_text().splitlines()
    lines[-40] = "-1.7000," + lines[-40].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match="coordinate"):
        load_grid(path)


def test_grid_read_skips_blank_pieces_quietly(tmp_path, monkeypatch):
    # ten trailing blank lines make pieces of 3 that hold no row at all
    monkeypatch.setattr(io_module, "_READ_ROWS", 3)
    grid = small_grid()
    path = tmp_path / "grid.csv"
    save_grid(path, grid)
    with open(path, "a") as fh:
        fh.write("\n" * 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded, _ = load_grid(path)
    assert loaded.values.tobytes() == grid.values.tobytes()


@pytest.mark.parametrize("edit", ["extra row", "bad value", "extra column", "bad header"])
def test_grid_refuses_malformed_rows(tmp_path, edit):
    path = tmp_path / "grid.csv"
    save_grid(path, small_grid())
    lines = path.read_text().splitlines()
    if edit == "extra row":
        lines.append(lines[-1])
    elif edit == "bad value":
        lines[5] = lines[5].rsplit(",", 1)[0] + ",0.5x"
    elif edit == "extra column":
        lines[5] += ",0"
    else:
        lines[0] = lines[0].replace(" 65 ", " 65.0 ", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError):
        load_grid(path)


V1_GRID = os.path.join(os.path.dirname(__file__), "data", "wigner_v1_33.csv")


def test_checked_in_v1_grid_reloads_and_resaves_byte_for_byte(tmp_path):
    # written by the save_grid of the general (x0, dx, p0, dp) layout
    grid, comments = load_grid(V1_GRID)
    assert grid.geometry == GridGeometry(13.2, 33) and comments == ["pure sigma_x=2.2 theta=0.3"]
    path = tmp_path / "grid.csv"
    save_grid(path, grid, comments)
    with open(V1_GRID, "rb") as fh:
        assert path.read_bytes() == fh.read()


def _with_header(tmp_path, layout):
    """small_grid's file with its header layout replaced."""
    path = tmp_path / "grid.csv"
    save_grid(path, small_grid())
    lines = path.read_text().splitlines()
    assert lines[0] == "# wigner-grid-v1 -12 0.375 65 -12 0.375 65"
    path.write_text("\n".join([f"# wigner-grid-v1 {layout}"] + lines[1:]) + "\n")
    return path


@pytest.mark.parametrize("layout,error,message", [
    ("-12 0.375 65 -11 0.375 65", ConfigurationError, "not a square grid"),    # p0 != x0
    ("-12 0.375 65 -12 0.25 65", ConfigurationError, "not a square grid"),     # dp != dx
    ("-12 0.375 65 -12 0.375 63", ConfigurationError, "not a square grid"),    # np != nx
    ("-12 0.5 65 -12 0.5 65", ConfigurationError, "= 0.375"),                  # dx != 24/64
    ("-12 0.375 64 -12 0.375 64", GeometryError, "odd"),                       # even count
    ("-12 0.75 31 -12 0.75 31", GeometryError, "at least 33"),                 # too few
    ("12 -0.375 65 12 -0.375 65", GeometryError, "positive and finite"),       # step < 0
], ids=["p0", "dp", "np", "dx", "even", "few", "negative-step"])
def test_grid_refuses_a_header_that_is_not_a_square_geometry(tmp_path, layout, error, message):
    with pytest.raises(error, match="^" + re.escape(str(tmp_path))) as info:
        load_grid(_with_header(tmp_path, layout))
    assert message in str(info.value)


def test_grid_refuses_a_count_past_the_cap_before_allocating(tmp_path):
    # the 8195^2 values would fit nowhere in this file: the cap is checked first
    path = tmp_path / "grid.csv"
    path.write_text("# wigner-grid-v1 -4097 1 8195 -4097 1 8195\n0,0,0\n")
    with pytest.raises(GeometryError, match="8195 points per axis exceed the cap of 8193"):
        load_grid(path)


def test_grid_reads_from_a_pipe(tmp_path):
    # a pipe reports no size, so the header's row count is checked against
    # the size of regular files only
    path = tmp_path / "grid.csv"
    save_grid(path, small_grid())
    fifo = tmp_path / "grid.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()), daemon=True)
    writer.start()
    loaded, _ = load_grid(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert loaded.values.tobytes() == small_grid().values.tobytes()


# ------------------------------------------------------------ reports, I/O

def test_report_roundtrip_and_determinism(tmp_path):
    obj = {"suite": "demo", "cases": [{"label": "a", "measured": 0.5,
                                       "bound": 1.0, "pass": True}]}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    save_report(p1, obj)
    save_report(p2, obj)
    assert json.loads(p1.read_text()) == obj
    assert p1.read_bytes() == p2.read_bytes()


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write(target, ("payload\n",))
    assert target.read_text() == "payload\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_failing_stream_leaves_nothing(tmp_path):
    def chunks():
        yield "partial\n"
        raise RuntimeError("stream broke")

    target = tmp_path / "out.txt"
    with pytest.raises(RuntimeError):
        atomic_write(target, chunks())
    assert os.listdir(tmp_path) == []
    atomic_write(target, ("old\n",))
    with pytest.raises(RuntimeError):
        atomic_write(target, chunks())
    assert os.listdir(tmp_path) == ["out.txt"]
    assert target.read_text() == "old\n"


def test_atomic_write_honours_umask(tmp_path):
    old = os.umask(0o022)
    try:
        atomic_write(tmp_path / "out.txt", ("payload\n",))
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("payload\n")
    finally:
        os.umask(old)
    mode = os.stat(tmp_path / "out.txt").st_mode & 0o777
    assert mode == os.stat(tmp_path / "plain.txt").st_mode & 0o777 == 0o644
