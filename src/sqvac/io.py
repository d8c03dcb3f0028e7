"""On-disk formats: state JSON, grid CSV, verification reports.

Grids round-trip bit-exactly: every float is written with 17 significant
digits, and the header is the layout of the grid's square geometry, from
which the axis is rebuilt as -extent + k*step, the expression that made it.

Grid CSVs move in row blocks of about _BLOCK_VALUES values. ``save_grid``
formats the blocks through ``phasespace._fork_map``, on forked worker
processes (inline for a grid of one block, a process with one CPU, or a
save made inside a ``_fork_map`` worker, such as one of ``figure_data``'s
per-file workers), and writes them in order through ``atomic_write``, so a
file is never held in memory as one string and its bytes do not depend on
the worker count.
``load_grid`` parses the values as floats and the coordinate columns as
text, checked against the rows ``save_grid`` writes, _READ_ROWS lines of the
file at a time.
"""

import contextlib
import itertools
import json
import os
import stat
import sys
import uuid
import warnings
from functools import partial

import numpy as np

from .errors import ConfigurationError, GeometryError
from .fock import FockVector
from .gaussian import AngularAverageSpec, GaussianComponent, GaussianWignerSpec
from .phasespace import GridGeometry, WignerGrid, _fork_map, _row_blocks

GRID_MAGIC = "wigner-grid-v1"
_COMPONENT_KEYS = ("weight", "theta", "sigma_x", "sigma_p")


def atomic_write(path, chunks):
    """Write an iterable of str chunks to path via a temp file + rename, so
    readers never see halves; a caller with one string passes a 1-tuple.

    The temp file is created by a plain exclusive open, so the output gets the
    mode the process umask gives any new file. If the chunks raise part-way,
    the temp file is removed and an existing target keeps its old content.
    An OSError is raised again, same errno, naming the target, not the temp file.
    """
    path = os.fspath(path)
    d, name = os.path.split(path)
    tmp = os.path.join(d, f".tmp-{uuid.uuid4().hex}-{name}")
    try:
        with open(tmp, "x") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


# --- state JSON ---

def state_to_obj(state) -> dict:
    if isinstance(state, FockVector):
        return {
            "format": "fock-v1",
            "trunc": state.trunc,
            "amps": [[float(a.real), float(a.imag)] for a in state.amps],
        }
    if isinstance(state, GaussianWignerSpec):
        return {
            "format": "gauss-v1",
            "components": [{k: getattr(c, k) for k in _COMPONENT_KEYS}
                           for c in state.components],
        }
    if isinstance(state, AngularAverageSpec):
        return {"format": "angavg-v1", "sigma_x": state.sigma_x}
    raise ConfigurationError(f"no serialization for {type(state).__name__}")


def _number(value, what: str) -> float:
    # abs() also bounds integers past the float range
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise ConfigurationError(f"{what} must be a finite number, found {value!r}")


def obj_to_state(obj):
    """The state a ``state_to_obj`` object describes, and the one reader of
    state objects: any other object is a ConfigurationError."""
    if not isinstance(obj, dict):
        raise ConfigurationError(f"a state is a JSON object, not {type(obj).__name__}")
    fmt = obj.get("format")
    if fmt == "fock-v1":
        trunc, pairs = obj.get("trunc"), obj.get("amps")
        if not (type(trunc) is int and isinstance(pairs, list) and len(pairs) == trunc
                and all(isinstance(a, list) and len(a) == 2 for a in pairs)):
            raise ConfigurationError("fock-v1 needs an integer trunc and trunc [re, im] amps")
        return FockVector(np.array([complex(*(_number(v, "fock-v1 amplitude") for v in a))
                                    for a in pairs]))
    if fmt == "gauss-v1":
        comps = obj.get("components")
        if not (isinstance(comps, list) and all(isinstance(c, dict) for c in comps)):
            raise ConfigurationError("gauss-v1 components must be a list of JSON objects")
        return GaussianWignerSpec(tuple(GaussianComponent(
            *(_number(c.get(k), f"gauss-v1 {k}") for k in _COMPONENT_KEYS)) for c in comps))
    if fmt == "angavg-v1":
        return AngularAverageSpec(_number(obj.get("sigma_x"), "angavg-v1 sigma_x"))
    raise ConfigurationError(f"unknown state format {fmt!r}")


def save_state(path, state):
    atomic_write(path, (json.dumps(state_to_obj(state), indent=2, sort_keys=True,
                                   allow_nan=False) + "\n",))


def load_state(path):
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as exc:  # not UTF-8 text, or not JSON
        raise ConfigurationError(f"{path}: not a state JSON file: {exc}") from None
    return obj_to_state(obj)


# --- grid CSV ---

# values per row block written: a 257^2 grid is one block, so it is written
# inline
_BLOCK_VALUES = 131_072
# lines parsed at a time while reading a grid: a piece and its table stay in
# cache, and no table of all rows is held
_READ_ROWS = 4096
# a row as read: x and p as text ("%.17g" never needs more than 24
# characters, so a longer field cannot match), the value as a float
_ROW_FIELDS = [("x", "S25"), ("p", "S25"), ("value", "f8")]


def save_grid(path, grid: WignerGrid, comments=()):
    """CSV rows x,p,value after a layout header; extra comments one per line.

    Every float is written with "%.17g", so files keep the v1 format byte for
    byte. Row blocks of about _BLOCK_VALUES values are formatted by
    ``phasespace._fork_map``, one forked process per CPU (at most four), and
    written in block order; a grid of one block, a process with one CPU or
    no fork, or a save made inside a ``_fork_map`` worker formats its blocks
    inline.
    """
    head = [_header(grid.geometry)] + [f"# {c}\n" for c in comments]
    # x.join(parts) gives "x,p_0,%.17g\nx,p_1,%.17g\n...": the row template.
    axis, n = grid.geometry.axis().tolist(), grid.geometry.points
    rows = ([""] + [f",{p:.17g},%.17g\n" for p in axis], axis, grid.values)
    blocks = list(_row_blocks(n, max(1, _BLOCK_VALUES // n)))
    # "%.17g" holds the GIL, so threads would not overlap: blocks go to processes
    atomic_write(path, itertools.chain(head, _fork_map(partial(_format_rows, rows), blocks)))


def _header(geometry: GridGeometry) -> str:
    """The v1 layout line: x0 dx nx, then the same three for p."""
    layout = f"{-geometry.extent:.17g} {geometry.step:.17g} {geometry.points}"
    return f"# {GRID_MAGIC} {layout} {layout}\n"


def _format_rows(rows, block) -> str:
    """The CSV text of x rows i0 <= i < i1."""
    parts, xs, values = rows
    i0, i1 = block
    return "".join(f"{x:.17g}".join(parts) % tuple(row)
                   for x, row in zip(xs[i0:i1], values[i0:i1].tolist()))


def load_grid(path) -> tuple[WignerGrid, list[str]]:
    """Read a grid CSV written by ``save_grid``.

    The header must be the layout of ``GridGeometry(-x0, nx)``, p the same
    as x. The rows are parsed in pieces of _READ_ROWS lines: values as
    floats, the x and p columns as text, which must be exactly what
    ``save_grid`` writes for that geometry. So a coordinate with the
    right value in other digits is refused, and so is a header naming more
    rows than a regular file's size could hold, or a byte anywhere in the
    file that is not UTF-8 text. A refused data line is named by its file line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return _read_grid(fh, path)
    except UnicodeDecodeError:
        raise ConfigurationError(f"{path}: holds bytes that are not UTF-8 text") from None


def _read_grid(fh, path) -> tuple[WignerGrid, list[str]]:
    header = fh.readline().split()
    if len(header) != 8 or header[:2] != ["#", GRID_MAGIC]:
        raise ConfigurationError(f"{path}: not a {GRID_MAGIC} file")
    try:
        x0, dx, n = float(header[2]), float(header[3]), int(header[4])
        p_layout = (float(header[5]), float(header[6]), int(header[7]))
    except ValueError:
        raise ConfigurationError(f"{path}: malformed {GRID_MAGIC} header") from None
    # outside the try: a GeometryError is a ValueError too
    try:
        geometry = GridGeometry(-x0, n)
    except GeometryError as exc:
        raise GeometryError(f"{path}: {exc}") from None
    if p_layout != (x0, dx, n) or dx != geometry.step:
        raise ConfigurationError(
            f"{path}: header layout {' '.join(header[2:])} is not a square grid: p "
            f"must repeat x, and dx must be 2*extent/(nx-1) = {geometry.step!r}")
    # every data row takes at least 6 bytes ("0,0,0\n"): a layout a regular
    # file cannot hold is refused before its values are allocated (a pipe
    # has no size to check)
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode) and 6 * n * n > st.st_size:
        raise ConfigurationError(
            f"{path}: the file is too small for the {n} x {n} rows its header names")
    comments = []
    line = fh.readline()
    while line.startswith("#"):
        comments.append(line[1:].strip())
        line = fh.readline()
    values = np.empty((n, n))
    coords = _coordinate_text(geometry.axis())
    flat = values.reshape(-1)
    done = 0
    lines = itertools.chain((line,), fh)  # the first data line was read with the comments
    first = 2 + len(comments)  # the file line of the piece's first line
    while piece := list(itertools.islice(lines, _READ_ROWS)):
        try:
            table = _parse_rows(piece)
        except ValueError:
            raise ConfigurationError(f"{path}: {_unparsed_line(piece, first)}") from None
        stop = done + table.size
        if stop > flat.size:
            raise ConfigurationError(f"{path}: expected {flat.size} rows, found more")
        rows, cols = np.divmod(np.arange(done, stop), n)
        if not (_same_text(table["x"], coords[rows]) and _same_text(table["p"], coords[cols])):
            row = np.flatnonzero((table["x"] != coords[rows]) | (table["p"] != coords[cols]))[0]
            line = first + [k for k, text in enumerate(piece) if text != "\n"][row]
            raise ConfigurationError(
                f"{path}: line {line}: coordinate columns disagree with header layout")
        flat[done:stop] = table["value"]
        done, first = stop, first + len(piece)
    if done != flat.size:
        raise ConfigurationError(f"{path}: expected {flat.size} rows, found {done}")
    try:
        return WignerGrid(geometry, values), comments
    except ConfigurationError as exc:  # a non-finite value
        raise ConfigurationError(f"{path}: {exc}") from None


def _parse_rows(piece: list[str]) -> np.ndarray:
    # blank lines are skipped; a piece of nothing else makes numpy warn
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(piece, delimiter=",", comments=None, dtype=_ROW_FIELDS, ndmin=1)


def _unparsed_line(piece: list[str], first: int) -> str:
    """Why the first line of a piece numpy refused, the piece starting at
    file line ``first``, is not a row x,p,value; a refusal's cost only."""
    for line, text in enumerate(piece, first):
        try:
            _parse_rows([text])
        except ValueError as exc:
            fields = text.count(",") + 1
            # numpy's message, up to its row within the one-line piece
            return f"line {line}: " + (f"{fields} comma-separated fields where a row has 3"
                                       if fields != 3 else str(exc).split(" at row")[0])


def _coordinate_text(axis: np.ndarray) -> np.ndarray:
    return np.array([f"{v:.17g}" for v in axis.tolist()], dtype=_ROW_FIELDS[0][1])


def _same_text(column: np.ndarray, expected: np.ndarray) -> bool:
    # compared as bytes: numpy's string comparison is several times slower
    return np.array_equal(np.ascontiguousarray(column).view(np.uint8), expected.view(np.uint8))


# --- verification reports ---

def save_report(path, report: dict):
    atomic_write(path, (json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n",))
