"""On-disk formats: state JSON, grid CSV, verification reports.

Grids round-trip bit-exactly: every float is written with 17 significant
digits and the axes are rebuilt from the header as x0 + k*dx, the same
expression that created them.
"""

import contextlib
import json
import os
import uuid

import numpy as np

from .errors import ConfigurationError
from .fock import FockVector
from .gaussian import AngularAverageSpec, GaussianComponent, GaussianWignerSpec
from .phasespace import WignerGrid

GRID_MAGIC = "wigner-grid-v1"


def atomic_write(path, chunks):
    """Write an iterable of str chunks to path via a temp file + rename, so
    readers never see halves; a caller with one string passes a 1-tuple.

    The temp file is created by a plain exclusive open, so the output gets the
    mode the process umask gives any new file. If the chunks raise part-way,
    the temp file is removed and an existing target keeps its old content.
    """
    path = os.fspath(path)
    d, name = os.path.split(path)
    tmp = os.path.join(d, f".tmp-{uuid.uuid4().hex}-{name}")
    try:
        with open(tmp, "x") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
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
            "components": [
                {"weight": c.weight, "theta": c.theta,
                 "sigma_x": c.sigma_x, "sigma_p": c.sigma_p}
                for c in state.components
            ],
        }
    if isinstance(state, AngularAverageSpec):
        return {"format": "angavg-v1", "sigma_x": state.sigma_x}
    raise ConfigurationError(f"no serialization for {type(state).__name__}")


def obj_to_state(obj: dict):
    fmt = obj.get("format")
    if fmt == "fock-v1":
        amps = np.array([complex(re, im) for re, im in obj["amps"]])
        if len(amps) != int(obj["trunc"]):
            raise ConfigurationError("fock-v1: amps length disagrees with trunc")
        return FockVector(int(obj["trunc"]), amps)
    if fmt == "gauss-v1":
        comps = tuple(
            GaussianComponent(c["weight"], c["theta"], c["sigma_x"], c["sigma_p"])
            for c in obj["components"]
        )
        return GaussianWignerSpec(comps)
    if fmt == "angavg-v1":
        return AngularAverageSpec(obj["sigma_x"])
    raise ConfigurationError(f"unknown state format {fmt!r}")


def save_state(path, state):
    atomic_write(path, (json.dumps(state_to_obj(state), indent=2, sort_keys=True,
                                   allow_nan=False) + "\n",))


def load_state(path):
    with open(path) as fh:
        return obj_to_state(json.load(fh))


# --- grid CSV ---

def save_grid(path, grid: WignerGrid, comments=()):
    """CSV rows x,p,value after a layout header; extra comments one per line.

    Rows are streamed to disk one x row at a time, every float written with
    "%.17g", so files keep the v1 format byte for byte. Refuses non-finite
    values, which ``load_grid`` would refuse to read back.
    """
    if not np.all(np.isfinite(grid.values)):
        raise ConfigurationError("grid holds non-finite values")
    atomic_write(path, _grid_chunks(grid, comments))


def _grid_chunks(grid: WignerGrid, comments):
    yield (f"# {GRID_MAGIC} {grid.x0:.17g} {grid.dx:.17g} {grid.nx} "
           f"{grid.p0:.17g} {grid.dp:.17g} {grid.num_p}\n")
    for c in comments:
        yield f"# {c}\n"
    # x.join(parts) gives "x,p_0,%.17g\nx,p_1,%.17g\n...": the row template.
    parts = [""] + [f",{p:.17g},%.17g\n" for p in grid.ps.tolist()]
    for x, row in zip(grid.xs.tolist(), grid.values):
        yield f"{x:.17g}".join(parts) % tuple(row.tolist())


def load_grid(path) -> tuple[WignerGrid, list[str]]:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 8 or header[:2] != ["#", GRID_MAGIC]:
            raise ConfigurationError(f"{path}: not a {GRID_MAGIC} file")
        x0, dx, nx = float(header[2]), float(header[3]), int(header[4])
        p0, dp, num_p = float(header[5]), float(header[6]), int(header[7])
        comments = []
        for line in fh:
            if not line.startswith("#"):
                break
            comments.append(line[1:].strip())
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if data.shape != (nx * num_p, 3):
        raise ConfigurationError(f"{path}: expected {nx * num_p} rows, found {data.shape[0]}")
    if not np.all(np.isfinite(data)):
        raise ConfigurationError(f"{path}: grid holds non-finite values")
    grid = WignerGrid(x0, dx, p0, dp, data[:, 2].reshape(nx, num_p))
    if not (np.array_equal(data[:, 0], np.repeat(grid.xs, num_p))
            and np.array_equal(data[:, 1], np.tile(grid.ps, nx))):
        raise ConfigurationError(f"{path}: coordinate columns disagree with header layout")
    return grid, comments


# --- verification reports ---

def save_report(path, report: dict):
    atomic_write(path, (json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n",))
