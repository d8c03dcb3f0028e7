"""Wigner functions on uniform grids: transform, photon add/subtract, checks.

The grid route is deliberately independent of the closed forms in `gaussian`:
states enter either by rasterizing a gaussian spec or by the integral transform
of a pure number-basis state, and the one-photon operations act through
finite differences:

    added      A = (x^2 + p^2 - 1) W / 2 - (x Wx + p Wp) / 2 + (Wxx + Wpp) / 8
    subtracted S = (x^2 + p^2 + 1) W / 2 + (x Wx + p Wp) / 2 + (Wxx + Wpp) / 8

(the divergence of the flow field (xW, pW) is expanded analytically, so S - A =
W + x Wx + p Wp). Both outputs are un-renormalized: their integrals are the
outcome weights <a a^dag> and <a^dag a>, and their ratio is the norm ratio used
by the identity check.

Derivatives are 4th-order central stencils (Fornberg, Math. Comp. 51, 699
(1988)) from each axis's unscaled even and odd parts, ``_even`` and ``_odd``,
on W zero-extended by two points past each edge: the outcome passes refuse
a grid whose boundary values exceed BOUNDARY_DECAY before any stencil runs,
so the zeros stand for values already under 1e-12, and no edge needs a
one-sided stencil. Integrals are tensor-product Simpson rules, which is why
point counts must be odd. ``_simpson`` forms every grid sum but the purity,
whose row sums ``grid_metrics`` forms block by block; both end in
``_weigh_rows``. ``_refuse_overflow`` refuses every non-finite grid result: a
sum, an outcome or its integral, a renormalized value, A / integral(A), a purity.

A and S are linear in W and its stencils, so wherever every value a stencil
reads is 0.0 both outcomes are exactly 0.0. A squeezed W underflows to 0.0
over most of a wide grid (72% of the 3073^2 sigma_x = 4 grid), so the outcome
passes compute each row block only over the columns within stencil reach of
a nonzero W. That changes no outcome value; an L1 sum over the shorter rows
may differ in its last bit, as einsum groups its terms by row length. One
helper, ``_outcome_tiles``, runs those blocks for ``photon_outcomes`` and
``l1_relative_residual``, the only L1 pass.

The passes read W from a row source: a held ``WignerGrid``, or a
``SampledSpec``, a gaussian spec on a geometry, sampled only in the windows a
pass reads. One first pass, ``_scan``, is kept on the source; it keeps
axis-length vectors only (r = W wp, c = wx W, the boundary maximum and each
row's first and last nonzero column). The outcome integrals come from r and
c, and each tile's columns from the nonzero ranges of the rows it reads, so
the identity check of a SampledSpec never holds W and equals the held grid's
bit for bit. Every pass runs its blocks in block order in the calling thread
and writes its windows and tile temporaries into one set of buffers reused
from block to block.

Every grid is a square ``GridGeometry`` (extent, points) plus its values.
The geometry owns the layout: x and p share one axis, -extent + k*step, and
one Simpson weight vector, and a grid states none of it again, so code reads
``grid.geometry`` and makes a grid of new values on the same layout as
``WignerGrid(grid.geometry, values)``. ``state_grid`` sizes the geometry from
a state's widest width; serialization writes the geometry, so a saved and
reloaded grid is bit-identical to the original, derived axis included. An
odd point count puts the centre node, index points // 2, within one ulp of
the extent of the origin, so origin values are read there with no
interpolation.

A gaussian spec is sampled in one place, ``SampledSpec._sample``: ``rasterize``
samples its raster blocks through it and the outcome passes their windows, so
held and sampled grids agree by construction.
"""

import os

import numpy as np
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import ConfigurationError, DegenerateInputError, GeometryError
from .fock import FockVector, quadrature_moments
from .gaussian import AngularAverageSpec, GaussianWignerSpec, wigner_value
from .special import hermite_psi_table

_MIN_POINTS = 33
_MAX_POINTS = 8193  # an 8193^2 W is 537 MB; the finest suite grid has 3073 points
#: Absolute decay required of inputs on the grid boundary before differencing.
BOUNDARY_DECAY = 1e-12
#: Below this integral, renormalization refuses (vacuum after subtraction).
DEGENERATE_INTEGRAL = 1e-6
#: Largest |integral W - 1| accepted of a grid built from a state.
NORMALIZATION_DRIFT = 1e-4
# rows per outcome block: block temporaries stay a few MB on 3073-point rows
_BLOCK_ROWS = 64
# points per rasterize or first-pass block: its temporaries, and the
# first pass's 64 KB row-support mask, stay in cache
_RASTER_POINTS = 65_536
# at most this many forked processes share a _fork_map pool (verify --suite
# all's suites, figure_data's files, a lone save_grid's row blocks), the one
# parallel layer: a _fork_map call inside a worker runs inline
_MAX_WORKERS = 4


def _even(F: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Even part of the 4th-order central stencils along ``axis``, unscaled:
    16 (F[+1] + F[-1]) - (F[+2] + F[-2]), 4 shorter there than F, which
    carries 2 extra points on each side. Assembled in place, into an ``out``
    that must not alias F: on fine grids each full-size temporary costs more
    in page faults than the arithmetic itself."""
    G = np.moveaxis(F, axis, 0)
    if out is None:
        out = np.empty(F.shape[:axis] + (F.shape[axis] - 4,) + F.shape[axis + 1:])
    O = np.moveaxis(out, axis, 0)
    np.add(G[1:-3], G[3:-1], out=O)
    O *= 16.0
    O -= G[:-4]
    O -= G[4:]
    return out


def _odd(F: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Odd part, laid out as ``_even``'s: 8 (F[+1] - F[-1]) - (F[+2] - F[-2]).
    On the step h, odd / (12 h) and (even - 30 F) / (12 h^2) are the first
    and second derivatives."""
    G = np.moveaxis(F, axis, 0)
    if out is None:
        out = np.empty(F.shape[:axis] + (F.shape[axis] - 4,) + F.shape[axis + 1:])
    O = np.moveaxis(out, axis, 0)
    np.subtract(G[3:-1], G[1:-3], out=O)
    O *= 8.0
    O += G[:-4]
    O -= G[4:]
    return out


@dataclass(frozen=True)
class GridGeometry:
    """Square geometry, the one grid layout: x and p both span
    [-extent, extent] at ``points`` points, an odd count from _MIN_POINTS to
    _MAX_POINTS (Simpson integration), on a step that must be positive and
    finite."""

    extent: float
    points: int

    def __post_init__(self):
        if self.points < _MIN_POINTS:
            raise GeometryError(f"grids need at least {_MIN_POINTS} points per axis")
        if self.points % 2 == 0:
            raise GeometryError("point counts must be odd (Simpson integration)")
        if self.points > _MAX_POINTS:
            raise GeometryError(f"{self.points} points per axis exceed the cap of {_MAX_POINTS}")
        if not (self.step > 0 and np.isfinite(self.step)):
            raise GeometryError(f"extent {self.extent!r} gives the grid step "
                                f"{self.step!r}; both must be positive and finite")

    @property
    def step(self) -> float:
        return 2.0 * self.extent / (self.points - 1)

    def axis(self) -> np.ndarray:
        """The sample points shared by x and p."""
        return -self.extent + np.arange(self.points) * self.step

    def weights(self) -> np.ndarray:
        """Simpson weights shared by x and p: step/3 * (1, 4, 2, ..., 4, 1)."""
        w = np.ones(self.points)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * (self.step / 3.0)


def policy_extent(widest: float) -> float:
    return 6.0 * max(widest, 1.0)


def refined_geometry(spec) -> GridGeometry:
    """Finite-difference-grade geometry: step = (narrowest width)/16.

    The 4th-order stencil error scales like (step/width)^4; sixteen points per
    width keeps the suites' identity residuals from 1.6e-6 to 1.33e-5, at
    least seven times under the 1e-4 gate.
    """
    narrowest, widest = spec.widths()
    extent = policy_extent(widest)
    n = int(np.ceil(2.0 * extent / (narrowest / 16))) + 1
    return GridGeometry(extent, max(n if n % 2 == 1 else n + 1, 257))


class WignerGrid:
    """Real samples values[i, j] = W(x_i, p_j) on a square geometry, x and p
    both on ``geometry.axis()``; the geometry is the grid's only layout. The
    values are finite and read-only: a C-contiguous float array passed in is
    kept, not copied, and made read-only, so the grid can keep its first
    pass."""

    def __init__(self, geometry: GridGeometry, values: np.ndarray):
        # contiguous storage: BLAS sums a strided view (a column of a table,
        # say) in a different order, which moves results in their last bits
        values = np.ascontiguousarray(values, dtype=float)
        if values.shape != (geometry.points,) * 2:
            raise ConfigurationError(f"values of shape {values.shape} do not fit a "
                                     f"{geometry.points}-point square grid")
        # min and max propagate nan, and neither forms a grid-sized temporary
        if not (np.isfinite(values.min()) and np.isfinite(values.max())):
            raise ConfigurationError("grid holds non-finite values")
        values.flags.writeable = False
        self.geometry = geometry
        self.values = values

    def _window(self, rows: slice, cols: slice, buffers: "_Buffers") -> np.ndarray:
        """W on rows x cols as a view; ``buffers`` serve sources that sample."""
        return self.values[rows, cols]

    def _sample(self, rows: slice, cols: slice, out: np.ndarray) -> np.ndarray:
        """W on rows x cols copied into ``out``, left as it was past the grid."""
        r0, c0 = max(rows.start, 0), max(cols.start, 0)
        part = self.values[r0:rows.stop, c0:cols.stop]
        out[r0 - rows.start:, c0 - cols.start:][:part.shape[0], :part.shape[1]] = part
        return out

    @cached_property
    def _kept_pass(self) -> "_FirstPass":
        return _scan(self)

    def integral(self) -> float:
        w = self.geometry.weights()
        return _simpson(self.values, w, w)


def _simpson(values: np.ndarray, wx: np.ndarray, wp: np.ndarray) -> float:
    """wx^T values wp, reduced by einsum rather than BLAS: its sums keep one
    order whatever the BLAS thread count."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _weigh_rows(wx, np.einsum("ij,j->i", values, wp))


def _weigh_rows(wx: np.ndarray, row_sums: np.ndarray) -> float:
    """wx . row_sums, the last step of every grid sum; refuses an overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(wx @ row_sums)
    _refuse_overflow("a grid integral is", total)
    return total


def _row_blocks(n: int, rows: int = _BLOCK_ROWS):
    for i0 in range(0, n, rows):
        yield i0, min(i0 + rows, n)


def _worker_count() -> int:
    """One worker per CPU this process may run on, at most _MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


# the callable the workers of a _fork_map pool apply, set once per worker by
# _keep_task from the one the worker inherited by fork
_worker_task = None


def _fork_map(fn, tasks):
    """fn(task) for each task, yielded in task order, computed on a process
    pool that lives for this call only: one forked process per CPU, at most
    _MAX_WORKERS and no more than there are tasks.

    The workers are forked, so they inherit fn and everything it refers to;
    only the tasks and their results are pickled. Tasks are handed out in
    order and results come back in order, so only the results not yet taken
    are held, and a worker's exception is raised here in its task's place,
    after every earlier result; the tasks not yet started are cancelled and
    the workers are gone before it is. A caller that stops early closes or
    drops the generator, which shuts the pool down the same way. One task,
    one CPU, a platform without fork or a call made inside a worker of
    another pool runs the tasks inline, each when its result is asked for,
    so pools never nest.
    """
    # _worker_task is set only in a worker
    workers = (min(_worker_count(), len(tasks))
               if hasattr(os, "fork") and _worker_task is None else 1)
    if workers <= 1:
        yield from map(fn, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"),
                               initializer=_keep_task, initargs=(fn,))
    try:
        yield from pool.map(_run_kept_task, tasks)
    finally:
        pool.shutdown(cancel_futures=True)


def _keep_task(fn):
    global _worker_task
    _worker_task = fn


def _run_kept_task(task):
    return _worker_task(task)


class _Buffers:
    """Flat float buffers of one pass, one per name, each made on first use
    with room for ``capacity`` values, the most the pass's geometry lets a
    block take (a larger take fails in ``reshape``), and reused by every block.

    ``take`` carves a C-contiguous array of the asked shape from the front of
    one: einsum sums a strided view in a different order, so a reduction over
    a carved array keeps the bits it has over a fresh one.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.flat = {}

    def take(self, name: str, shape: tuple) -> np.ndarray:
        buf = self.flat.get(name)
        if buf is None:
            buf = self.flat[name] = np.empty(self.capacity)
        return buf[:shape[0] * shape[1]].reshape(shape)


def rasterize(spec, geometry: GridGeometry) -> WignerGrid:
    """Sample a gaussian mixture or angular-average spec onto ``geometry``,
    each raster block straight into the grid through ``SampledSpec._sample``;
    only ``state_grid`` checks that the grid resolves it."""
    source = SampledSpec(spec, geometry)
    n = geometry.points
    # evaluate in row blocks: identical values, cache-sized temporaries
    values = np.empty((n, n))
    for i0, i1 in _row_blocks(n, _raster_rows(n)):
        source._sample(slice(i0, i1), slice(0, n), values[i0:i1])
    return WignerGrid(geometry, values)


def _raster_rows(n: int) -> int:
    return max(1, _RASTER_POINTS // n)


@dataclass(frozen=True)
class SampledSpec:
    """A gaussian mixture or angular-average spec read as a grid on
    ``geometry`` that is never held: the identity check samples W with
    ``wigner_value`` only in the windows it reads. ``_sample`` is the one
    place a spec is sampled on a geometry, for these windows and for every
    raster block of ``rasterize``, and ``wigner_value`` is elementwise, so
    each window holds the floats ``rasterize(spec, geometry)`` holds there,
    and every result equals the held grid's bit for bit.

    Its first pass runs once, on first use, and is kept, as a held grid's is.
    """

    spec: object
    geometry: GridGeometry

    def __post_init__(self):
        if not isinstance(self.spec, (GaussianWignerSpec, AngularAverageSpec)):
            raise ConfigurationError(f"SampledSpec cannot handle {type(self.spec).__name__}")

    def _sample(self, rows: slice, cols: slice, out: np.ndarray) -> np.ndarray:
        """W on rows x cols of the geometry, written into ``out``; the ranges
        may run past the grid, on the same axis -extent + k * step."""
        g = self.geometry
        x, p = (-g.extent + np.arange(r.start, r.stop) * g.step for r in (rows, cols))
        return wigner_value(self.spec, x[:, None], p[None, :], out=out)

    def _window(self, rows: slice, cols: slice, buffers: _Buffers) -> np.ndarray:
        """W on rows x cols, sampled into the pass's "window" buffer."""
        out = buffers.take("window", (rows.stop - rows.start, cols.stop - cols.start))
        return self._sample(rows, cols, out)

    @cached_property
    def _kept_pass(self) -> "_FirstPass":
        return _scan(self)


def wigner_from_density(state: FockVector, geometry: GridGeometry) -> WignerGrid:
    """Integral transform of a number-basis state to the phase-space grid.

    W(x, p) = (1/2pi) * integral dy psi(x - y/2) psi*(x + y/2) exp(i p y),
    the position kernel <x - y/2| rho |x + y/2> of rho = |psi><psi|, with psi
    summed from orthonormal Hermite functions over the normalized amplitudes
    and the y integral done by the trapezoid rule over |y| <= 2 * extent at
    the grid step, folded onto y >= 0 by the kernel's symmetry. The integrand
    vanishes at the ends, where Simpson's alternating weights would alias it
    to p +- pi/h for the step h. Every sample point x +- y/2 on n points lies
    on the half-step lattice k * h/2, |k| <= 2n - 2, so psi is evaluated there
    once and gathered by index.

    Raises ConfigurationError for a basis of more than HERMITE_DEGREE_CAP + 1
    levels, from ``hermite_psi_table``. Only ``state_grid`` checks the
    normalization drift; a grid too small for the state is refused where it
    is differenced, by its boundary values.
    """
    if not isinstance(state, FockVector):
        raise ConfigurationError(f"wigner_from_density cannot handle {type(state).__name__}")
    ps = geometry.axis()
    n, h = geometry.points, geometry.step

    # With x_i = -E + i h, y_k = k h and E = (n - 1) h / 2:
    # x_i - y_k/2 = lattice[2i - k + n - 1] and x_i + y_k/2 = lattice[2i + k + n - 1].
    lattice = (np.arange(4 * n - 3) - (2 * n - 2)) * (h / 2.0)
    table = hermite_psi_table(state.trunc, lattice)
    amps = state.normalized().amps
    psi = np.einsum("ln,n->l", table, amps.real) + 1j * np.einsum("ln,n->l", table, amps.imag)
    centre = 2 * np.arange(n)[:, None] + (n - 1)
    k = np.arange(n)
    kernel = psi[centre - k] * psi.conj()[centre + k]

    # K(x, y) = psi(x - y/2) psi*(x + y/2), so K(x, -y) = K(x, y)*: the
    # trapezoid sum over |y| <= 2E is K(x, 0) plus twice Re(K e^{ipy}) over
    # y > 0, the end column halved. einsum, not BLAS, forms psi and reduces
    # the sum in real arithmetic: its sums keep one order whatever the BLAS
    # thread count.
    weight = np.full(n, 2.0)
    weight[0] = weight[-1] = 1.0
    py = np.outer(k * h, ps)
    values = np.einsum("ik,km->im", kernel.real * weight, np.cos(py))
    values -= np.einsum("ik,km->im", kernel.imag * weight, np.sin(py))
    values *= h / (2.0 * np.pi)

    return WignerGrid(geometry, values)


def state_grid(state, points: int | None = None) -> WignerGrid:
    """Grid of a gaussian spec (rasterized) or a number-basis state
    (transformed) on its default geometry, the one casual-use grid policy.

    The extent is always ``policy_extent`` of the widest width, for a
    number-basis state sqrt(2) * rms of its quadratures; ``points`` defaults
    to 257, or 513 once the extent passes 18. Raises ConfigurationError for a
    basis too large for the transform, from the transform's Hermite table
    (``hermite_psi_table``), and GeometryError when the grid does not resolve
    the state: its integral drifts by over NORMALIZATION_DRIFT.
    """
    if isinstance(state, FockVector):
        extent = policy_extent(np.sqrt(2.0 * max(quadrature_moments(state))))
        build = wigner_from_density
    elif isinstance(state, (GaussianWignerSpec, AngularAverageSpec)):
        extent = policy_extent(state.widths()[1])
        build = rasterize
    else:
        raise ConfigurationError(f"state_grid cannot handle {type(state).__name__}")
    if points is None:
        points = 257 if extent <= 18.0 else 513
    grid = build(state, GridGeometry(extent, points))
    drift = abs(grid.integral() - 1.0)
    if not drift <= NORMALIZATION_DRIFT:
        raise GeometryError(f"normalization drift {drift:.3e} on the {points}-point grid: "
                            "it does not resolve the state; refine it with --points")
    return grid


class _FirstPass(NamedTuple):
    """What the outcome passes read of W before any tile: one scan, kept on its source."""
    r: np.ndarray       # W wp, one entry per row
    c: np.ndarray       # wx W, one entry per column
    boundary: float     # largest |W| on the four edges
    first: np.ndarray   # each row's first nonzero column; points on a row of zeros
    last: np.ndarray    # each row's last nonzero column; -1 on a row of zeros


def _row_support(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first and last nonzero column: (points, -1) on a row of zeros."""
    n = block.shape[1]
    nonzero = block != 0.0
    found = nonzero.any(axis=1)
    return (np.where(found, nonzero.argmax(axis=1), n),
            np.where(found, n - 1 - nonzero[:, ::-1].argmax(axis=1), -1))


def _scan(source) -> _FirstPass:
    """The one first pass over the W of a WignerGrid or SampledSpec: row
    blocks in block order, each read through ``source._window`` and dropped.

    Each row of r takes its terms in the order einsum gives a whole grid's;
    c adds the blocks' partial column sums in block order, as the L1 pass
    adds its sums.
    """
    n, w = source.geometry.points, source.geometry.weights()
    r, c = np.empty(n), np.zeros(n)
    first, last = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    buffers = _Buffers(_raster_rows(n) * n)
    edges = []  # each block's largest |W| on the grid's edges
    for i0, i1 in _row_blocks(n, _raster_rows(n)):
        W = source._window(slice(i0, i1), slice(0, n), buffers)
        r[i0:i1] = np.einsum("ij,j->i", W, w)
        first[i0:i1], last[i0:i1] = _row_support(W)
        c += np.einsum("i,ij->j", w[i0:i1], W)
        ends = [W[0]] * (i0 == 0) + [W[-1]] * (i1 == n)
        edges.append(max(float(np.max(np.abs(e))) for e in [W[:, 0], W[:, -1], *ends]))
    return _FirstPass(r, c, max(edges), first, last)


def _first_pass(source) -> _FirstPass:
    """The first pass over ``source``, kept on it; raises GeometryError,
    before any tile is formed, when W is not decayed on the boundary."""
    scan = source._kept_pass
    if scan.boundary > BOUNDARY_DECAY:
        raise GeometryError(
            f"boundary values reach {scan.boundary:.3e} > {BOUNDARY_DECAY}; enlarge the grid "
            "before differencing"
        )
    return scan


def _zero_extended(source, rows: slice, cols: slice, buffers: _Buffers) -> np.ndarray:
    """The stencils' input for outputs rows x cols: W on both ranges widened
    by 2, 0.0 past the grid (zero extension), in the "window" buffer. A
    SampledSpec samples it whole, C-contiguous as ``rasterize``'s blocks are,
    and its off-grid values are then overwritten."""
    n = source.geometry.points
    F = buffers.take("window", (rows.stop - rows.start + 4, cols.stop - cols.start + 4))
    source._sample(slice(rows.start - 2, rows.stop + 2), slice(cols.start - 2, cols.stop + 2), F)
    F[:max(0, 2 - rows.start)] = 0.0
    F[F.shape[0] - max(0, rows.stop + 2 - n):] = 0.0
    F[:, :max(0, 2 - cols.start)] = 0.0
    F[:, F.shape[1] - max(0, cols.stop + 2 - n):] = 0.0
    return F


def _outcome_tile(source, i0: int, i1: int, cols: slice, buffers: _Buffers
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Rows i0:i1 and columns cols of the added and subtracted outcomes,
    bit-identical to a full-array assembly on W padded with two zeros.

    From the even and odd stencil parts e and o of each axis on the step h,

        L = (e_x + e_p - 60 W) / (96 h^2) + (x^2 + p^2) / 2 * W
        E = (x o_x + p o_p) / (24 h) + W / 2,   A = L - E,   S = L + E,

    formed in place from L - W/2 and E - W/2, each axis's e - 30 W scaled
    before the two are added: no outcome overflows that separately scaled
    derivatives keep finite. Every temporary and ``_zero_extended``'s window
    live in the pass's ``buffers``, allocated once a pass; the window is
    free again on return. An outcome that overflows is left inf or nan, for
    the caller to refuse.
    """
    h = source.geometry.step
    F = _zero_extended(source, slice(i0, i1), cols, buffers)
    W = F[2:-2, 2:-2]
    axis = source.geometry.axis()
    xs, ps = axis[i0:i1], axis[cols]
    even, odd, other = (buffers.take(name, W.shape) for name in ("even", "odd", "other"))
    scale, half_slope = 1.0 / (96.0 * h * h), 1.0 / (24.0 * h)
    with np.errstate(over="ignore", invalid="ignore"):
        # L - W/2 into even
        centre = np.multiply(W, 30.0, out=other)
        for part, along, out in ((F[:, 2:-2], 0, even), (F[2:-2], 1, odd)):
            _even(part, along, out=out)
            out -= centre
            out *= scale
        even += odd
        radial = np.add((0.5 * xs * xs)[:, None], (0.5 * (ps * ps - 1.0))[None, :], out=other)
        radial *= W
        even += radial
        # E - W/2 into odd
        _odd(F[:, 2:-2], 0, out=odd)
        odd *= (half_slope * xs)[:, None]
        odd_p = _odd(F[2:-2], 1, out=other)
        odd_p *= (half_slope * ps)[None, :]
        odd += odd_p
        subtracted = np.add(even, odd, out=other)
        subtracted += W
        added = np.subtract(even, odd, out=even)
    return added, subtracted


def _tile_columns(scan: _FirstPass, i0: int, i1: int) -> slice | None:
    """The column slice outside which both outcomes are exactly zero on rows
    i0:i1, or None when W is zero on every row their stencils read, i0 - 2
    to i1 + 2: the one support rule. A stencil reaches 2 columns, so the
    slice is the rows' nonzero columns widened by 2 and clipped to the grid;
    past the grid W is 0.0 by zero extension.
    """
    read = slice(max(i0 - 2, 0), i1 + 2)
    j0, j1 = int(scan.first[read].min()), int(scan.last[read].max())
    if j1 < 0:
        return None
    return slice(max(j0 - 2, 0), min(j1 + 3, len(scan.first)))


def _outcome_tiles(source):
    """(rows, cols, A, S, spare) for each row block of ``source``, in block
    order, where A and S are the block's outcomes over the column slice cols
    only (``_tile_columns``; outside it both are exactly zero) and spare is a
    C-contiguous buffer of their shape that the caller may overwrite until
    the next tile. Blocks where W vanishes on every row they read are
    skipped; the rest share one set of buffers, sized by the geometry: no
    window exceeds _BLOCK_ROWS + 4 rows of points + 4 values.
    """
    scan = _first_pass(source)
    buffers = _Buffers((_BLOCK_ROWS + 4) * (source.geometry.points + 4))
    for i0, i1 in _row_blocks(source.geometry.points):
        cols = _tile_columns(scan, i0, i1)
        if cols is not None:
            added, subtracted = _outcome_tile(source, i0, i1, cols, buffers)
            yield slice(i0, i1), cols, added, subtracted, buffers.take("window", added.shape)


def photon_outcomes(grid: WignerGrid) -> tuple[WignerGrid, WignerGrid]:
    """Un-renormalized added and subtracted outcome grids, sharing derivatives.

    Filled in row blocks, each only over the columns where W is nonzero near
    it (the rest stays +0.0), so besides the two results only tile-sized
    buffers are live: on fig2's 931^2 grids, the largest ``figure_data``
    passes it (6.9 MB of input; the suites pass at most the 769^2 grid of
    ``negative-cases``), it allocates 16.1 MB at its peak: 13.9 MB of results
    and 2.0 MB of tile buffers, sized by the geometry. Raises GeometryError
    (the boundary's before either result is allocated) when W is not decayed
    or an outcome value is not finite.
    """
    _first_pass(grid)
    added = np.zeros(grid.values.shape)
    subtracted = np.zeros(grid.values.shape)
    for rows, cols, block_added, block_subtracted, _ in _outcome_tiles(grid):
        # min and max propagate nan, and neither forms a tile-sized temporary
        _refuse_overflow("the added and subtracted outcomes are", block_added.min(),
                         block_added.max(), block_subtracted.min(), block_subtracted.max())
        added[rows, cols] = block_added
        subtracted[rows, cols] = block_subtracted
    return WignerGrid(grid.geometry, added), WignerGrid(grid.geometry, subtracted)


def _refuse_vanishing(integral: float, quantity: str, undefined: str, cause: str = ""):
    """The one refusal of a vanishing integral: DegenerateInputError when
    |integral| < DEGENERATE_INTEGRAL, naming the quantity, what it leaves
    undefined and, where one input is known to give it, that cause."""
    if abs(integral) < DEGENERATE_INTEGRAL:
        raise DegenerateInputError(
            f"{quantity} = {integral:.3e} vanishes, so {undefined} is undefined"
            + (f": {cause}" if cause else ""))


def _refuse_overflow(what: str, *values,
                     cause: str = "the grid's x^2 + p^2 or its values overflow"):
    """The one refusal of a non-finite grid result: GeometryError if a value is nan or +-inf."""
    if not np.isfinite(values).all():
        raise GeometryError(f"{what} not finite: {cause}")


def renormalize(grid: WignerGrid) -> WignerGrid:
    """Scale a grid to unit integral; refuses on a vanishing integral, and
    with GeometryError when the scaled values overflow."""
    total = grid.integral()
    _refuse_vanishing(total, "the grid integral", "the renormalized grid")
    # the largest |value| / |total| is the largest scaled value, and a float
    # division overflows to inf without a warning
    peak = float(max(-grid.values.min(), grid.values.max()))
    _refuse_overflow("the renormalized grid is", peak / total,
                     cause=f"values up to {peak:.3e} over the grid integral {total:.3e}")
    return WignerGrid(grid.geometry, grid.values / total)


class IdentityCheck(NamedTuple):
    residual: float
    ratio_used: float  # integral(A) / integral(S), from outcome_norm_ratio
    added_integral: float
    subtracted_integral: float
    # A / integral(A) at the centre node, within one ulp of the extent of the origin
    added_origin: float
    max_gap: float  # max |A/int A - S/int S|


def outcome_norm_ratio(added_integral: float, subtracted_integral: float) -> float:
    """integral(A) / integral(S), the norm ratio of the two outcomes.

    Raises DegenerateInputError when integral(S) vanishes (vacuum input:
    subtraction yields nothing, the sigma_x = 1 exclusion), or when
    integral(A) does, which no state gives: integral(A) = <n> + 1 >= 1.
    """
    _refuse_vanishing(subtracted_integral, "the subtracted integral", "the norm ratio",
                      "vacuum-like input (the sigma_x = 1 exclusion)")
    _refuse_vanishing(added_integral, "the added integral", "the norm ratio")
    return added_integral / subtracted_integral


def outcome_integrals(source) -> tuple[float, float]:
    """Simpson integrals of the added and subtracted outcomes of a WignerGrid
    or SampledSpec, forming neither.

    The Simpson weights are separable and each stencil acts along one axis, so
    wx^T A wp needs only r = W wp, c = wx W and the tile's stencil parts on
    them, each scaled as the tile scales it:

        integral W       = wx . r
        integral L - W/2 = (wx . (e(r) - 30 r) + (e(c) - 30 c) . wp) / (96 h^2)
                           + (wx x^2 / 2) . r + c . (wp (p^2 - 1) / 2)
        integral E - W/2 = ((wx x) . o(r) + o(c) . (wp p)) / (24 h)

    with A and S formed from them as in the tile, r and c from the first
    pass. Raises GeometryError when either integral is not finite.
    """
    scan = _first_pass(source)
    r, c = scan.r, scan.c
    # the stencils' input, zero-extended as the tiles' is
    rz, cz = np.pad(r, 2), np.pad(c, 2)
    w, h = source.geometry.weights(), source.geometry.step
    xs = ps = source.geometry.axis()
    scale, half_slope = 1.0 / (96.0 * h * h), 1.0 / (24.0 * h)
    # an overflow here leaves an integral inf or nan, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        even = float(w @ ((_even(rz, 0) - 30.0 * r) * scale)
                     + ((_even(cz, 0) - 30.0 * c) * scale) @ w
                     + (0.5 * w * xs * xs) @ r + c @ (0.5 * w * (ps * ps - 1.0)))
        odd = float((w * half_slope * xs) @ _odd(rz, 0) + _odd(cz, 0) @ (w * half_slope * ps))
        added = even - odd
        subtracted = even + odd + float(w @ r)
    _refuse_overflow("the outcome integrals are", added, subtracted)
    return added, subtracted


def l1_relative_residual(source, ratio: float) -> tuple[float, float]:
    """(integral |A - ratio S| / integral |A|, max |A - ratio S|) for outcomes
    A, S of the W of a WignerGrid or SampledSpec.

    One pass over row blocks, each over the columns where W is nonzero near
    it, so no full-size outcome grid is ever held. The block sums are added
    in block order. Raises DegenerateInputError when integral |A| vanishes,
    and GeometryError, as ``photon_outcomes`` does, when an outcome value is
    not finite.
    """
    w = source.geometry.weights()
    num = den = peak = 0.0
    for rows, cols, added, subtracted, spare in _outcome_tiles(source):
        # an inf or nan outcome leaves the largest gap inf or nan (inf - inf
        # is nan), so it is refused before any sum over it is formed
        with np.errstate(over="ignore", invalid="ignore"):
            diff = np.multiply(subtracted, ratio, out=spare)
            np.subtract(added, diff, out=diff)
            np.abs(diff, out=diff)
        gap = float(diff.max())
        _refuse_overflow("the added and subtracted outcomes are", gap)
        peak = max(peak, gap)
        num += _simpson(diff, w[rows], w[cols])
        den += _simpson(np.abs(added, out=spare), w[rows], w[cols])
    _refuse_vanishing(den, "integral |A|", "the relative residual")
    return num / den, peak


def identity_residual(source) -> IdentityCheck:
    """How far the added and subtracted outcomes of a WignerGrid or
    SampledSpec are from proportionality.

    Scales S by the norm ratio R = integral(A)/integral(S) from
    ``outcome_norm_ratio`` and returns the L1-relative residual
    integral |A - R S| / integral |A|, the outcome integrals, the origin value
    of A / integral(A) and ``max_gap``. The integrals come from
    ``outcome_integrals``, the residual and ``max_gap`` from one
    ``l1_relative_residual`` pass, and the origin value from one outcome tile
    at the centre node, within one ulp of the extent of the origin. Both
    passes read the one first pass kept on the source. A SampledSpec is
    sampled in that pass and then only in the windows the tiles read, with
    the held grid's results bit for bit. Raises DegenerateInputError when
    either outcome integral vanishes.
    """
    ia, isub = outcome_integrals(source)
    ratio = outcome_norm_ratio(ia, isub)
    residual, peak = l1_relative_residual(source, ratio)
    m = source.geometry.points // 2
    # float divisions: an overflow leaves inf, which is refused below
    origin = float(_outcome_tile(source, m, m + 1, slice(m, m + 1), _Buffers(25))[0][0, 0]) / ia
    max_gap = peak / abs(ia)
    _refuse_overflow("A / integral(A) is", origin, max_gap, cause=f"the added integral "
                     f"{ia:.3e} is too small for the added outcome's values")
    return IdentityCheck(residual, float(ratio), ia, isub, origin, max_gap)


def grid_metrics(grid: WignerGrid) -> float:
    """The purity 2 pi integral W^2 of a held grid; its origin value is
    ``grid.values[m, m]`` at the centre node m = points // 2.

    W is squared one raster block at a time, into one reused block, so no
    second grid is held, and each row is summed by the einsum ``_simpson``
    runs over a whole grid, so the purity keeps its bits.
    """
    w, n = grid.geometry.weights(), grid.geometry.points
    squares, row_sums = np.empty((_raster_rows(n), n)), np.empty(n)
    with np.errstate(over="ignore"):  # _weigh_rows refuses the inf an overflow leaves
        for i0, i1 in _row_blocks(n, _raster_rows(n)):
            block = np.multiply(grid.values[i0:i1], grid.values[i0:i1], out=squares[:i1 - i0])
            row_sums[i0:i1] = np.einsum("ij,j->i", block, w)
    # a finite integral can still overflow when scaled by 2 pi
    purity = 2.0 * np.pi * _weigh_rows(w, row_sums)
    _refuse_overflow("the purity is", purity)
    return purity
