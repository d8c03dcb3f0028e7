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

Derivatives are 4th-order central stencils with 4th-order one-sided rows at the
edges; integrals are tensor-product Simpson rules, which is why point counts
must be odd.

A and S are linear in W and its stencils, so wherever every value a stencil
reads is 0.0 both outcomes are exactly 0.0. A squeezed W underflows to 0.0
over most of a wide grid (72% of the 3073^2 sigma_x = 4 grid), so the outcome
passes compute each row block only over the columns within stencil reach of
a nonzero W. Skipping the rest changes no outcome value; an L1 sum over the
shorter rows may differ in its last bit, since einsum groups its terms by
row length. One helper, ``_outcome_tiles``, runs those clipped blocks for
both ``photon_outcomes`` and ``l1_relative_residual``, the only L1 pass.

Every grid is a square ``GridGeometry`` (extent, points) plus its values.
The geometry owns the layout: x and p share one axis, -extent + k*step, and
one Simpson weight vector. ``state_grid`` sizes the geometry from a state's
widest width; serialization writes the geometry, so a saved and reloaded grid
is bit-identical to the original, derived axis included. An odd point count
puts the centre node, index points // 2, within one ulp of the extent of the
origin, so origin values are read there with no interpolation.
"""

import os

import numpy as np
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigurationError, DegenerateInputError, DomainError, GeometryError
from .fock import FockVector, quadrature_moments
from .gaussian import AngularAverageSpec, GaussianWignerSpec, wigner_value
from .special import check_basis_size, hermite_psi_table

_MIN_POINTS = 33
_MAX_POINTS = 8193  # an 8193^2 W is 537 MB; the finest suite grid has 6145 points
#: Absolute decay required of inputs on the grid boundary before differencing.
BOUNDARY_DECAY = 1e-12
#: Below this integral, renormalization refuses (vacuum after subtraction).
DEGENERATE_INTEGRAL = 1e-6
#: Largest |integral W - 1| accepted of a grid built from a state.
NORMALIZATION_DRIFT = 1e-4
# rows per outcome block: block temporaries stay a few MB on 3073-point rows
_BLOCK_ROWS = 64
# points per rasterize block: its temporaries stay in cache
_RASTER_POINTS = 65_536
# at most this many threads share a row-block pass (or processes, io.save_grid)
_MAX_WORKERS = 4

# 4th-order stencils; edge rows use one-sided forms of the same order.
_D1_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_D1_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
_D2_EDGE0 = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / 12.0
_D2_EDGE1 = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0]) / 12.0


def _d1(F: np.ndarray, h: float, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    # Assembled in place: on fine grids each full-size temporary costs more in
    # page faults than the arithmetic itself.  `out` must not alias F.
    G = np.moveaxis(F, axis, 0)
    if out is None:
        out = np.empty_like(F)
    O = np.moveaxis(out, axis, 0)
    t = O[2:-2]
    np.subtract(G[3:-1], G[1:-3], out=t)
    t *= 8.0
    t += G[:-4]
    t -= G[4:]
    t *= 1.0 / (12.0 * h)
    O[0] = sum(wj * G[j] for j, wj in enumerate(_D1_EDGE0))
    O[1] = sum(wj * G[j] for j, wj in enumerate(_D1_EDGE1))
    O[-1] = -sum(wj * G[-1 - j] for j, wj in enumerate(_D1_EDGE0))
    O[-2] = -sum(wj * G[-1 - j] for j, wj in enumerate(_D1_EDGE1))
    O[:2] *= 1.0 / h
    O[-2:] *= 1.0 / h
    return out


def _d2(F: np.ndarray, h: float, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    G = np.moveaxis(F, axis, 0)
    if out is None:
        out = np.empty_like(F)
    O = np.moveaxis(out, axis, 0)
    t = O[2:-2]
    np.add(G[1:-3], G[3:-1], out=t)
    t *= 16.0
    t -= G[:-4]
    t -= G[4:]
    t -= 30.0 * G[2:-2]
    t *= 1.0 / (12.0 * h * h)
    O[0] = sum(wj * G[j] for j, wj in enumerate(_D2_EDGE0))
    O[1] = sum(wj * G[j] for j, wj in enumerate(_D2_EDGE1))
    O[-1] = sum(wj * G[-1 - j] for j, wj in enumerate(_D2_EDGE0))
    O[-2] = sum(wj * G[-1 - j] for j, wj in enumerate(_D2_EDGE1))
    O[:2] *= 1.0 / (h * h)
    O[-2:] *= 1.0 / (h * h)
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
    width keeps identity residuals near 1e-5, an order under the 1e-4 gate.
    """
    narrowest, widest = spec.widths()
    extent = policy_extent(widest)
    n = int(np.ceil(2.0 * extent / (narrowest / 16))) + 1
    return GridGeometry(extent, max(n if n % 2 == 1 else n + 1, 257))


class WignerGrid:
    """Real samples values[i, j] = W(xs[i], ps[j]) on a square geometry;
    xs and ps name the one axis the geometry derives."""

    def __init__(self, geometry: GridGeometry, values: np.ndarray):
        # contiguous storage: BLAS sums a strided view (a column of a table,
        # say) in a different order, which moves results in their last bits
        values = np.ascontiguousarray(values, dtype=float)
        if values.shape != (geometry.points,) * 2:
            raise ConfigurationError(f"values of shape {values.shape} do not fit a "
                                     f"{geometry.points}-point square grid")
        self.geometry = geometry
        self.values = values
        self.xs = self.ps = geometry.axis()

    @property
    def step(self) -> float:
        return self.geometry.step

    @property
    def points(self) -> int:
        return self.geometry.points

    def with_values(self, values: np.ndarray) -> "WignerGrid":
        """Same geometry, new samples."""
        return WignerGrid(self.geometry, values)

    def integral(self) -> float:
        w = self.geometry.weights()
        return _simpson(self.values, w, w)

    def boundary_max(self) -> float:
        v = self.values
        return float(max(np.max(np.abs(v[0])), np.max(np.abs(v[-1])),
                         np.max(np.abs(v[:, 0])), np.max(np.abs(v[:, -1]))))


def _simpson(values: np.ndarray, wx: np.ndarray, wp: np.ndarray) -> float:
    """wx^T values wp, reduced by einsum rather than BLAS: its sums keep one
    order whatever the BLAS thread count."""
    return float(wx @ np.einsum("ij,j->i", values, wp))


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


def _map_blocks(fn, blocks) -> list:
    """[fn(block) for block in blocks], run on a thread pool that lives for
    this call only.

    numpy releases the GIL inside ufuncs and BLAS, so blocks overlap. Results
    come back in block order, so a reduction over them adds in the same order
    whatever the worker count.
    """
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(_worker_count()) as pool:
        return list(pool.map(fn, blocks))


def rasterize(spec, geometry: GridGeometry) -> WignerGrid:
    """Sample a gaussian mixture or angular-average spec onto ``geometry``;
    only ``state_grid`` checks that the grid resolves it."""
    if not isinstance(spec, (GaussianWignerSpec, AngularAverageSpec)):
        raise ConfigurationError(f"rasterize cannot handle {type(spec).__name__}")
    axis = geometry.axis()
    # evaluate in row blocks: identical values, cache-sized temporaries
    values = np.empty((axis.size, axis.size))

    def fill(block):
        i0, i1 = block
        values[i0:i1] = wigner_value(spec, axis[i0:i1, None], axis[None, :])

    _map_blocks(fill, _row_blocks(axis.size, max(1, _RASTER_POINTS // axis.size)))
    return WignerGrid(geometry, values)


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
    basis too large for the transform, before any trunc x trunc array exists,
    and GeometryError when the grid does not resolve the state: its integral
    drifts by over NORMALIZATION_DRIFT.
    """
    if isinstance(state, FockVector):
        check_basis_size(state.trunc)
        extent = policy_extent(np.sqrt(2.0 * max(quadrature_moments(state))))
        build = wigner_from_density
    elif isinstance(state, (GaussianWignerSpec, AngularAverageSpec)):
        extent = policy_extent(state.widths()[1])
        build = rasterize
    else:
        raise ConfigurationError(f"state_grid cannot handle {type(state).__name__}")
    default_points = 257 if extent <= 18.0 else 513
    grid = build(state, GridGeometry(extent, default_points if points is None else points))
    drift = abs(grid.integral() - 1.0)
    if not drift <= NORMALIZATION_DRIFT:
        raise GeometryError(f"normalization drift {drift:.3e} on the {grid.points}-point grid: "
                            "it does not resolve the state; refine it with --points")
    return grid


def _check_boundary(grid: WignerGrid):
    b = grid.boundary_max()
    if b > BOUNDARY_DECAY:
        raise GeometryError(
            f"boundary values reach {b:.3e} > {BOUNDARY_DECAY}; enlarge the grid "
            "before differencing"
        )


def _halo(i0: int, i1: int, n: int) -> tuple[int, int]:
    """Index range lo:hi the stencils read for outputs i0:i1 on an axis of n
    points: 2 on each side, clipped at the edges and widened to at least 6 so
    the one-sided edge stencils still apply. Every kept output lies at least 2
    from a cut that is not a grid edge, so it sees the same stencil as in a
    full-array assembly."""
    hi = min(n, i1 + 2)
    lo = max(0, min(i0 - 2, hi - 6))
    return lo, min(n, max(hi, lo + 6))


def _outcome_tile(grid: WignerGrid, i0: int, i1: int, j0: int, j1: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Rows i0:i1 and columns j0:j1 of the added and subtracted outcomes,
    bit-identical to a full-array assembly.

    The stencils run on W over the halo of both ranges; only the inner tile is
    kept, so every temporary is tile-sized.
    """
    n, h = grid.points, grid.step
    lo, hi = _halo(i0, i1, n)
    left, right = _halo(j0, j1, n)
    F = grid.values[lo:hi, left:right]
    xs, ps = grid.xs[lo:hi], grid.ps[left:right]
    # Laplacian / 8
    acc = _d2(F, h, 0)
    scratch = _d2(F, h, 1)
    acc += scratch
    acc *= 0.125
    # drift term x Wx + p Wp
    drift = _d1(F, h, 0, out=scratch)
    drift *= xs[:, None]
    other = _d1(F, h, 1)
    other *= ps[None, :]
    drift += other
    # drift / 2 goes to the free buffer: drift itself is still needed for S
    acc -= np.multiply(drift, 0.5, out=other)
    # (x^2 + p^2 - 1)/2 * W
    radial = (0.5 * xs * xs)[:, None] + (0.5 * (ps * ps - 1.0))[None, :]
    radial *= F
    acc += radial
    added = acc
    subtracted = np.add(added, F, out=other)
    subtracted += drift
    rows, cols = slice(i0 - lo, i1 - lo), slice(j0 - left, j1 - left)
    return added[rows, cols], subtracted[rows, cols]


def _outcome_tiles(grid: WignerGrid, fn) -> list:
    """fn(rows, cols, A, S) for each row block, in block order, where A and S
    are the block's outcomes over the column slice cols only; blocks where W
    vanishes on every row they read are skipped.

    Outside cols both outcomes are exactly zero: every stencil input there is
    0.0. A central stencil reaches 2 columns; the one-sided ones of the two
    edge columns read 6, so support within 6 columns of an edge extends the
    tile to that edge. The blocks run on a per-call thread pool.
    """
    n = grid.points

    def tile(block):
        i0, i1 = block
        lo, hi = _halo(i0, i1, n)
        support = np.flatnonzero(np.any(grid.values[lo:hi], axis=0))
        if support.size == 0:
            return None
        j0 = int(support[0]) - 2 if support[0] >= 6 else 0
        j1 = int(support[-1]) + 3 if support[-1] < n - 6 else n
        return fn(slice(i0, i1), slice(j0, j1), *_outcome_tile(grid, i0, i1, j0, j1))

    return [r for r in _map_blocks(tile, _row_blocks(n)) if r is not None]


def photon_outcomes(grid: WignerGrid) -> tuple[WignerGrid, WignerGrid]:
    """Un-renormalized added and subtracted outcome grids, sharing derivatives.

    Filled in row blocks on a per-call thread pool, each block only over the
    columns where W is nonzero near it (the rest stays +0.0), so besides the
    two results only tile-sized temporaries are live, one set per worker: on
    fig2's 931^2 grids, the largest ``verify`` passes it (6.9 MB of input), it
    allocates 18 MB at its peak, 13.9 MB of it the results, and takes
    0.04-0.05 s on two Xeon cores.
    """
    _check_boundary(grid)
    added = np.zeros(grid.values.shape)
    subtracted = np.zeros(grid.values.shape)

    def fill(rows, cols, block_added, block_subtracted):
        added[rows, cols] = block_added
        subtracted[rows, cols] = block_subtracted

    _outcome_tiles(grid, fill)
    return (grid.with_values(added), grid.with_values(subtracted))


def _refuse_vanishing(integral: float, quantity: str, undefined: str):
    """The one refusal of a vanishing integral: DegenerateInputError when
    |integral| < DEGENERATE_INTEGRAL, naming the quantity and what it leaves
    undefined."""
    if abs(integral) < DEGENERATE_INTEGRAL:
        raise DegenerateInputError(
            f"{quantity} = {integral:.3e} vanishes, so {undefined} is undefined: "
            "vacuum-like input (the sigma_x = 1 exclusion)")


def renormalize(grid: WignerGrid) -> WignerGrid:
    """Scale a grid to unit integral; refuses on a vanishing integral."""
    total = grid.integral()
    _refuse_vanishing(total, "the grid integral", "the renormalized grid")
    return grid.with_values(grid.values / total)


class IdentityCheck(NamedTuple):
    residual: float
    ratio_used: float
    added_integral: float
    subtracted_integral: float
    # A / integral(A) at the centre node, within one ulp of the extent of the origin
    added_origin: float
    max_gap: float  # max |A - R S| / |int A|; at the default R, max |A/int A - S/int S|


def outcome_norm_ratio(added_integral: float, subtracted_integral: float) -> float:
    """integral(A) / integral(S), the norm ratio of the two outcomes.

    Raises DegenerateInputError when integral(S) vanishes (vacuum input:
    subtraction yields nothing, the sigma_x = 1 exclusion).
    """
    _refuse_vanishing(subtracted_integral, "the subtracted integral", "the norm ratio")
    return added_integral / subtracted_integral


def outcome_integrals(grid: WignerGrid) -> tuple[float, float]:
    """Simpson integrals of the added and subtracted outcomes, forming neither.

    The Simpson weights are separable and each stencil acts along one axis, so
    wx^T A wp needs only r = W wp, c = wx W and 1-d stencils on them:

        integral W     = wx . r
        radial term    = (wx x^2 / 2) . r + c . (wp (p^2 - 1) / 2)
        drift term     = (wx x) . d1(r) + d1(c) . (wp p)
        Laplacian / 8  = (wx . d2(r) + d2(c) . wp) / 8

    with integral(A) = radial - drift / 2 + Laplacian / 8 and
    integral(S) = integral(A) + integral W + drift. Raises GeometryError when
    either integral is not finite.
    """
    _check_boundary(grid)
    w, h = grid.geometry.weights(), grid.step
    # einsum, not BLAS: its sums keep one order whatever the BLAS thread count
    r = np.einsum("ij,j->i", grid.values, w)
    c = np.einsum("i,ij->j", w, grid.values)
    xs, ps = grid.xs, grid.ps
    # an overflow here leaves an integral inf or nan, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        radial = float((0.5 * w * xs * xs) @ r + c @ (0.5 * w * (ps * ps - 1.0)))
        drift = float((w * xs) @ _d1(r, h, 0) + _d1(c, h, 0) @ (w * ps))
        laplacian = float(w @ _d2(r, h, 0) + _d2(c, h, 0) @ w)
        added = radial - 0.5 * drift + 0.125 * laplacian
        subtracted = added + float(w @ r) + drift
    if not (np.isfinite(added) and np.isfinite(subtracted)):
        raise GeometryError(
            f"outcome integrals ({added!r}, {subtracted!r}) are not finite: the "
            "grid's x^2 + p^2 or its values overflow"
        )
    return added, subtracted


def l1_relative_residual(grid: WignerGrid, ratio: float) -> tuple[float, float]:
    """(integral |A - ratio S| / integral |A|, max |A - ratio S|) for outcomes A, S of W.

    One pass over row blocks, each over the columns where W is nonzero near
    it, so no full-size outcome grid is ever held. The block sums are added
    in block order and a max has no order, so neither value depends on the
    worker count. Raises DegenerateInputError when integral |A| vanishes.
    """
    _check_boundary(grid)
    w = grid.geometry.weights()

    def sums(rows, cols, added, subtracted):
        diff = added - ratio * subtracted
        np.abs(diff, out=diff)
        return (_simpson(diff, w[rows], w[cols]),
                _simpson(np.abs(added), w[rows], w[cols]), float(diff.max()))

    num = den = peak = 0.0
    for block_num, block_den, block_peak in _outcome_tiles(grid, sums):
        num += block_num
        den += block_den
        peak = max(peak, block_peak)
    _refuse_vanishing(den, "integral |A|", "the relative residual")
    return num / den, peak


def identity_residual(grid: WignerGrid, ratio: float | None = None) -> IdentityCheck:
    """How far the added and subtracted outcomes are from proportionality.

    Scales S by ``ratio`` (by default the integral ratio integral(A)/integral(S),
    from ``outcome_norm_ratio``) and returns the L1-relative residual
    integral |A - R S| / integral |A|, the outcome integrals, the origin value
    of A / integral(A) and ``max_gap``. The integrals come from
    ``outcome_integrals``, the residual and ``max_gap`` from one
    ``l1_relative_residual`` pass, and the origin value from one outcome tile
    at the centre node, within one ulp of the extent of the origin.

    An explicit ``ratio`` must lie in [1, 1 + 1/DEGENERATE_INTEGRAL]: the
    norm ratio of any grid that ``outcome_norm_ratio`` accepts is
    1 + integral(W)/integral(S) with integral(S) >= DEGENERATE_INTEGRAL.
    Raises DomainError for a non-finite ratio or one outside that range.
    """
    if ratio is not None:
        if not np.isfinite(ratio):
            raise DomainError(f"ratio {ratio!r} is not finite")
        top = 1.0 + 1.0 / DEGENERATE_INTEGRAL
        if not 1.0 <= ratio <= top:
            raise DomainError(f"ratio {ratio!r} lies outside the norm-ratio range [1, {top:g}]")
    ia, isub = outcome_integrals(grid)
    if ratio is None:
        ratio = outcome_norm_ratio(ia, isub)
    residual, peak = l1_relative_residual(grid, ratio)
    m = grid.points // 2
    origin = float(_outcome_tile(grid, m, m + 1, m, m + 1)[0][0, 0] / ia)
    return IdentityCheck(residual, float(ratio), ia, isub, origin, peak / abs(ia))


class GridReport(NamedTuple):
    purity: float
    origin_value: float


def grid_metrics(grid: WignerGrid) -> GridReport:
    """Purity 2 pi integral W^2 and the origin value: W at the centre node,
    which lies within one ulp of the extent of the origin."""
    w = grid.geometry.weights()
    purity = 2.0 * np.pi * _simpson(grid.values * grid.values, w, w)
    m = grid.points // 2
    return GridReport(purity, float(grid.values[m, m]))
