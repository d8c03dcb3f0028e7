"""Grid layer: geometry policies, transform, differencing, residuals."""

import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

from sqvac import (
    AngularAverageSpec,
    ConfigurationError,
    DegenerateInputError,
    FockVector,
    GaussianWignerSpec,
    GeometryError,
    GridGeometry,
    WignerGrid,
    coherent_state,
    grid_metrics,
    identity_residual,
    l1_relative_residual,
    outcome_factors,
    outcome_integrals,
    outcome_norm_ratio,
    photon_outcomes,
    policy_extent,
    rasterize,
    refined_geometry,
    renormalize,
    squeezed_vacuum,
    state_grid,
    wigner_from_density,
    wigner_value,
)
from sqvac.phasespace import (_BLOCK_ROWS, _MAX_WORKERS, BOUNDARY_DECAY, DEGENERATE_INTEGRAL,
                              _d1, _d2, _map_blocks, _row_blocks, _simpson,
                              _worker_count)

PURE2 = GaussianWignerSpec.pure_state(2.0)
IMPURE = GaussianWignerSpec.single(4.0, 0.5)
# rotated and impure: no symmetry of W hides a transposed or shifted row
SKEW = GaussianWignerSpec.single(2.0, 0.7, theta=0.4)


# ----------------------------------------------------------------- geometry

def test_geometry_validation():
    with pytest.raises(GeometryError):
        GridGeometry(6.0, 32)   # even
    with pytest.raises(GeometryError):
        GridGeometry(6.0, 31)   # too small
    # past the cap an axis would not fit in memory: refused before it exists
    assert GridGeometry(12.0, 8193).points == 8193
    for points in (8195, 100000001):
        with pytest.raises(GeometryError, match="cap of 8193"):
            GridGeometry(12.0, points)
    # non-finite extents and steps are refused before any axis exists
    for extent in (-1.0, 0.0, math.nan, math.inf, 1e308, 5e-324):
        with pytest.raises(GeometryError):
            GridGeometry(extent, 257)


def test_geometry_steps_and_axes():
    g = GridGeometry(12.0, 257)
    assert g.step == 0.09375  # 24/256 is exact in binary
    axis = g.axis()
    assert axis[0] == -12.0 and abs(axis[-1] - 12.0) < 1e-12
    assert axis.size == 257


def test_centre_node_is_the_origin():
    # origin values are read at index points // 2 with no interpolation: on
    # any odd count that node lies within one ulp of the extent of 0
    for extent in np.geomspace(0.5, 100.0, 300):
        for points in (33, 257, 513, 769, 931, 3073):
            axis = GridGeometry(float(extent), points).axis()
            assert abs(axis[points // 2]) <= np.spacing(extent)


def test_policy_extent():
    assert policy_extent(2.0) == 12.0
    assert policy_extent(1.0) == 6.0
    assert policy_extent(0.5) == 6.0
    assert policy_extent(4.0) == 24.0


def test_default_geometry_policy():
    assert state_grid(PURE2).geometry == GridGeometry(12.0, 257)
    assert state_grid(IMPURE).geometry == GridGeometry(24.0, 513)
    assert state_grid(GaussianWignerSpec.pure_state(1.0)).geometry == GridGeometry(6.0, 257)
    # number-basis states: sqrt(2) rms is the gaussian-equivalent width
    fock2 = state_grid(squeezed_vacuum(-math.log(2.0), 68)).geometry
    assert fock2.extent == pytest.approx(12.0, rel=1e-12) and fock2.points == 257
    strong = state_grid(squeezed_vacuum(-math.log(4.0), 300)).geometry
    assert strong.extent == pytest.approx(24.0, rel=1e-12) and strong.points == 513
    assert state_grid(FockVector(8, np.eye(8)[0])).geometry == GridGeometry(6.0, 257)
    # the point count doubles once the extent, 6 sigma_x, passes 18
    assert state_grid(GaussianWignerSpec.pure_state(3.0)).geometry == GridGeometry(18.0, 257)
    wider = state_grid(GaussianWignerSpec.pure_state(3.0000002)).geometry
    assert wider.extent == pytest.approx(18.0000012, rel=1e-15) and wider.points == 513
    # a given point count replaces the default; the extent stays the policy's
    assert state_grid(PURE2, points=513).geometry == GridGeometry(12.0, 513)


def test_state_grid_refuses_unresolved_transform():
    # sigma_x = 1/2 has 1.3 points per narrowest width on 65 points
    with pytest.raises(GeometryError, match="normalization drift .* 65-point grid.*--points"):
        state_grid(squeezed_vacuum(math.log(2.0)), points=65)


def test_refined_geometry_policy():
    assert refined_geometry(PURE2) == GridGeometry(12.0, 769)
    assert refined_geometry(IMPURE) == GridGeometry(24.0, 1537)
    assert refined_geometry(AngularAverageSpec(2.2)) == GridGeometry(6.0 * 2.2, 931)
    # floor: never coarser than the default point count
    assert refined_geometry(GaussianWignerSpec.pure_state(1.0)).points == 257


# --------------------------------------------------------------- WignerGrid

def test_grid_shape_validation():
    # values must fill the geometry's square: no other shape has a layout
    for shape in [(33,), (33, 35), (35, 33), (35, 35), (33, 33, 1)]:
        with pytest.raises(ConfigurationError, match="33-point square grid"):
            WignerGrid(GridGeometry(1.0, 33), np.zeros(shape))


def test_grid_axis_and_weights_come_from_the_geometry():
    geometry = GridGeometry(1.7, 35)
    grid = WignerGrid(geometry, np.ones((35, 35)))
    assert grid.xs is grid.ps and np.array_equal(grid.xs, geometry.axis())
    assert (grid.step, grid.points) == (geometry.step, geometry.points)
    w = geometry.weights()
    assert np.array_equal(w[:4] / (geometry.step / 3.0), [1.0, 4.0, 2.0, 4.0])
    assert w[-1] == w[0] and w.sum() == pytest.approx(3.4, rel=1e-14)


def test_grid_integral_of_constant():
    grid = WignerGrid(GridGeometry(1.0, 33), np.ones((33, 33)))
    assert grid.integral() == pytest.approx(4.0, rel=1e-14)


def test_with_values_keeps_layout():
    grid = state_grid(PURE2)
    doubled = grid.with_values(2.0 * grid.values)
    assert doubled.geometry == grid.geometry
    assert doubled.integral() == pytest.approx(2.0 * grid.integral(), rel=1e-14)


def test_boundary_max_scans_all_edges():
    vals = np.zeros((33, 33))
    vals[7, -1] = 0.25
    grid = WignerGrid(GridGeometry(1.0, 33), vals)
    assert grid.boundary_max() == 0.25


# ---------------------------------------------------------------- rasterize

def test_rasterize_orientation():
    # values[i, j] must be W(xs[i], ps[j]) -- checked off-axis on a rotated,
    # anisotropic state where a transpose would be loud
    spec = GaussianWignerSpec.single(4.0, 0.5, theta=0.4)
    grid = state_grid(spec)
    for i, j in [(40, 300), (128, 60), (200, 256)]:
        assert grid.values[i, j] == pytest.approx(
            float(wigner_value(spec, grid.xs[i], grid.ps[j])), rel=1e-13
        )


def test_rasterize_rejects_unknown_spec():
    with pytest.raises(ConfigurationError):
        rasterize(3.0, GridGeometry(6.0, 33))
    with pytest.raises(ConfigurationError):
        state_grid(3.0)


def test_rasterize_default_geometry_normalized():
    grid = state_grid(PURE2)
    m = grid_metrics(grid)
    assert grid.integral() == pytest.approx(1.0, abs=1e-9)
    assert m.purity == pytest.approx(1.0, abs=1e-8)
    assert m.origin_value == pytest.approx(1.0 / math.pi, rel=1e-12)


# ---------------------------------------------------- number-basis transform

def laguerre_wigner(rho, x, p):
    """Matrix-element form of W (Cahill & Glauber, Phys. Rev. 177, 1882):
    W = sum_mn rho_mn (-1)^m <n|D(beta)|m> / pi with beta = sqrt(2)(x + i p)
    and <n|D|m> = sqrt(m!/n!) beta^(n-m) exp(-|beta|^2/2) L_m^(n-m)(|beta|^2)
    for n >= m, -beta* in place of beta and m, n swapped otherwise."""
    beta = math.sqrt(2.0) * (x + 1j * p)
    b2 = np.abs(beta) ** 2
    total = np.zeros(b2.shape, dtype=complex)
    for m, n in zip(*np.nonzero(rho)):
        lo, hi = min(m, n), max(m, n)
        shift = beta if n >= m else -beta.conj()
        element = math.sqrt(math.factorial(lo) / math.factorial(hi)) * shift ** (hi - lo) \
            * np.exp(-b2 / 2.0) * eval_genlaguerre(lo, hi - lo, b2)
        total += rho[m, n] * (-1) ** m * element
    return total.real / math.pi


def test_transform_single_photon():
    vec = FockVector(8, np.eye(8)[1])
    grid = state_grid(vec)
    s = grid.xs[:, None] ** 2 + grid.ps[None, :] ** 2
    closed = (2.0 * s - 1.0) * np.exp(-s) / math.pi
    assert np.max(np.abs(grid.values - closed)) < 1e-8

    # Number states, an unnormalized random complex vector with coherences
    # at every level and, last, a superposition whose W is not even in p, so
    # a swapped x +- y/2 gather would mirror it.
    rng = np.random.default_rng(7)
    states = [FockVector(8, np.eye(8)[n]) for n in (0, 1, 2, 5)] + [
        FockVector(8, rng.normal(size=8) + 1j * rng.normal(size=8)),
        FockVector(8, np.array([1.0, 1j, 0, 0, 0, 0, 0, 0]) / math.sqrt(2.0)),
    ]
    for state in states:
        psi = state.normalized().amps
        grid = state_grid(state)
        oracle = laguerre_wigner(np.outer(psi, psi.conj()), grid.xs[:, None], grid.ps[None, :])
        assert np.max(np.abs(grid.values - oracle)) < 1e-10
    assert np.max(np.abs(oracle - oracle[:, ::-1])) > 0.1


def test_transform_squeezed_matches_closed_form():
    z = -math.log(2.0)  # sigma_x = 2
    grid = state_grid(squeezed_vacuum(z, 68))
    closed = wigner_value(PURE2, grid.xs[:, None], grid.ps[None, :])
    assert np.max(np.abs(grid.values - closed)) < 1e-7

    # z = 1: the default grid's p edge is clean (alternating y weights would
    # put a ghost at p +- pi/dx) and, on a grid fine enough for the
    # stencils, the identity holds.
    state = squeezed_vacuum(1.0)
    grid = state_grid(state)
    assert grid.boundary_max() <= BOUNDARY_DECAY
    fine = state_grid(state, points=769)
    assert identity_residual(fine).residual < 1e-4


def test_transform_rotated_squeezed_matches_rotated_spec():
    # amplitudes times e^{+i n theta} rotate W the way a spec's theta does:
    # this pins the number-basis and grid angle conventions to each other
    z, theta = math.log(2.0), 0.3
    vac = squeezed_vacuum(z, 68)
    rotated = FockVector(68, vac.amps * np.exp(1j * theta * np.arange(68)))
    spec = GaussianWignerSpec.pure_state(math.exp(-z), theta)
    geometry = GridGeometry(policy_extent(spec.widths()[1]), 257)
    grid = wigner_from_density(rotated, geometry)
    assert np.max(np.abs(grid.values - rasterize(spec, geometry).values)) < 1e-8


def test_transform_coherent_is_shifted_vacuum():
    grid = state_grid(coherent_state(1.0, 40))
    closed = np.exp(
        -((grid.xs[:, None] - math.sqrt(2.0)) ** 2) - grid.ps[None, :] ** 2
    ) / math.pi
    assert np.max(np.abs(grid.values - closed)) < 1e-7


def test_transform_undersized_grid_refused():
    # sigma_x = 2 on a grid of extent 6: the transform makes the grid, and
    # differencing refuses it by its boundary values, as for rasterized grids
    grid = wigner_from_density(squeezed_vacuum(-math.log(2.0), 68), GridGeometry(6.0, 257))
    assert grid.boundary_max() == pytest.approx(3.9e-5, rel=0.05)
    for refused in (photon_outcomes, outcome_integrals, identity_residual):
        with pytest.raises(GeometryError, match="boundary values"):
            refused(grid)


def test_transform_rejects_unknown_input():
    with pytest.raises(ConfigurationError):
        wigner_from_density(np.zeros((4, 4)), GridGeometry(6.0, 33))


# ----------------------------------------------------------- photon outcomes

def test_outcomes_need_decayed_boundary():
    # the second grid's boundary lies between BOUNDARY_DECAY and 1e-6
    near = rasterize(PURE2, GridGeometry(8.85, 257))
    assert near.boundary_max() == pytest.approx(9.98e-10, rel=1e-3)
    for grid in (rasterize(IMPURE, GridGeometry(8.0, 257)), near):
        for refused in (photon_outcomes, outcome_integrals, identity_residual):
            with pytest.raises(GeometryError, match="boundary values"):
                refused(grid)


def test_outcome_integrals_are_ladder_norms():
    added, subtracted = photon_outcomes(rasterize(PURE2, refined_geometry(PURE2)))
    assert added.integral() == pytest.approx(1.5625, abs=1e-9)       # <a a^dag>
    assert subtracted.integral() == pytest.approx(0.5625, abs=1e-9)  # <a^dag a>


def test_renormalized_outcomes_match_closed_forms():
    grid = rasterize(PURE2, refined_geometry(PURE2))
    wp, wm = (renormalize(outcome) for outcome in photon_outcomes(grid))
    fp, fm = outcome_factors(grid.xs[:, None], grid.ps[None, :], 2.0, 0.5)
    assert np.max(np.abs(wp.values - fp * grid.values)) < 5e-5
    assert np.max(np.abs(wm.values - fm * grid.values)) < 5e-5


def test_identity_residual_pure_state():
    chk = identity_residual(rasterize(PURE2, refined_geometry(PURE2)))
    assert chk.residual < 1e-4
    assert chk.ratio_used == pytest.approx(25.0 / 9.0, abs=1e-3)
    assert chk.added_integral == pytest.approx(1.5625, abs=1e-6)
    assert chk.subtracted_integral == pytest.approx(0.5625, abs=1e-6)


def test_identity_residual_explicit_ratio():
    chk = identity_residual(rasterize(PURE2, refined_geometry(PURE2)), ratio=25.0 / 9.0)
    assert chk.ratio_used == 25.0 / 9.0
    assert chk.residual < 1e-4


def test_impure_state_breaks_identity():
    grid = rasterize(IMPURE, refined_geometry(IMPURE))
    chk = identity_residual(grid)
    assert chk.residual > 0.05
    wp, wm = (renormalize(outcome) for outcome in photon_outcomes(grid))
    maxdiff = np.max(np.abs(wp.values - wm.values))
    assert maxdiff > 0.01
    # the L1 pass's largest gap is the whole-grid maximum
    assert _rel(chk.max_gap, maxdiff) < 1e-12


def test_vacuum_input_degenerate():
    grid = state_grid(GaussianWignerSpec.pure_state(1.0))
    with pytest.raises(DegenerateInputError):
        identity_residual(grid)
    with pytest.raises(DegenerateInputError):
        renormalize(photon_outcomes(grid)[1])
    # an explicit ratio skips the guard: S vanishes, so |A - S| = |A|
    chk = identity_residual(grid, ratio=1.0)
    assert chk.ratio_used == 1.0
    assert abs(chk.subtracted_integral) < DEGENERATE_INTEGRAL
    assert chk.added_integral == pytest.approx(1.0, abs=1e-9)  # <a a^dag> on |0>
    assert chk.residual == pytest.approx(1.0, abs=1e-4)


def test_renormalize_zero_grid_degenerate():
    grid = WignerGrid(GridGeometry(1.0, 33), np.zeros((33, 33)))
    with pytest.raises(DegenerateInputError):
        renormalize(grid)


def test_vanishing_added_outcome_degenerate():
    # with an explicit ratio nothing guards S, so integral |A| = 0 must refuse
    zero = WignerGrid(GridGeometry(1.0, 33), np.zeros((33, 33)))
    with pytest.raises(DegenerateInputError, match="integral \\|A\\|"):
        identity_residual(zero, ratio=1.0)
    with pytest.raises(DegenerateInputError, match="integral \\|A\\|"):
        l1_relative_residual(zero, 1.0)


@pytest.mark.parametrize("refused,quantity", [
    (renormalize, "grid integral"),
    (lambda zero: outcome_norm_ratio(1.0, zero.integral()), "subtracted integral"),
    (lambda zero: l1_relative_residual(zero, 1.0), "integral |A|"),
], ids=["renormalize", "norm-ratio", "l1-residual"])
def test_vanishing_integral_messages_name_quantity_and_exclusion(refused, quantity):
    zero = WignerGrid(GridGeometry(1.0, 33), np.zeros((33, 33)))
    # integral W = 1e-8: under DEGENERATE_INTEGRAL, yet no round-off zero
    pure = state_grid(PURE2)
    tiny = pure.with_values(pure.values * 1e-8)
    for grid in (zero, tiny):
        with pytest.raises(DegenerateInputError) as info:
            refused(grid)
        assert quantity in str(info.value) and "sigma_x = 1" in str(info.value)


def test_doubling_resolution_shrinks_residual():
    coarse = identity_residual(rasterize(PURE2, GridGeometry(12.0, 769)))
    fine = identity_residual(rasterize(PURE2, GridGeometry(12.0, 1537)))
    assert coarse.residual / fine.residual > 8.0


# ------------------------------------------------------------ stencils

@pytest.mark.parametrize("stencil", [_d1, _d2])
@pytest.mark.parametrize("n", [6, 7, 41])  # 6 rows: the fewest the edge rows need
def test_stencils_on_vectors_match_columns(stencil, n):
    f = np.exp(np.sin(0.3 * np.arange(n)))
    assert np.array_equal(stencil(f, 0.37, 0), stencil(f[:, None], 0.37, 0)[:, 0])


def test_stencils_scale_vector_edge_rows():
    # 4th-order stencils are exact on quadratics, edge rows included:
    # f = k^2 = (x / h)^2 has f' = 2k / h and f'' = 2 / h^2
    k = np.arange(40.0)
    assert np.allclose(_d1(k * k, 0.5, 0), 4.0 * k, rtol=0, atol=1e-12)
    assert np.allclose(_d2(k * k, 0.5, 0), np.full(40, 8.0), rtol=0, atol=1e-10)


# ------------------------------------------------------------ row blocks

def full_array_outcomes(grid):
    """The whole-grid stencil assembly that predates the row-block kernel:
    the oracle the blocked outcomes must reproduce bit for bit."""
    W, xs, ps = grid.values, grid.xs, grid.ps
    h = grid.step
    laplacian = (_d2(W, h, 0) + _d2(W, h, 1)) * 0.125
    drift = _d1(W, h, 0) * xs[:, None] + _d1(W, h, 1) * ps[None, :]
    radial = (0.5 * xs * xs)[:, None] + (0.5 * (ps * ps - 1.0))[None, :]
    added = laplacian - 0.5 * drift + radial * W
    return added, added + W + drift


def grid_of(spec, n):
    """A spec sampled on n x n points over the default extent."""
    return rasterize(spec, GridGeometry(policy_extent(spec.widths()[1]), n))


@pytest.mark.parametrize("shape", [
    (33, 33),                                    # smaller than one block
    (97, 97),                                    # a full block and a partial one
    (4 * _BLOCK_ROWS + 1, 4 * _BLOCK_ROWS + 1),  # last block is a single row
])
def test_blocked_outcomes_match_full_array_assembly(shape):
    grid = grid_of(SKEW, shape[0])
    assert grid.values.shape == shape
    added, subtracted = photon_outcomes(grid)
    want_added, want_subtracted = full_array_outcomes(grid)
    assert np.array_equal(added.values, want_added)
    assert np.array_equal(subtracted.values, want_subtracted)


def _rel(a, b):
    return abs(a - b) / abs(b)


def full_array_l1(grid, added, subtracted, ratio):
    """integral |A - ratio * S| / integral |A| over the whole grid at once."""
    w = grid.geometry.weights()
    return _simpson(np.abs(added - ratio * subtracted), w, w) / _simpson(np.abs(added), w, w)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(16, 150).map(lambda k: 2 * k + 1),
       sx=st.floats(1.5, 3.0), sp=st.floats(0.7, 1.2), theta=st.floats(0.0, math.pi))
def test_identity_residual_matches_full_array_oracle(n, sx, sp, theta):
    grid = grid_of(GaussianWignerSpec.single(sx, sp, theta), n)
    added, subtracted = full_array_outcomes(grid)
    want_residual = full_array_l1(grid, added, subtracted, 1.25)
    added, subtracted = grid.with_values(added), grid.with_values(subtracted)
    ia, isub = added.integral(), subtracted.integral()
    ratio = ia / isub
    chk = identity_residual(grid)
    assert _rel(chk.added_integral, ia) < 1e-12
    assert _rel(chk.subtracted_integral, isub) < 1e-12
    assert _rel(chk.ratio_used, ratio) < 1e-12
    assert _rel(chk.residual, full_array_l1(grid, added.values, subtracted.values, ratio)) < 1e-12
    gap = np.max(np.abs(renormalize(added).values - renormalize(subtracted).values))
    assert _rel(chk.max_gap, gap) < 1e-12
    assert _rel(l1_relative_residual(grid, 1.25)[0], want_residual) < 1e-12
    m = n // 2
    assert _rel(chk.added_origin, added.values[m, m] / ia) < 1e-12


def test_identity_residual_holds_no_full_size_grid():
    grid = rasterize(PURE2, GridGeometry(12.0, 1025))
    tracemalloc.start()
    try:
        identity_residual(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # whole-grid outcomes allocate about four times the input
    assert peak < 1.0 * grid.values.nbytes


# ------------------------------------------------------------- worker pool

def _serial_residual(grid, ratio):
    """The in-order serial L1 pass over whole rows of the full-array outcomes:
    the oracle of the pooled pass, which skips the columns where W is zero."""
    added, subtracted = full_array_outcomes(grid)
    w = grid.geometry.weights()
    num = den = 0.0
    for i0, i1 in _row_blocks(grid.points):
        rows = slice(i0, i1)
        num += _simpson(np.abs(added[rows] - ratio * subtracted[rows]), w[rows], w)
        den += _simpson(np.abs(added[rows]), w[rows], w)
    return num / den


def _set_workers(monkeypatch, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)),
                        raising=False)
    assert _worker_count() == workers


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_pooled_passes_are_bitwise_for_any_worker_count(monkeypatch, workers):
    _set_workers(monkeypatch, workers)

    def early_blocks_slowest(k):
        time.sleep(0.01 * (4 - k))  # with two or more workers, block 1 finishes first
        return k

    assert _map_blocks(early_blocks_slowest, range(4)) == [0, 1, 2, 3]
    # several blocks in every pass: 5 in rasterize, 9 in the outcome passes
    geometry = GridGeometry(policy_extent(SKEW.widths()[1]), 513)
    axis = geometry.axis()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the workers as often as possible
    try:
        grid = rasterize(SKEW, geometry)
        added, subtracted = photon_outcomes(grid)
        chk = identity_residual(grid)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(grid.values, wigner_value(SKEW, axis[:, None], axis[None, :]))
    want_added, want_subtracted = full_array_outcomes(grid)
    assert np.array_equal(added.values, want_added)
    assert np.array_equal(subtracted.values, want_subtracted)
    assert _rel(chk.residual, _serial_residual(grid, chk.ratio_used)) < 1e-15
    # the pooled sums are added in block order: one worker gives the same bits
    _set_workers(monkeypatch, 1)
    assert identity_residual(grid) == chk


def support_grid(n, rows, cols):
    """n x n grid: random values on rows x cols, exact zeros elsewhere."""
    values = np.zeros((n, n))
    values[rows, cols] = 0.5 + np.random.default_rng(7).random(values[rows, cols].shape)
    return WignerGrid(GridGeometry(6.0, n), values)


CLIPPED_CASES = {
    # the squeezed axis of W underflows to 0.0 over most of the grid
    "sx4-th0": lambda: state_grid(GaussianWignerSpec.pure_state(4.0)),
    "sx4-th0.7854": lambda: state_grid(GaussianWignerSpec.pure_state(4.0, math.pi / 4)),
    # support 3-6 columns (rows) from both edges: the one-sided stencils of
    # the two edge columns reach it up to 5 away
    **{f"cols-from-edge-{k}": (lambda k=k: support_grid(129, slice(20, 109), slice(k, 129 - k)))
       for k in (3, 4, 5, 6)},
    **{f"rows-from-edge-{k}": (lambda k=k: support_grid(129, slice(k, 129 - k), slice(20, 109)))
       for k in (3, 4, 5, 6)},
    # blocks 2-4 read only zeros; block 1 reads its last nonzero row, 62,
    # through its halo alone
    "zero-row-blocks": lambda: support_grid(4 * _BLOCK_ROWS + 1, slice(20, 63), slice(40, 90)),
}


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("case", CLIPPED_CASES)
def test_clipped_tiles_match_whole_grid_oracle(monkeypatch, case, workers):
    _set_workers(monkeypatch, workers)
    grid = CLIPPED_CASES[case]()
    assert np.mean(grid.values == 0.0) > 0.25
    added, subtracted = photon_outcomes(grid)
    # the sx4 grids hold subnormal outcomes, which must match too
    want_added, want_subtracted = full_array_outcomes(grid)
    assert np.array_equal(added.values, want_added)
    assert np.array_equal(subtracted.values, want_subtracted)
    chk = identity_residual(grid, 1.25)
    assert _rel(chk.residual, _serial_residual(grid, 1.25)) < 1e-15
    # a max needs no summing order: the skipped columns are exact zeros
    peak = np.max(np.abs(want_added - 1.25 * want_subtracted))
    assert chk.max_gap == peak / abs(chk.added_integral)


@pytest.mark.parametrize("workers", [1, 4])
def test_identity_residual_is_the_l1_pass(monkeypatch, workers):
    grid = CLIPPED_CASES["sx4-th0.7854"]()
    _set_workers(monkeypatch, 1)
    serial = identity_residual(grid, 1.25)
    _set_workers(monkeypatch, workers)
    chk = identity_residual(grid, 1.25)
    # one L1 pass: identity_residual reports l1_relative_residual's bits
    residual, peak = l1_relative_residual(grid, 1.25)
    assert (residual, peak / abs(chk.added_integral)) == (chk.residual, chk.max_gap)
    # the largest gap, like the block-ordered sums, is the same on any worker count
    assert chk == serial


def test_worker_count_is_capped(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert _worker_count() == _MAX_WORKERS
    # platforms without an affinity mask fall back to the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _worker_count() == _MAX_WORKERS
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count() == 1


def test_grid_sums_do_not_depend_on_blas_thread_count():
    # OpenBLAS splits a matrix-vector sum by its thread count; the Simpson
    # sums must not see it (the mixture purity and impure energy did)
    import sqvac
    code = ("import math; from sqvac import *\n"
            "for spec in (GaussianWignerSpec.two_angle_mixture(0.5, 0.0, math.pi / 4, 2.2),\n"
            "             GaussianWignerSpec.single(4.0, 0.5)):\n"
            "    grid = rasterize(spec, refined_geometry(spec))\n"
            "    print([float(v).hex() for v in grid_metrics(grid)], grid.integral().hex())")
    src = os.path.dirname(os.path.dirname(sqvac.__file__))
    outputs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env=dict(os.environ, PYTHONPATH=src,
                                                   OPENBLAS_NUM_THREADS=threads)).stdout
               for threads in ("1", "2")]
    assert outputs[0] == outputs[1] and outputs[0].count("\n") == 2


# ------------------------------------------------------- outcome integrals

def _simpson_integrals(grid):
    added, subtracted = full_array_outcomes(grid)
    return grid.with_values(added).integral(), grid.with_values(subtracted).integral()


@settings(max_examples=25, deadline=None)
@given(n=st.integers(16, 150).map(lambda k: 2 * k + 1),
       sx=st.floats(1.5, 3.0), sp=st.floats(0.7, 1.2), theta=st.floats(0.0, math.pi))
def test_outcome_integrals_match_full_array_oracle(n, sx, sp, theta):
    grid = grid_of(GaussianWignerSpec.single(sx, sp, theta), n)
    ia, isub = outcome_integrals(grid)
    want_a, want_s = _simpson_integrals(grid)
    assert _rel(ia, want_a) < 1e-12
    assert _rel(isub, want_s) < 1e-12


def test_outcome_integrals_of_transformed_coherent_state():
    # off-axis amplitude: <a a^dag> = 1 + |alpha|^2 and <a^dag a> = |alpha|^2
    alpha = 0.8 + 0.6j
    grid = state_grid(coherent_state(alpha, 40))
    ia, isub = outcome_integrals(grid)
    want_a, want_s = _simpson_integrals(grid)
    assert _rel(ia, want_a) < 1e-12
    assert _rel(isub, want_s) < 1e-12
    assert ia == pytest.approx(2.0, abs=1e-6)
    assert isub == pytest.approx(1.0, abs=1e-6)


def test_strided_values_give_bitwise_results():
    # io.load_grid builds its grid from a column view of the parsed table
    grid = state_grid(SKEW)
    table = np.zeros((grid.points ** 2, 3))
    table[:, 2] = grid.values.ravel()
    view = table[:, 2].reshape(grid.values.shape)
    assert not view.flags.c_contiguous
    strided = WignerGrid(grid.geometry, view)
    assert strided.values.flags.c_contiguous
    assert outcome_integrals(strided) == outcome_integrals(grid)
    assert identity_residual(strided) == identity_residual(grid)


def test_outcome_integrals_allocate_no_grid():
    grid = rasterize(PURE2, GridGeometry(12.0, 1025))
    tracemalloc.start()
    try:
        outcome_integrals(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # only axis-length vectors: r = W wp, c = wx W and their stencils
    assert peak < 0.05 * grid.values.nbytes
