"""Grid layer: geometry policies, transform, differencing, residuals."""

import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    SampledSpec,
    SqvacError,
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
    quadrature_moments,
    rasterize,
    refined_geometry,
    renormalize,
    squeezed_vacuum,
    state_grid,
    wigner_from_density,
    wigner_value,
)
from sqvac import phasespace
from sqvac.phasespace import (_BLOCK_ROWS, _MAX_WORKERS, BOUNDARY_DECAY,
                              _even, _odd, _row_blocks, _simpson,
                              _worker_count)

PURE2 = GaussianWignerSpec.pure_state(2.0)
IMPURE = GaussianWignerSpec.single(4.0, 0.5)
# rotated and impure: no symmetry of W hides a transposed or shifted row
SKEW = GaussianWignerSpec.single(2.0, 0.7, theta=0.4)


def axes(grid):
    """x as a column and p as a row, both on the grid geometry's one axis."""
    axis = grid.geometry.axis()
    return axis[:, None], axis[None, :]


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
    assert state_grid(FockVector(np.eye(8)[0])).geometry == GridGeometry(6.0, 257)
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


def test_grid_refuses_non_finite_values():
    # a nan on the boundary of a decayed grid: the outcomes would carry it
    # into 9 of their values, past the boundary refusal
    grid = state_grid(PURE2)
    values = grid.values.copy()
    values[0, 5] = np.nan
    with pytest.raises(ConfigurationError, match="non-finite"):
        WignerGrid(grid.geometry, values)
    for bad in (np.inf, -np.inf):
        with pytest.raises(ConfigurationError, match="non-finite"):
            WignerGrid(GridGeometry(1.0, 33), np.full((33, 33), bad))


def test_grid_values_are_read_only():
    grid = state_grid(PURE2)
    with pytest.raises(ValueError, match="read-only"):
        grid.values[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        grid.values *= 2.0


def test_grid_keeps_its_first_pass(monkeypatch):
    calls = []
    scan = phasespace._scan
    monkeypatch.setattr(phasespace, "_scan", lambda source: calls.append(source) or scan(source))
    grid = state_grid(PURE2)
    chk = identity_residual(grid)
    assert len(calls) == 1
    assert identity_residual(grid) == chk
    assert outcome_integrals(grid) == (chk.added_integral, chk.subtracted_integral)
    photon_outcomes(grid)
    assert calls == [grid]


def test_grid_axis_and_weights_come_from_the_geometry():
    geometry = GridGeometry(1.7, 35)
    grid = WignerGrid(geometry, np.ones((35, 35)))
    # the geometry is the grid's one layout: it keeps no axis, step or count of its own
    assert grid.geometry is geometry
    assert not any(hasattr(grid, name) for name in ("xs", "ps", "step", "points", "with_values"))
    w = geometry.weights()
    assert np.array_equal(w[:4] / (geometry.step / 3.0), [1.0, 4.0, 2.0, 4.0])
    assert w[-1] == w[0] and w.sum() == pytest.approx(3.4, rel=1e-14)


def test_grid_integral_of_constant():
    grid = WignerGrid(GridGeometry(1.0, 33), np.ones((33, 33)))
    assert grid.integral() == pytest.approx(4.0, rel=1e-14)


def test_grid_integrals_refuse_overflow():
    # 1e306 over a 24 x 24 square: every integral overflows, and is refused
    # rather than renormalized into zeros or reported as an infinite purity
    grid = WignerGrid(GridGeometry(12.0, 257), np.full((257, 257), 1e306))
    for refused in (WignerGrid.integral, renormalize, grid_metrics):
        with pytest.raises(GeometryError, match="a grid integral is not finite"):
            refused(grid)
    with pytest.raises(GeometryError, match="a grid integral is not finite"):
        _simpson(np.full((3, 3), 1e308), np.ones(3), np.ones(3))


def test_boundary_max_scans_all_edges():
    vals = np.zeros((33, 33))
    vals[7, -1] = 0.25
    grid = WignerGrid(GridGeometry(1.0, 33), vals)
    assert grid._kept_pass.boundary == 0.25
    # 1025 points: the first pass reads 17 row blocks, and each edge value
    # must reach the one boundary maximum from its own block
    n = 1025
    middle = n // 2
    for k, (i, j) in enumerate([(0, middle), (n - 1, middle), (middle, 0), (middle, n - 1)]):
        vals = np.zeros((n, n))
        vals[i, j] = value = 0.25 * (k + 1)
        grid = WignerGrid(GridGeometry(1.0, n), vals)
        assert grid._kept_pass.boundary == value
        with pytest.raises(GeometryError) as info:
            outcome_integrals(grid)
        assert f"boundary values reach {value:.3e} >" in str(info.value)


# ---------------------------------------------------------------- rasterize

def test_rasterize_orientation():
    # values[i, j] must be W(x_i, p_j) -- checked off-axis on a rotated,
    # anisotropic state where a transpose would be loud
    spec = GaussianWignerSpec.single(4.0, 0.5, theta=0.4)
    grid = state_grid(spec)
    axis = grid.geometry.axis()
    for i, j in [(40, 300), (128, 60), (200, 256)]:
        assert grid.values[i, j] == pytest.approx(
            float(wigner_value(spec, axis[i], axis[j])), rel=1e-13
        )


def test_rasterize_rejects_unknown_spec():
    with pytest.raises(ConfigurationError):
        rasterize(3.0, GridGeometry(6.0, 33))
    with pytest.raises(ConfigurationError):
        state_grid(3.0)


def test_rasterize_default_geometry_normalized():
    grid = state_grid(PURE2)
    m = grid.geometry.points // 2
    assert grid.integral() == pytest.approx(1.0, abs=1e-9)
    assert grid_metrics(grid) == pytest.approx(1.0, abs=1e-8)
    assert grid.values[m, m] == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_blocked_purity_is_the_whole_grid_sum():
    # 1025 rows are 16 raster blocks of 63 and one of 17; squaring block by
    # block leaves every row's einsum sum, so the purity keeps its bits
    grid = rasterize(AngularAverageSpec(2.2), GridGeometry(13.2, 1025))
    w = grid.geometry.weights()
    assert phasespace._raster_rows(1025) == 63
    assert grid_metrics(grid) == 2.0 * math.pi * _simpson(grid.values * grid.values, w, w)


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
    vec = FockVector(np.eye(8)[1])
    grid = state_grid(vec)
    x, p = axes(grid)
    s = x ** 2 + p ** 2
    closed = (2.0 * s - 1.0) * np.exp(-s) / math.pi
    assert np.max(np.abs(grid.values - closed)) < 1e-8

    # Number states, an unnormalized random complex vector with coherences
    # at every level and, last, a superposition whose W is not even in p, so
    # a swapped x +- y/2 gather would mirror it.
    rng = np.random.default_rng(7)
    states = [FockVector(np.eye(8)[n]) for n in (0, 1, 2, 5)] + [
        FockVector(rng.normal(size=8) + 1j * rng.normal(size=8)),
        FockVector(np.array([1.0, 1j, 0, 0, 0, 0, 0, 0]) / math.sqrt(2.0)),
    ]
    for state in states:
        psi = state.normalized().amps
        grid = state_grid(state)
        oracle = laguerre_wigner(np.outer(psi, psi.conj()), *axes(grid))
        assert np.max(np.abs(grid.values - oracle)) < 1e-10
    assert np.max(np.abs(oracle - oracle[:, ::-1])) > 0.1


def test_transform_squeezed_matches_closed_form():
    z = -math.log(2.0)  # sigma_x = 2
    grid = state_grid(squeezed_vacuum(z, 68))
    closed = wigner_value(PURE2, *axes(grid))
    assert np.max(np.abs(grid.values - closed)) < 1e-7

    # z = 1: the default grid's p edge is clean (alternating y weights would
    # put a ghost at p +- pi/dx) and, on a grid fine enough for the
    # stencils, the identity holds.
    state = squeezed_vacuum(1.0)
    grid = state_grid(state)
    assert grid._kept_pass.boundary <= BOUNDARY_DECAY
    fine = state_grid(state, points=769)
    assert identity_residual(fine).residual < 1e-4


def test_transform_rotated_squeezed_matches_rotated_spec():
    # amplitudes times e^{+i n theta} rotate W the way a spec's theta does:
    # this pins the number-basis and grid angle conventions to each other
    z, theta = math.log(2.0), 0.3
    vac = squeezed_vacuum(z, 68)
    rotated = FockVector(vac.amps * np.exp(1j * theta * np.arange(68)))
    spec = GaussianWignerSpec.pure_state(math.exp(-z), theta)
    geometry = GridGeometry(policy_extent(spec.widths()[1]), 257)
    grid = wigner_from_density(rotated, geometry)
    assert np.max(np.abs(grid.values - rasterize(spec, geometry).values)) < 1e-8


def test_transform_coherent_is_shifted_vacuum():
    grid = state_grid(coherent_state(1.0, 40))
    x, p = axes(grid)
    closed = np.exp(-((x - math.sqrt(2.0)) ** 2) - p ** 2) / math.pi
    assert np.max(np.abs(grid.values - closed)) < 1e-7


def test_transform_undersized_grid_refused():
    # sigma_x = 2 on a grid of extent 6: the transform makes the grid, and
    # differencing refuses it by its boundary values, as for rasterized grids
    grid = wigner_from_density(squeezed_vacuum(-math.log(2.0), 68), GridGeometry(6.0, 257))
    assert grid._kept_pass.boundary == pytest.approx(3.9e-5, rel=0.05)
    for refused in (photon_outcomes, outcome_integrals, identity_residual):
        with pytest.raises(GeometryError, match="boundary values"):
            refused(grid)


def test_transform_rejects_unknown_input():
    with pytest.raises(ConfigurationError):
        wigner_from_density(np.zeros((4, 4)), GridGeometry(6.0, 33))


# amplitude parts across the whole float range: zero, 1e-150..1e150 of either
# sign, and values whose squares underflow
_PART = st.tuples(
    st.one_of(st.just(0.0), st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e),
              st.sampled_from([5e-324, 1e-310, 1e-200])),
    st.sampled_from([1.0, -1.0]),
).map(lambda t: t[0] * t[1])


@settings(max_examples=100, deadline=None)
@given(amps=st.lists(st.builds(complex, _PART, _PART), min_size=2, max_size=40),
       points=st.sampled_from([None, 33, 65, 129]))
def test_number_basis_state_is_finite_or_refused(amps, points):
    # a SqvacError, or finite moments and a finite grid; any other exception,
    # and any numpy warning, fails
    state = FockVector(np.array(amps))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            moments = quadrature_moments(state)
        except SqvacError:
            return
        assert np.all(np.isfinite(moments))
        try:
            grid = state_grid(state, points)
        except SqvacError:
            return
    assert np.all(np.isfinite(grid.values))


# held grids: values of every magnitude, from subnormal to the largest float,
# of random sign, on a zero boundary; extents up to where x^2 + p^2 overflows
_HELD_SCALES = st.sampled_from([0.0, 1e-310, 1.0, 1e150, 1e300, 1.7e308])


@st.composite
def _held_grids(draw):
    n = draw(st.sampled_from([33, 65]))
    extent = draw(st.one_of(st.sampled_from([0.016, 6.0]),
                            st.floats(-160.0, 160.0).map(lambda e: 10.0 ** e)))
    scales = draw(st.lists(_HELD_SCALES, min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    inner = (n - 2, n - 2)
    values = np.zeros((n, n))
    values[1:-1, 1:-1] = (rng.choice(scales, inner) * rng.choice([-1.0, 1.0], inner)
                          * rng.random(inner))
    return WignerGrid(GridGeometry(extent, n), values)


def _centre_spike(extent, n, value):
    values = np.zeros((n, n))
    values[n // 2, n // 2] = value
    return WignerGrid(GridGeometry(extent, n), values)


@settings(max_examples=200, deadline=None)
@given(grid=_held_grids())
# one large node on a fine step: only the stencils overflow, not W
@example(grid=_centre_spike(0.016, 33, 1e303))
# a step near 1e-154: A at the origin is finite, A / integral(A) is not
@example(grid=_centre_spike(1.2e-153, 33, 1e-4))
# an integral of 4e-5 under a node of 1e306: renormalizing overflows
@example(grid=_centre_spike(1.6e-154, 33, 1e306))
# a finite integral of W^2 whose purity, 2 pi times it, overflows
@example(grid=WignerGrid(GridGeometry(1.0, 33), np.pad(np.full((31, 31), 5e153), 1)))
def test_held_grid_is_finite_or_refused(grid):
    # every grid command returns finite values or raises a SqvacError; any
    # other exception, and any numpy warning, fails
    def finite_or_refused(fn):
        try:
            values = fn()
        except SqvacError:
            return
        assert np.all(np.isfinite(values)), values

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        finite_or_refused(lambda: [outcome.values for outcome in photon_outcomes(grid)])
        finite_or_refused(lambda: outcome_integrals(grid))
        finite_or_refused(lambda: tuple(identity_residual(grid)))
        finite_or_refused(lambda: renormalize(grid).values)
        finite_or_refused(lambda: grid_metrics(grid))


def _smooth_bump(amplitude, points, width):
    k = np.arange(points) - points // 2
    values = amplitude * np.outer(np.exp(-(k / width) ** 2), np.exp(-(k / width) ** 2))
    values[np.abs(values) < 1e-13] = 0.0
    return values


@pytest.mark.parametrize("grid", [
    # W near the float range on a unit step: adding the two axes' unscaled
    # stencils before scaling them overflows at the spike (60 W)
    _centre_spike(16.0, 33, 4e306),
    # smooth W on a step of 1e-149: folding -60 W / (96 h^2) into the radial
    # coefficient scales W past the float range before it cancels
    WignerGrid(GridGeometry(64e-149, 129), _smooth_bump(3e10, 129, 8.0)),
], ids=["spike-4e306", "bump-on-fine-step"])
def test_outcomes_stay_finite_where_the_derivatives_are(grid):
    # separately scaled 4th-order derivatives keep these outcomes finite, so
    # the even and odd parts must too
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        added, subtracted = photon_outcomes(grid)
        integrals = outcome_integrals(grid)
    assert np.isfinite(added.values).all() and np.isfinite(subtracted.values).all()
    assert np.isfinite(integrals).all()


# ----------------------------------------------------------- photon outcomes

def test_outcomes_need_decayed_boundary():
    # the second grid's boundary lies between BOUNDARY_DECAY and 1e-6
    near = rasterize(PURE2, GridGeometry(8.85, 257))
    assert near._kept_pass.boundary == pytest.approx(9.98e-10, rel=1e-3)
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
    fp, fm = outcome_factors(PURE2.components[0], *axes(grid))
    assert np.max(np.abs(wp.values - fp * grid.values)) < 5e-5
    assert np.max(np.abs(wm.values - fm * grid.values)) < 5e-5


def test_identity_residual_pure_state():
    chk = identity_residual(rasterize(PURE2, refined_geometry(PURE2)))
    assert chk.residual < 1e-4
    assert chk.ratio_used == pytest.approx(25.0 / 9.0, abs=1e-3)
    assert chk.added_integral == pytest.approx(1.5625, abs=1e-6)
    assert chk.subtracted_integral == pytest.approx(0.5625, abs=1e-6)


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


def test_renormalize_zero_grid_degenerate():
    grid = WignerGrid(GridGeometry(1.0, 33), np.zeros((33, 33)))
    with pytest.raises(DegenerateInputError):
        renormalize(grid)


def test_vanishing_added_outcome_degenerate(zero_added_grid):
    # integral(S) is 0.5625, so only the added integral's refusal stops the
    # norm ratio R = 2.9e-15 and an origin value of 1.5e11
    with pytest.raises(DegenerateInputError, match="the added integral"):
        identity_residual(zero_added_grid)
    zero = WignerGrid(GridGeometry(1.0, 33), np.zeros((33, 33)))
    with pytest.raises(DegenerateInputError, match="integral \\|A\\|"):
        l1_relative_residual(zero, 1.0)


@pytest.mark.parametrize("refused,quantity,vacuum", [
    (renormalize, "grid integral", False),
    (lambda zero: outcome_norm_ratio(1.0, zero.integral()), "subtracted integral", True),
    # integral(A) = <n> + 1 >= 1 and integral |A| >= integral(A): no state,
    # the vacuum included, makes either vanish
    (lambda zero: outcome_norm_ratio(zero.integral(), 1.0), "added integral", False),
    (lambda zero: l1_relative_residual(zero, 1.0), "integral |A|", False),
], ids=["renormalize", "norm-ratio", "norm-ratio-added", "l1-residual"])
def test_vanishing_integral_messages_name_quantity_and_exclusion(refused, quantity, vacuum):
    zero = WignerGrid(GridGeometry(1.0, 33), np.zeros((33, 33)))
    # integral W = 1e-8: under DEGENERATE_INTEGRAL, yet no round-off zero
    pure = state_grid(PURE2)
    tiny = WignerGrid(pure.geometry, pure.values * 1e-8)
    for grid in (zero, tiny):
        with pytest.raises(DegenerateInputError) as info:
            refused(grid)
        assert quantity in str(info.value)
        # only the subtracted integral names the vacuum as the cause
        assert ("sigma_x = 1" in str(info.value)) == vacuum
        assert ("vacuum" in str(info.value)) == vacuum


def test_doubling_resolution_shrinks_residual():
    coarse = identity_residual(rasterize(PURE2, GridGeometry(12.0, 769)))
    fine = identity_residual(rasterize(PURE2, GridGeometry(12.0, 1537)))
    assert coarse.residual / fine.residual > 8.0


# ------------------------------------------------------------ stencils

# ids: the derivative each part forms, odd the first and even the second
@pytest.mark.parametrize("stencil", [_odd, _even], ids=["_d1", "_d2"])
@pytest.mark.parametrize("n", [5, 6, 7, 41])  # 5: the fewest that give an output
def test_stencils_on_vectors_match_columns(stencil, n):
    f = np.exp(np.sin(0.3 * np.arange(n)))
    assert stencil(f, 0).shape == (n - 4,)
    assert np.array_equal(stencil(f, 0), stencil(f[:, None], 0)[:, 0])
    assert np.array_equal(stencil(f, 0), stencil(f[None, :], 1)[0])


@pytest.mark.parametrize("degree", range(5))
def test_central_stencils_are_exact_on_quartics(degree):
    # the 4th-order central stencils differentiate polynomials of degree <= 4
    # exactly: odd / (12 h) and (even - 30 f) / (12 h^2); the input carries 2
    # extra points on each side of the outputs
    h = 0.25
    x = h * np.arange(-2, 43)
    poly = np.polynomial.Polynomial(np.arange(1.0, degree + 2.0))
    inner = x[2:-2]
    scale = np.max(np.abs(poly(x)))
    assert np.allclose(_odd(poly(x), 0) / (12.0 * h), poly.deriv(1)(inner), rtol=0,
                       atol=1e-12 * scale / h)
    assert np.allclose((_even(poly(x), 0) - 30.0 * poly(inner)) / (12.0 * h * h),
                       poly.deriv(2)(inner), rtol=0, atol=1e-12 * scale / h ** 2)


# ------------------------------------------------------------ row blocks

def full_array_outcomes(grid):
    """The tiles' assembly from the even and odd stencil parts, over the
    whole grid at once, on W padded with two zeros on each side (zero
    extension): the oracle the blocked outcomes must reproduce bit for bit."""
    W, xs, ps = grid.values, grid.geometry.axis(), grid.geometry.axis()
    h = grid.geometry.step
    F = np.pad(W, 2)
    scale, half_slope = 1.0 / (96.0 * h * h), 1.0 / (24.0 * h)
    radial = (0.5 * xs * xs)[:, None] + (0.5 * (ps * ps - 1.0))[None, :]
    even = ((_even(F[:, 2:-2], 0) - 30.0 * W) * scale + (_even(F[2:-2], 1) - 30.0 * W) * scale
            + radial * W)
    odd = (_odd(F[:, 2:-2], 0) * (half_slope * xs)[:, None]
           + _odd(F[2:-2], 1) * (half_slope * ps)[None, :])
    return even - odd, even + odd + W


@pytest.mark.parametrize("make", [
    lambda: state_grid(SKEW),
    lambda: state_grid(coherent_state(0.8 + 0.6j, 40)),  # transformed, off-axis
], ids=["skew", "coherent"])
def test_outcomes_match_the_derivative_stencils(make):
    # the module docstring's A and S on separately scaled 4th-order first and
    # second derivatives: the even and odd parts change only the rounding
    grid = make()
    W, h = grid.values, grid.geometry.step
    x, p = axes(grid)
    F = np.pad(W, 2)

    def d1(G):
        return (8.0 * (G[3:-1] - G[1:-3]) + G[:-4] - G[4:]) / (12.0 * h)

    def d2(G):
        return (16.0 * (G[3:-1] + G[1:-3]) - G[:-4] - G[4:] - 30.0 * G[2:-2]) / (12.0 * h * h)

    wx, wxx = d1(F[:, 2:-2]), d2(F[:, 2:-2])
    wp, wpp = d1(F[2:-2].T).T, d2(F[2:-2].T).T
    laplacian, drift = (wxx + wpp) / 8.0, (x * wx + p * wp) / 2.0
    want_added = (x * x + p * p - 1.0) / 2.0 * W - drift + laplacian
    want_subtracted = (x * x + p * p + 1.0) / 2.0 * W + drift + laplacian
    added, subtracted = photon_outcomes(grid)
    tol = 1e-14 * np.max(np.abs(want_added))
    assert np.max(np.abs(added.values - want_added)) <= tol
    assert np.max(np.abs(subtracted.values - want_subtracted)) <= tol


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
    added, subtracted = WignerGrid(grid.geometry, added), WignerGrid(grid.geometry, subtracted)
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


# -------------------------------------------------------- row-block passes

def _serial_residual(grid, ratio):
    """The in-order serial L1 pass over whole rows of the full-array outcomes:
    the oracle of the blocked pass, which skips the columns where W is zero."""
    added, subtracted = full_array_outcomes(grid)
    w = grid.geometry.weights()
    num = den = 0.0
    for i0, i1 in _row_blocks(grid.geometry.points):
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
    # several blocks in every pass: 5 in rasterize, 9 in the outcome passes
    geometry = GridGeometry(policy_extent(SKEW.widths()[1]), 513)
    axis = geometry.axis()
    grid = rasterize(SKEW, geometry)
    added, subtracted = photon_outcomes(grid)
    chk = identity_residual(grid)
    assert identity_residual(SampledSpec(SKEW, geometry)) == chk
    # the first pass adds its blocks' column sums in block order; a lost or
    # reordered addition changes c
    w, c = geometry.weights(), np.zeros(geometry.points)
    for i0, i1 in _row_blocks(geometry.points, phasespace._raster_rows(geometry.points)):
        c += np.einsum("i,ij->j", w[i0:i1], grid.values[i0:i1])
    assert np.array_equal(grid._kept_pass.c, c)
    assert np.array_equal(grid.values, wigner_value(SKEW, axis[:, None], axis[None, :]))
    want_added, want_subtracted = full_array_outcomes(grid)
    assert np.array_equal(added.values, want_added)
    assert np.array_equal(subtracted.values, want_subtracted)
    assert _rel(chk.residual, _serial_residual(grid, chk.ratio_used)) < 1e-15

    # the same passes on a _fork_map pool of `workers` processes, as verify
    # --suite all runs them: every worker gives the bits of the calling process
    def passes(_):
        held = rasterize(SKEW, geometry)
        return (held.values, *(o.values for o in photon_outcomes(held)),
                identity_residual(held), identity_residual(SampledSpec(SKEW, geometry)))

    _set_workers(monkeypatch, workers)
    for values, a, s, held_chk, streamed_chk in phasespace._fork_map(passes, range(workers)):
        assert np.array_equal(values, grid.values)
        assert np.array_equal(a, added.values)
        assert np.array_equal(s, subtracted.values)
        assert held_chk == streamed_chk == chk


def test_nested_fork_map_runs_inline_in_its_worker(monkeypatch):
    # one layer of parallelism: a _fork_map call made in a worker forks no
    # second pool, so its results come from the worker's own pid
    parent = os.getpid()

    def outer(_):
        inner = list(phasespace._fork_map(lambda _: os.getpid(), range(3)))
        return os.getpid(), inner, multiprocessing.active_children()

    _set_workers(monkeypatch, 2)
    for pid, inner, children in phasespace._fork_map(outer, range(2)):
        assert pid != parent
        assert inner == [pid] * 3
        assert children == []
    assert multiprocessing.active_children() == []


def support_grid(n, rows, cols):
    """n x n grid: random values on rows x cols, exact zeros elsewhere."""
    values = np.zeros((n, n))
    values[rows, cols] = 0.5 + np.random.default_rng(7).random(values[rows, cols].shape)
    return WignerGrid(GridGeometry(6.0, n), values)


CLIPPED_CASES = {
    # the squeezed axis of W underflows to 0.0 over most of the grid
    "sx4-th0": lambda: state_grid(GaussianWignerSpec.pure_state(4.0)),
    "sx4-th0.7854": lambda: state_grid(GaussianWignerSpec.pure_state(4.0, math.pi / 4)),
    # support 1-6 columns (rows) from both edges: up to 3 the tiles' stencils
    # read the zeros past the grid, from 4 on they stay inside it
    **{f"cols-from-edge-{k}": (lambda k=k: support_grid(129, slice(20, 109), slice(k, 129 - k)))
       for k in (1, 2, 3, 4, 5, 6)},
    **{f"rows-from-edge-{k}": (lambda k=k: support_grid(129, slice(k, 129 - k), slice(20, 109)))
       for k in (1, 2, 3, 4, 5, 6)},
    # blocks 2-4 read only zeros; block 1 reads its last nonzero row, 62,
    # through its halo alone
    "zero-row-blocks": lambda: support_grid(4 * _BLOCK_ROWS + 1, slice(20, 63), slice(40, 90)),
}


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("case", CLIPPED_CASES)
def test_clipped_tiles_match_whole_grid_oracle(monkeypatch, case, workers):
    grid = CLIPPED_CASES[case]()
    assert np.mean(grid.values == 0.0) > 0.25

    # the tiled passes and the oracle as _fork_map tasks, as a figure worker
    # forms its outcomes: inline on one worker, on forked processes on more
    def outcomes(task):
        if task == "tiled":
            return tuple(o.values for o in photon_outcomes(grid))
        if task == "oracle":
            return full_array_outcomes(grid)
        return identity_residual(grid)

    _set_workers(monkeypatch, workers)
    (added, subtracted), (want_added, want_subtracted), chk = phasespace._fork_map(
        outcomes, ("tiled", "oracle", "residual"))
    # the sx4 grids hold subnormal outcomes, which must match too
    assert np.array_equal(added, want_added)
    assert np.array_equal(subtracted, want_subtracted)
    assert _rel(chk.residual, _serial_residual(grid, chk.ratio_used)) < 1e-15
    # a max needs no summing order: the skipped columns are exact zeros
    peak = np.max(np.abs(want_added - chk.ratio_used * want_subtracted))
    assert chk.max_gap == peak / abs(chk.added_integral)


@pytest.mark.parametrize("workers", [1, 4])
def test_identity_residual_is_the_l1_pass(monkeypatch, workers):
    grid = CLIPPED_CASES["sx4-th0.7854"]()
    serial = identity_residual(grid)

    def passes(_):
        chk = identity_residual(grid)
        return chk, l1_relative_residual(grid, chk.ratio_used)

    # the same passes on a _fork_map pool of `workers` processes
    _set_workers(monkeypatch, workers)
    for chk, (residual, peak) in phasespace._fork_map(passes, range(workers)):
        # one L1 pass: identity_residual reports l1_relative_residual's bits
        assert (residual, peak / abs(chk.added_integral)) == (chk.residual, chk.max_gap)
        # the largest gap, like the block-ordered sums, is the same in any process
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
            "    print(grid_metrics(grid).hex(), grid.integral().hex())")
    src = os.path.dirname(os.path.dirname(sqvac.__file__))
    outputs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env=dict(os.environ, PYTHONPATH=src,
                                                   OPENBLAS_NUM_THREADS=threads)).stdout
               for threads in ("1", "2")]
    assert outputs[0] == outputs[1] and outputs[0].count("\n") == 2


# ------------------------------------------------------- outcome integrals

def _simpson_integrals(grid):
    added, subtracted = full_array_outcomes(grid)
    return (WignerGrid(grid.geometry, added).integral(),
            WignerGrid(grid.geometry, subtracted).integral())


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
    table = np.zeros((grid.values.size, 3))
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


# ------------------------------------------------------ streamed spec source

def _spec_strategy():
    impure = st.builds(GaussianWignerSpec.single, st.floats(1.5, 3.0), st.floats(0.7, 1.2),
                       st.floats(0.0, math.pi))
    mixture = st.builds(lambda weight, th1, th2, sx:
                        GaussianWignerSpec.two_angle_mixture(weight, th1, th2, sx),
                        st.floats(0.1, 0.9), st.floats(0.0, math.pi),
                        st.floats(0.0, math.pi), st.floats(1.5, 3.0))
    return st.one_of(impure, mixture)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(16, 150).map(lambda k: 2 * k + 1), spec=_spec_strategy())
def test_sampled_spec_agrees_with_the_held_grid(n, spec):
    geometry = GridGeometry(policy_extent(spec.widths()[1]), n)
    held, sampled = (
        (outcome_integrals(source), identity_residual(source))
        for source in (rasterize(spec, geometry), SampledSpec(spec, geometry)))
    # one first pass for both sources: every result is equal, the residual
    # too, whose ratio reads the integrals
    assert held == sampled


def test_sampled_angular_average_agrees_with_the_held_grid():
    spec = AngularAverageSpec(2.2)
    geometry = GridGeometry(policy_extent(spec.widths()[1]), 129)
    assert identity_residual(SampledSpec(spec, geometry)) == \
        identity_residual(rasterize(spec, geometry))


def test_streamed_identity_check_holds_no_grid():
    geometry = refined_geometry(IMPURE)
    assert geometry.points == 1537
    w_bytes = 8 * geometry.points ** 2
    tracemalloc.start()
    try:
        identity_residual(SampledSpec(IMPURE, geometry))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a held W alone is w_bytes; the streamed check keeps axis-length vectors
    # and one set of tile-sized buffers
    assert peak < 0.25 * w_bytes


def test_streamed_check_refuses_as_the_held_one(monkeypatch):
    undecayed = GridGeometry(8.85, 257)  # PURE2's boundary reaches 9.98e-10
    vacuum = GaussianWignerSpec.pure_state(1.0)
    vacuum_geometry = state_grid(vacuum).geometry
    with pytest.raises(GeometryError, match="boundary values") as boundary:
        identity_residual(rasterize(PURE2, undecayed))
    with pytest.raises(DegenerateInputError, match="sigma_x = 1") as degenerate:
        identity_residual(rasterize(vacuum, vacuum_geometry))

    def no_tile(*args):
        raise AssertionError("an outcome tile was formed")

    monkeypatch.setattr(phasespace, "_outcome_tile", no_tile)
    for refused in (outcome_integrals, identity_residual,
                    lambda source: l1_relative_residual(source, 1.25)):
        with pytest.raises(GeometryError) as info:
            refused(SampledSpec(PURE2, undecayed))
        assert str(info.value) == str(boundary.value)
    with pytest.raises(DegenerateInputError) as info:
        identity_residual(SampledSpec(vacuum, vacuum_geometry))
    assert str(info.value) == str(degenerate.value)


def test_sampled_spec_rejects_unknown_input():
    with pytest.raises(ConfigurationError, match="SampledSpec cannot handle"):
        SampledSpec(coherent_state(1.0, 40), GridGeometry(6.0, 33))
