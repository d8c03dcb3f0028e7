"""Acceptance gate: ten criteria, one test and one printed verdict line each.

Every bound here is pinned; loosening one to get a pass is not an option.
Lower-bound checks compare the raw (positive) quantity against its floor.
"""

import math
import time

import numpy as np
import pytest

from sqvac import (
    AngularAverageSpec,
    DegenerateInputError,
    GaussianComponent,
    GaussianWignerSpec,
    GridGeometry,
    angular_average_purity,
    annihilate,
    bogoliubov_annihilate,
    coherent_state,
    create,
    grid_metrics,
    identity_residual,
    outcome_factors,
    outcome_ratio,
    photon_outcomes,
    policy_extent,
    rasterize,
    refined_geometry,
    renormalize,
    squeeze_parameter,
    squeezed_vacuum,
    state_grid,
    suggested_truncation,
    wigner_value,
)

SIGMAS = (0.5, 2.0, 2.2, 4.0)
THETAS = (0.0, math.pi / 4.0)
ZS = (0.1, math.log(2.0), 1.0)
NEG_INV_PI = -1.0 / math.pi


def _verdict(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    extra = f" [{'; '.join(failures)}]" if failures else ""
    print(f"[criterion {num:02d}] {status} - {desc}{extra}")
    assert not failures, f"criterion {num}: {'; '.join(failures)}"


def test_c01_pure_identity_residuals():
    failures = []
    worst_res, worst_dt = 0.0, 0.0
    for sx in SIGMAS:
        closed = ((sx * sx + 1.0) / (sx * sx - 1.0)) ** 2
        for th in THETAS:
            spec = GaussianWignerSpec.pure_state(sx, th)
            t0 = time.perf_counter()
            chk = identity_residual(rasterize(spec, refined_geometry(spec)))
            dt = time.perf_counter() - t0
            worst_res = max(worst_res, chk.residual)
            worst_dt = max(worst_dt, dt)
            tag = f"sx={sx:g} th={th:.3g}"
            if chk.residual > 1e-4:
                failures.append(f"{tag}: residual {chk.residual:.3e} > 1e-4")
            if abs(chk.ratio_used - closed) > 1e-3:
                failures.append(f"{tag}: ratio off by "
                                f"{abs(chk.ratio_used - closed):.3e} > 1e-3")
            if dt >= 5.0:
                failures.append(f"{tag}: took {dt:.2f}s >= 5s")
    _verdict(1, f"pure-state identity, 8 cases (max residual {worst_res:.2e}, "
                f"max {worst_dt:.2f}s/case)", failures)


def test_c02_number_basis_ratio():
    failures = []
    for z in ZS:
        n = suggested_truncation(z)  # ceil(32 cosh 2z)
        res = outcome_ratio(squeezed_vacuum(z, n))
        err = abs(res.ratio - (-math.tanh(z)))
        if err > 1e-6:
            failures.append(f"z={z:.4g}: ratio err {err:.3e} > 1e-6")
        if res.residual > 1e-6:
            failures.append(f"z={z:.4g}: residual {res.residual:.3e} > 1e-6")
    _verdict(2, "ladder-route ratio equals -tanh z at N = 32 cosh 2z", failures)


def test_c03_transform_matches_closed_outcomes():
    failures = []
    psi = squeezed_vacuum(squeeze_parameter(2.0), 68)
    for name, vec, pick in (("raised", create(psi).normalized(), 0),
                            ("lowered", annihilate(psi).normalized(), 1)):
        grid = state_grid(vec)
        axis = grid.geometry.axis()
        x, p = axis[:, None], axis[None, :]
        w = wigner_value(GaussianWignerSpec.pure_state(2.0), x, p)
        closed = outcome_factors(GaussianComponent.pure(0.0, 2.0), x, p)[pick] * w
        sup = float(np.max(np.abs(grid.values - closed)))
        if sup > 1e-4:
            failures.append(f"{name}: sup deviation {sup:.3e} > 1e-4")
    _verdict(3, "transform of raised/lowered state matches closed outcome forms",
             failures)


def test_c04_impure_outcomes_differ():
    failures = []
    spec = GaussianWignerSpec.single(4.0, 0.5)
    grid = rasterize(spec, refined_geometry(spec))
    added, subtracted = photon_outcomes(grid)
    chk = identity_residual(grid)
    maxdiff = float(np.max(np.abs(renormalize(added).values
                                  - renormalize(subtracted).values)))
    if maxdiff <= 0.01:
        failures.append(f"max|W+ - W-| {maxdiff:.3e} <= 0.01")
    if chk.residual < 0.05:
        failures.append(f"residual {chk.residual:.3e} < 0.05")
    _verdict(4, f"impure input breaks the identity (maxdiff {maxdiff:.3f}, "
                f"residual {chk.residual:.3f})", failures)


def test_c05_mixture_and_angular_average_identity():
    failures = []
    inputs = (
        ("two-angle", GaussianWignerSpec.two_angle_mixture(
            0.5, 0.0, math.pi / 4.0, 2.2)),
        ("angular-average", AngularAverageSpec(2.2)),
    )
    for name, spec in inputs:
        grid = rasterize(spec, refined_geometry(spec))
        added, subtracted = photon_outcomes(grid)
        chk = identity_residual(grid)
        if chk.residual > 1e-4:
            failures.append(f"{name}: residual {chk.residual:.3e} > 1e-4")
        m = grid.geometry.points // 2
        origin = renormalize(added).values[m, m]
        if abs(origin - NEG_INV_PI) > 1e-3:
            failures.append(f"{name}: origin {origin:.6f} vs -1/pi off by "
                            f"{abs(origin - NEG_INV_PI):.3e} > 1e-3")
    _verdict(5, "equal-width mixture and angular average keep the identity, "
                "outcome origin -1/pi", failures)


def test_c06_purity_closed_vs_grid():
    failures = []
    sigmas = 1.0 + 0.1 * np.arange(41)
    closed = np.array([angular_average_purity(AngularAverageSpec(s)) for s in sigmas])
    worst = 0.0
    for s, c in zip(sigmas, closed):
        geometry = GridGeometry(policy_extent(s), 769)
        grid_purity = grid_metrics(rasterize(AngularAverageSpec(s), geometry))
        worst = max(worst, abs(grid_purity - c))
        if abs(grid_purity - c) > 1e-4:
            failures.append(f"sx={s:.1f}: |grid - closed| "
                            f"{abs(grid_purity - c):.3e} > 1e-4")
    if not np.all(np.diff(closed) < 0.0):
        failures.append("purity not strictly decreasing over [1, 5]")
    if abs(closed[0] - 1.0) > 1e-10:
        failures.append(f"purity at sx=1 off by {abs(closed[0] - 1.0):.3e} > 1e-10")
    _verdict(6, f"closed-form purity vs grid purity across 41 widths "
                f"(worst gap {worst:.2e})", failures)


def test_c07_weight_gap_commutator():
    failures = []
    grids = []
    for sx in SIGMAS:
        for th in THETAS:
            grids.append((f"pure-{sx:g}-{th:.3g}",
                          state_grid(GaussianWignerSpec.pure_state(sx, th))))
    grids.append(("impure", state_grid(GaussianWignerSpec.single(4.0, 0.5))))
    grids.append(("two-angle", state_grid(
        GaussianWignerSpec.two_angle_mixture(0.5, 0.0, math.pi / 4.0, 2.2))))
    grids.append(("angular-average", state_grid(AngularAverageSpec(2.2))))
    grids.append(("coherent", state_grid(coherent_state(1.0, 40))))
    assert len(grids) >= 10
    for name, grid in grids:
        added, subtracted = photon_outcomes(grid)
        gap = added.integral() - subtracted.integral()
        if abs(gap - 1.0) > 1e-4:
            failures.append(f"{name}: weight gap {gap:.6f} off by "
                            f"{abs(gap - 1.0):.3e} > 1e-4")
    _verdict(7, f"added minus subtracted weight equals one on {len(grids)} inputs",
             failures)


def test_c08_negative_controls():
    failures = []
    with pytest.raises(DegenerateInputError):
        identity_residual(state_grid(GaussianWignerSpec.pure_state(1.0)))
    with pytest.raises(DegenerateInputError):
        outcome_ratio(squeezed_vacuum(0.0, 33))

    coh = identity_residual(state_grid(coherent_state(1.0, 40))).residual
    if coh < 0.1:
        failures.append(f"coherent residual {coh:.3f} < 0.1")

    unequal = GaussianWignerSpec((GaussianComponent.pure(0.0, 2.0, 0.5),
                                  GaussianComponent.pure(0.0, 3.0, 0.5)))
    uneq = identity_residual(rasterize(unequal, refined_geometry(unequal))).residual
    if uneq < 0.01:
        failures.append(f"unequal-width residual {uneq:.3f} < 0.01")

    pure = GaussianWignerSpec.pure_state(2.0)
    once = renormalize(photon_outcomes(rasterize(pure, refined_geometry(pure)))[0])
    second = identity_residual(once).residual
    if second < 0.01:
        failures.append(f"second-round residual {second:.3f} < 0.01")
    _verdict(8, f"negative controls (coherent {coh:.2f}, unequal {uneq:.3f}, "
                f"second round {second:.2f}; vacuum raises)", failures)


def test_c09_bogoliubov_annihilation():
    failures = []
    for z in ZS:
        psi = squeezed_vacuum(-z, suggested_truncation(z) + 8)
        rel = bogoliubov_annihilate(z, psi).norm() / psi.norm()
        if rel > 1e-6:
            failures.append(f"z={z:.4g}: leftover norm {rel:.3e} > 1e-6")
    _verdict(9, "hyperbolic ladder mix annihilates its partner state", failures)


def test_c10_convergence_under_refinement():
    failures = []
    worst = math.inf
    for sx in SIGMAS:
        for th in THETAS:
            spec = GaussianWignerSpec.pure_state(sx, th)
            g = refined_geometry(spec)
            fine = GridGeometry(g.extent, 2 * (g.points - 1) + 1)
            coarse = identity_residual(rasterize(spec, g)).residual
            refined = identity_residual(rasterize(spec, fine)).residual
            factor = coarse / refined
            worst = min(worst, factor)
            if factor < 8.0:
                failures.append(f"sx={sx:g} th={th:.3g}: factor {factor:.2f} < 8")
    _verdict(10, f"doubling resolution cuts residuals (worst factor {worst:.1f}x)",
             failures)
