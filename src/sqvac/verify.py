"""Named verification suites and figure-data emission.

Each suite realizes a family of claims as machine-checkable cases and returns
a deterministic report: running a suite twice produces bit-identical output.
Every case is normalized to "pass iff measured <= bound"; checks that are
naturally lower bounds (a residual must EXCEED a floor on states expected to
fail the identity) store the negated value and the negated floor, and
error-expectation cases store 0.0 when the error was raised, 1.0 when not.

Every bound comes from one pinned table, ``_TOLERANCES``, and each suite
fixes its own grids and number-basis sizes: suites take no arguments, so
nothing a caller passes changes what a report checks. ``pure-identity``,
``impure-difference`` and ``mixtures`` check each spec as a ``SampledSpec``
on its refined geometry, so they hold no W grid at all: the identity check
samples W block by block where it reads it. ``angular-average`` holds its
W, since it reads the purity from that same grid, and ``commutator`` and
``negative-cases`` hold default-size grids. No suite holds a whole outcome
grid except to reuse one (``negative-cases``' second round);
``figure_data`` holds the outcome grids it writes.

Suites share no state, so ``sqvac verify --suite all`` runs them through
``phasespace._fork_map``, one suite per task on forked worker processes,
handed out in ``SUITE_NAMES`` order to whichever worker is free; its reports
are saved and printed in that order, and are the bytes an inline run gives.
On two workers the order keeps ``scipy.special`` (0.2 s and 29 MB in each
worker that imports it) to one: ``pure-identity``, the heaviest, goes to the
first; ``negative-cases`` (769^2 grids) to the second, which then runs the
only suites that import it, ``commutator`` and ``angular-average``, in turn.
``figure_data`` uses the same pool, one grid file per task, and
each worker writes its file with ``io.save_grid``, which then formats inline:
a pool never forks a second one.
"""

import math
import os

import numpy as np
from dataclasses import dataclass

from .errors import ConfigurationError, DegenerateInputError
from . import io as sqio
from .fock import (bogoliubov_annihilate, coherent_state, outcome_ratio,
                   squeezed_vacuum, suggested_truncation)
from .gaussian import (AngularAverageSpec, GaussianComponent, GaussianWignerSpec,
                       angular_average_purity, outcome_factors, spec_norm_ratio,
                       wigner_value)
from .phasespace import (SampledSpec, WignerGrid, _fork_map, grid_metrics, identity_residual,
                         outcome_integrals, photon_outcomes, rasterize, refined_geometry,
                         renormalize, state_grid)
from .special import elliptic_km1

_NEG_INV_PI = -1.0 / math.pi

# the bounds every suite checks against; no option or argument changes them
_TOLERANCES = {
    "annihilation": 1e-6, "coherent_floor": 0.1, "commutator": 1e-4, "elliptic_alt_floor": 1e-3,
    "factor_gap_floor": 0.1, "fock_ratio": 1e-6, "fock_residual": 1e-6, "maxdiff_floor": 0.01,
    "mixture_floor": 0.01, "origin": 1e-3, "pairing_floor": 0.1, "purity": 1e-4,
    "purity_drop": 1e-6, "ratio": 1e-3, "residual": 1e-4, "residual_floor": 0.05,
    "second_round_floor": 0.01, "vacuum_purity": 1e-10,
}


@dataclass
class CaseResult:
    label: str
    measured: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.bound

    def to_obj(self) -> dict:
        return {"label": self.label, "measured": self.measured,
                "bound": self.bound, "pass": self.passed}


@dataclass
class VerificationReport:
    suite: str
    cases: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def failures(self) -> list:
        return [c for c in self.cases if not c.passed]

    def to_obj(self) -> dict:
        return {"suite": self.suite, "cases": [c.to_obj() for c in self.cases]}


def _upper(label: str, measured: float, bound: float) -> CaseResult:
    return CaseResult(label, float(measured), float(bound))


def _floor(label: str, measured: float, floor: float) -> CaseResult:
    # lower-bound check, stored negated so pass <=> measured <= bound holds
    return CaseResult(label, -float(measured), -float(floor))


def _expect_degenerate(label: str, fn) -> CaseResult:
    try:
        fn()
    except DegenerateInputError:
        return CaseResult(label, 0.0, 0.0)
    return CaseResult(label, 1.0, 0.0)


def _streamed(spec) -> SampledSpec:
    return SampledSpec(spec, refined_geometry(spec))


def _outcome_checks(label: str, source, closed_ratio: float) -> list:
    """Shared positive-case body: residual, ratio against closed form, origin."""
    chk = identity_residual(source)
    return [
        _upper(f"{label}-residual", chk.residual, _TOLERANCES["residual"]),
        _upper(f"{label}-ratio-err", abs(chk.ratio_used - closed_ratio), _TOLERANCES["ratio"]),
        _upper(f"{label}-origin-err", abs(chk.added_origin - _NEG_INV_PI),
               _TOLERANCES["origin"]),
    ]


def _pure_specs():
    """(label, spec) for the eight pure states of pure-identity and commutator."""
    for sx in (0.5, 2.0, 2.2, 4.0):
        for th in (0.0, math.pi / 4.0):
            yield f"sx{sx:g}-th{th:.4g}", GaussianWignerSpec.pure_state(sx, th)


def _purity_table() -> tuple[np.ndarray, np.ndarray]:
    """sigma_x = 1 + 0.1 k for k < 41 and the angular average's closed purities."""
    sigmas = 1.0 + 0.1 * np.arange(41)
    return sigmas, np.array([angular_average_purity(AngularAverageSpec(s)) for s in sigmas])


def _suite_pure_identity() -> list:
    return [case for label, spec in _pure_specs()
            for case in _outcome_checks(label, _streamed(spec), spec_norm_ratio(spec))]


def _suite_impure_difference() -> list:
    sx, sp = 4.0, 0.5
    spec = GaussianWignerSpec.single(sx, sp)
    chk = identity_residual(_streamed(spec))
    f_plus, f_minus = outcome_factors(spec.components[0], 0.0, 0.0)
    return [
        _floor("impure-residual-floor", chk.residual, _TOLERANCES["residual_floor"]),
        _floor("impure-outcome-maxdiff-floor", chk.max_gap, _TOLERANCES["maxdiff_floor"]),
        _upper("impure-ratio-err", abs(chk.ratio_used - spec_norm_ratio(spec)),
               _TOLERANCES["ratio"]),
        _floor("impure-origin-factor-gap", abs(f_plus - f_minus), _TOLERANCES["factor_gap_floor"]),
    ]


def _suite_fock_ratio() -> list:
    cases = []
    for z in (0.1, math.log(2.0), 1.0):
        result = outcome_ratio(squeezed_vacuum(z, suggested_truncation(z)))
        cases.append(_upper(f"z{z:.4g}-ratio-err", abs(result.ratio + math.tanh(z)),
                            _TOLERANCES["fock_ratio"]))
        cases.append(_upper(f"z{z:.4g}-residual", result.residual, _TOLERANCES["fock_residual"]))
    return cases


def _commutator_inputs():
    yield from ((f"pure-{label}", spec) for label, spec in _pure_specs())
    yield "impure-sx4-sp0.5", GaussianWignerSpec.single(4.0, 0.5)
    yield "two-angle-mixture", GaussianWignerSpec.two_angle_mixture(0.5, 0.0, math.pi / 4.0, 2.2)
    yield "angular-average", AngularAverageSpec(2.2)
    yield "coherent-alpha1", coherent_state(1.0, 40)


def _suite_commutator() -> list:
    bound = _TOLERANCES["commutator"]
    cases = []
    for label, state in _commutator_inputs():
        added_integral, subtracted_integral = outcome_integrals(state_grid(state))
        gap = added_integral - subtracted_integral
        cases.append(_upper(f"{label}-weight-gap", abs(gap - 1.0), bound))
    return cases


def _suite_mixtures() -> list:
    sx = 2.2
    samples = ((0.5, 0.0, math.pi / 4.0), (0.3, 0.2, 1.0), (0.75, 1.2, 2.9))
    cases = []
    for weight, th1, th2 in samples:
        spec = GaussianWignerSpec.two_angle_mixture(weight, th1, th2, sx)
        label = f"two-angle-P{weight:g}-th{th1:g}-{th2:g}"
        cases += _outcome_checks(label, _streamed(spec), spec_norm_ratio(spec))
    unequal = GaussianWignerSpec((GaussianComponent.pure(0.0, 2.0, 0.5),
                                  GaussianComponent.pure(0.0, 3.0, 0.5)))
    chk = identity_residual(_streamed(unequal))
    cases.append(_floor("unequal-widths-residual-floor", chk.residual,
                        _TOLERANCES["mixture_floor"]))
    return cases


def _suite_angular_average() -> list:
    sx = 2.2
    spec = AngularAverageSpec(sx)
    grid = rasterize(spec, refined_geometry(spec))
    # rotation leaves both outcome weights alone: the pure state's closed ratio
    cases = _outcome_checks("angavg", grid,
                            spec_norm_ratio(GaussianWignerSpec.pure_state(sx)))

    grid_purity = grid_metrics(grid)
    closed = angular_average_purity(spec)
    cases.append(_upper("angavg-purity-grid-vs-closed", abs(grid_purity - closed),
                        _TOLERANCES["purity"]))
    # convention probe: evaluating K at modulus instead of parameter must NOT match
    s4 = sx ** 4
    m = ((1.0 - s4) / (1.0 + s4)) ** 2
    alt = 4.0 * sx ** 2 * elliptic_km1(1.0 - math.sqrt(m)) / (math.pi * (1.0 + s4))
    cases.append(_floor("elliptic-convention-alt-mismatch", abs(alt - grid_purity),
                        _TOLERANCES["elliptic_alt_floor"]))

    purities = _purity_table()[1]
    # each step of 0.1 in sigma_x must lower the purity by at least purity_drop
    cases.append(_upper("purity-strictly-decreasing", float(np.max(np.diff(purities))),
                        -_TOLERANCES["purity_drop"]))
    cases.append(_upper("purity-at-vacuum", abs(purities[0] - 1.0), _TOLERANCES["vacuum_purity"]))
    return cases


def _suite_bogoliubov() -> list:
    cases = []
    for z in (0.1, math.log(2.0), 1.0):
        state = squeezed_vacuum(-z, suggested_truncation(z))
        killed = bogoliubov_annihilate(z, state)
        cases.append(_upper(f"z{z:.4g}-annihilation", killed.norm() / state.norm(),
                            _TOLERANCES["annihilation"]))
    # sign probe: the same operator on the oppositely squeezed state must NOT vanish
    z = math.log(2.0)
    state = squeezed_vacuum(z, suggested_truncation(z))
    cases.append(_floor("opposite-pairing-probe",
                        bogoliubov_annihilate(z, state).norm() / state.norm(),
                        _TOLERANCES["pairing_floor"]))
    return cases


def _suite_negative_cases() -> list:
    cases = [
        _expect_degenerate(
            "vacuum-grid-degenerate-error",
            lambda: identity_residual(state_grid(GaussianWignerSpec.pure_state(1.0)))),
        _expect_degenerate(
            "vacuum-fock-degenerate-error",
            lambda: outcome_ratio(squeezed_vacuum(0.0, 33))),
    ]

    coherent_grid = state_grid(coherent_state(1.0, 40))
    cases.append(_floor("coherent-residual-floor",
                        identity_residual(coherent_grid).residual,
                        _TOLERANCES["coherent_floor"]))

    pure = GaussianWignerSpec.pure_state(2.0)
    grid = rasterize(pure, refined_geometry(pure))
    second = renormalize(photon_outcomes(grid)[0])
    cases.append(_floor("second-round-residual-floor",
                        identity_residual(second).residual,
                        _TOLERANCES["second_round_floor"]))
    return cases


_SUITES = {
    "pure-identity": _suite_pure_identity,
    "negative-cases": _suite_negative_cases,
    "commutator": _suite_commutator,
    "angular-average": _suite_angular_average,
    "mixtures": _suite_mixtures,
    "impure-difference": _suite_impure_difference,
    "fock-ratio": _suite_fock_ratio,
    "bogoliubov": _suite_bogoliubov,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str) -> VerificationReport:
    if name not in _SUITES:
        raise ConfigurationError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return VerificationReport(name, _SUITES[name]())


# --- figure data ---

def _save_table(path: str, headers, columns) -> str:
    lines = [f"# {h}" for h in headers]
    for row in zip(*columns):
        lines.append(",".join(f"{v:.17g}" for v in row))
    sqio.atomic_write(path, ("\n".join(lines) + "\n",))
    return path


def figure_data(which: str, out_dir: str, seed: int | None = None) -> list:
    """Emit the data files behind one of the three reference figures.

    fig1: impure input (sigma_x 4, sigma_p 1/2) -- renormalized added and
    subtracted outcome grids plus their pointwise difference.
    fig2: renormalized added outcomes of the two-angle mixture and of the
    angular average, both at sigma_x 2.2.
    fig3: radial log10 profile of the angular average and the closed-form
    purity table over sigma_x in [1, 5].

    Each fig1 and fig2 grid file is one ``phasespace._fork_map`` task, named
    by its file name, on forked worker processes: fig2's workers each build,
    transform and write their own grid, and fig1's write the three grids the
    caller formed once, which they inherit by fork. Only paths come back, in
    file order, and the files are the bytes an inline run writes.

    ``seed`` is only recorded in the output headers.
    """
    os.makedirs(out_dir, exist_ok=True)
    tail = [] if seed is None else [f"seed {seed}"]
    if which == "fig1":
        grid = state_grid(GaussianWignerSpec.single(4.0, 0.5))
        added, subtracted = photon_outcomes(grid)
        w_plus, w_minus = renormalize(added), renormalize(subtracted)
        diff = WignerGrid(grid.geometry, w_plus.values - w_minus.values)
        note = "input sigma_x=4 sigma_p=0.5; "
        # file name -> (the grid, made when asked for; its header comment)
        files = {"fig1_added.csv": (lambda: w_plus, note + "renormalized added outcome"),
                 "fig1_subtracted.csv": (lambda: w_minus,
                                         note + "renormalized subtracted outcome"),
                 "fig1_difference.csv": (lambda: diff, note + "added minus subtracted")}
    elif which == "fig2":
        def added_outcome(spec):
            return lambda: renormalize(photon_outcomes(rasterize(spec, refined_geometry(spec)))[0])

        mix = GaussianWignerSpec.two_angle_mixture(0.5, 0.0, math.pi / 4.0, 2.2)
        av = AngularAverageSpec(2.2)
        note = "; renormalized added outcome"
        files = {"fig2_two_angle_outcome.csv":
                 (added_outcome(mix), "two-angle mixture P=0.5 theta=0,pi/4 sigma_x=2.2" + note),
                 "fig2_angular_average_outcome.csv":
                 (added_outcome(av), "angular average sigma_x=2.2" + note)}
    elif which == "fig3":
        radii = 0.05 * np.arange(121)
        values = wigner_value(AngularAverageSpec(2.2), radii, 0.0)
        sigmas, purities = _purity_table()
        return [_save_table(os.path.join(out_dir, "fig3_radial_profile.csv"),
                            ["columns: radius,log10_wigner (sigma_x=2.2)"] + tail,
                            (radii, np.log10(values))),
                _save_table(os.path.join(out_dir, "fig3_purity.csv"),
                            ["columns: sigma_x,purity"] + tail, (sigmas, purities))]
    else:
        raise ConfigurationError(f"unknown figure {which!r}; choose fig1, fig2 or fig3")

    def write(name):
        make, comment = files[name]
        path = os.path.join(out_dir, name)
        sqio.save_grid(path, make(), [comment] + tail)
        return path

    return list(_fork_map(write, list(files)))
