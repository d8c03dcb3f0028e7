"""Closed-form layer: Wigner evaluators, outcome factors, norm ratios.

Reference values are either textbook constants or integrals recomputed here
with scipy.integrate against an independent formula. The squeezed
wavefunction and the per-component outcome Wigner functions live here as
oracles.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sqvac import (
    AngularAverageSpec,
    ConfigurationError,
    DegenerateInputError,
    DomainError,
    GaussianComponent,
    GaussianWignerSpec,
    GridGeometry,
    SqvacError,
    angular_average_purity,
    outcome_factors,
    policy_extent,
    spec_norm_ratio,
    squeeze_parameter,
    squeezed_vacuum,
    wigner_value,
)
from sqvac import gaussian


def grid_2d(extent, n):
    xs = np.linspace(-extent, extent, n)
    return xs, xs[:, None], xs[None, :]


def integrate_2d(vals, xs):
    inner = scipy.integrate.simpson(vals, x=xs, axis=1)
    return scipy.integrate.simpson(inner, x=xs)


# ------------------------------------------------------------------ oracles

def squeezed_wavefunction(x, sigma_x):
    """Position wavefunction exp(-x^2 / (2 sigma_x^2)) / sqrt(sigma_x sqrt(pi))."""
    x = np.asarray(x, dtype=float)
    return np.exp(-x * x / (2.0 * sigma_x ** 2)) / np.sqrt(sigma_x * np.sqrt(np.pi))


def ladder_amplitudes(x, sigma_x, h=1e-4):
    """(a^dag psi, a psi)(x) = (x psi -+ psi') / sqrt(2), psi' by central difference."""
    d = (squeezed_wavefunction(x + h, sigma_x) - squeezed_wavefunction(x - h, sigma_x)) / (2 * h)
    psi = squeezed_wavefunction(x, sigma_x)
    return (x * psi - d) / np.sqrt(2.0), (x * psi + d) / np.sqrt(2.0)


def _unnormalized_outcome(c, x, p, sign):
    """Outcome weight times f times W for one component (sign +1 adds, -1
    subtracts), written without the D denominator of ``outcome_factors`` so a
    vacuum component contributes its exact zero."""
    sx2, sp2 = c.sigma_x ** 2, c.sigma_p ** 2
    s = float(sign)
    ct, st_ = math.cos(c.theta), math.sin(c.theta)
    xr, pr = x * ct + p * st_, p * ct - x * st_
    w = np.exp(-xr ** 2 / sx2 - pr ** 2 / sp2) / (np.pi * c.sigma_x * c.sigma_p)
    quad = (2.0 * pr ** 2 * (sp2 + s) ** 2 / sp2 ** 2
            - s * (sp2 * (2.0 * sx2 + s) + s * sx2) / (sp2 * sx2)
            + 2.0 * xr ** 2 * (sx2 + s) ** 2 / sx2 ** 2)
    return quad / 4.0 * w


def added_outcome_value(spec, x, p):
    """Renormalized Wigner function after adding one photon to the mixture."""
    num = sum(c.weight * _unnormalized_outcome(c, x, p, +1) for c in spec.components)
    return num / sum(c.weight * c.added_weight() for c in spec.components)


def subtracted_outcome_value(spec, x, p):
    """Renormalized Wigner function after subtracting one photon."""
    den = sum(c.weight * c.subtracted_weight() for c in spec.components)
    if den < 1e-12:
        raise DegenerateInputError("the state holds no photons to subtract")
    num = sum(c.weight * _unnormalized_outcome(c, x, p, -1) for c in spec.components)
    return num / den


def pure_norm_ratio(sx):
    """((sx^2+1)/(sx^2-1))^2, the square of the wavefunction ratio a^dag psi / a psi."""
    return ((sx * sx + 1.0) / (sx * sx - 1.0)) ** 2


# ------------------------------------------------------------ scalar ratios

def test_amplitude_ratio_values():
    # a^dag psi / a psi is the constant (sx^2+1)/(sx^2-1); the norm ratio is its square
    for sx, amp in ((2.0, 5.0 / 3.0), (0.5, -5.0 / 3.0)):
        added, subtracted = ladder_amplitudes(np.array([-1.3, 0.4, 2.1]), sx)
        assert np.allclose(added / subtracted, amp, rtol=1e-7)
        assert spec_norm_ratio(GaussianWignerSpec.pure_state(sx)) == pytest.approx(
            amp * amp, rel=1e-15)
    with pytest.raises(DomainError):
        GaussianWignerSpec.pure_state(-2.0)


def test_amplitude_ratio_unit_width_degenerate():
    # the vacuum: a psi vanishes, so the ratio diverges
    assert np.max(np.abs(ladder_amplitudes(np.linspace(-3, 3, 7), 1.0)[1])) < 1e-7
    with pytest.raises(DegenerateInputError, match="sigma_x = sigma_p = 1"):
        spec_norm_ratio(GaussianWignerSpec.pure_state(1.0))


def test_squeeze_parameter():
    assert squeeze_parameter(2.0) == pytest.approx(-math.log(2.0), rel=1e-15)
    with pytest.raises(DomainError):
        squeeze_parameter(-1.0)


@pytest.mark.parametrize("sx", [0.4, 0.8, 2.0, 3.5])
def test_squeeze_parameter_tanh_identity(sx):
    z = squeeze_parameter(sx)
    assert (1 - sx * sx) / (1 + sx * sx) == pytest.approx(math.tanh(z), rel=1e-14)


def test_wavefunction_normalized():
    for sx in (0.5, 2.0):
        total, _ = scipy.integrate.quad(
            lambda x: squeezed_wavefunction(x, sx) ** 2, -np.inf, np.inf
        )
        assert total == pytest.approx(1.0, rel=1e-12)
    assert squeezed_wavefunction(0.0, 2.0) == pytest.approx(
        (2.0 * math.sqrt(math.pi)) ** -0.5, rel=1e-14
    )
    # the position marginal of the pure-state Wigner function is |psi|^2
    spec = GaussianWignerSpec.pure_state(2.0)
    for x in (0.0, 0.7, 2.5):
        marginal, _ = scipy.integrate.quad(
            lambda p: float(wigner_value(spec, x, p)), -np.inf, np.inf
        )
        assert marginal == pytest.approx(squeezed_wavefunction(x, 2.0) ** 2, rel=1e-10)


# ---------------------------------------------------------------- specs

def test_component_validation():
    with pytest.raises(DomainError):
        GaussianComponent(0.0, 0.0, 2.0, 0.5)
    with pytest.raises(DomainError):
        GaussianComponent(1.0, 0.0, -2.0, 0.5)
    with pytest.raises(DomainError):
        GaussianComponent(1.0, 0.0, 0.5, 0.5)  # below the uncertainty floor
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            GaussianComponent(1.0, bad, 2.0, 0.5)
        with pytest.raises(DomainError):
            GaussianComponent(1.0, 0.0, bad, 0.5)
        with pytest.raises(DomainError):
            AngularAverageSpec(bad)


@pytest.mark.parametrize("sigma", [1e-300, 1e-160, 1e-78, 1e78, 1e100, 1e150])
def test_width_outside_float_range_refused(sigma):
    # sigma^4 or sigma^-4 leaves the finite nonzero floats
    with pytest.raises(DomainError, match="4th power"):
        GaussianComponent(1.0, 0.0, sigma, 1.0 / sigma)
    with pytest.raises(DomainError, match="4th power"):
        GaussianWignerSpec.single(sigma, 2.0)  # checked before the uncertainty floor
    with pytest.raises(DomainError, match="4th power"):
        AngularAverageSpec(sigma)


@pytest.mark.parametrize("sigma", [0.0, -0.0, -1.0])
def test_width_not_positive_refused_before_any_power(sigma):
    # the pure constructor inverts the width: 0 must not reach 1/sigma_x
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (GaussianWignerSpec.pure_state, lambda s: GaussianComponent.pure(0.0, s),
                      lambda s: GaussianWignerSpec.two_angle_mixture(0.5, 0.0, 1.0, s),
                      lambda s: GaussianWignerSpec.single(s, 2.0), AngularAverageSpec,
                      squeeze_parameter):
            with pytest.raises(DomainError, match="must be positive and finite"):
                build(sigma)


def test_wide_and_narrow_widths_accepted():
    for sigma in (1e-70, 1e-8, 50.0, 1e70):
        GaussianWignerSpec.pure_state(sigma)
        AngularAverageSpec(sigma)


def test_component_angle_is_pi_periodic():
    c = GaussianComponent(1.0, math.pi + 0.3, 2.0, 0.5)
    assert c.theta == pytest.approx(0.3, abs=1e-12)


def test_spec_weight_validation():
    with pytest.raises(ConfigurationError):
        GaussianWignerSpec(())
    with pytest.raises(DomainError):
        GaussianWignerSpec(
            (
                GaussianComponent.pure(0.0, 2.0, 0.6),
                GaussianComponent.pure(1.0, 2.0, 0.6),
            )
        )
    with pytest.raises(DomainError):
        GaussianWignerSpec.two_angle_mixture(1.2, 0.0, 1.0, 2.0)


def test_outcome_weight_gap_is_one():
    # added minus subtracted trace is one photon, exactly, per component
    for c in (
        GaussianComponent.pure(0.3, 2.0),
        GaussianComponent(1.0, 0.0, 4.0, 0.5),
    ):
        assert c.added_weight() - c.subtracted_weight() == pytest.approx(1.0, abs=1e-14)


def test_radial_coefficients_identities():
    # a + b = sigma^2 and a - b = sigma^-2 pin both coefficients
    for sx in (1.0, 1.5, 2.2, 5.0):
        a, b = AngularAverageSpec(sx).radial_coefficients()
        assert a + b == pytest.approx(sx * sx, rel=1e-14)
        assert a - b == pytest.approx(sx ** -2, rel=1e-14)


# ------------------------------------------------------------- wigner_value

def test_wigner_pure_reference_point():
    spec = GaussianWignerSpec.pure_state(2.0)
    assert wigner_value(spec, 0.0, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)
    expect = math.exp(-0.25 - 1.0) / math.pi  # x^2/sx^2 + p^2/sp^2 at (1, 0.5)
    assert wigner_value(spec, 1.0, 0.5) == pytest.approx(expect, rel=1e-13)


def test_wigner_rotation_covariance():
    th = 0.7
    spec0 = GaussianWignerSpec.pure_state(2.0)
    spec = GaussianWignerSpec.pure_state(2.0, theta=th)
    xs, x, p = grid_2d(3.0, 21)
    xr = x * math.cos(th) + p * math.sin(th)
    pr = p * math.cos(th) - x * math.sin(th)
    np.testing.assert_allclose(
        wigner_value(spec, x, p), wigner_value(spec0, xr, pr), rtol=1e-12, atol=1e-15
    )


def test_wigner_mixture_is_weighted_sum():
    mix = GaussianWignerSpec.two_angle_mixture(0.3, 0.0, 1.1, 2.2)
    xs, x, p = grid_2d(4.0, 31)
    parts = 0.3 * wigner_value(GaussianWignerSpec.pure_state(2.2), x, p) \
        + 0.7 * wigner_value(GaussianWignerSpec.pure_state(2.2, theta=1.1), x, p)
    np.testing.assert_allclose(wigner_value(mix, x, p), parts, rtol=1e-13, atol=1e-16)


def test_wigner_normalized():
    xs, x, p = grid_2d(24.0, 801)
    vals = wigner_value(GaussianWignerSpec.single(4.0, 0.5), x, p)
    assert integrate_2d(vals, xs) == pytest.approx(1.0, abs=1e-10)


def rotated_wigner_value(spec, x, p):
    """The two-rotation form that predates the quadratic form: each component
    evaluated on rotated copies x', p' of the inputs."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    out = np.zeros(np.broadcast(x, p).shape)
    for c in spec.components:
        ct, st = np.cos(c.theta), np.sin(c.theta)
        xr, pr = x * ct + p * st, p * ct - x * st
        out = out + c.weight * np.exp(-xr ** 2 / c.sigma_x ** 2 - pr ** 2 / c.sigma_p ** 2) \
            / (np.pi * c.sigma_x * c.sigma_p)
    return out


@pytest.mark.parametrize("theta", [0.0, math.pi / 4, 2.9])
@pytest.mark.parametrize("spec_of", [
    lambda th: GaussianWignerSpec.single(4.0, 0.5, th),
    lambda th: GaussianWignerSpec((GaussianComponent(0.3, th, 2.0, 0.7),
                                   GaussianComponent(0.7, th + 1.0, 0.5, 3.0))),
], ids=["impure", "two-component"])
def test_quadratic_form_matches_rotated_form(theta, spec_of):
    spec = spec_of(theta)
    xs = np.linspace(-12.0, 12.0, 97)
    ps = np.linspace(-12.0, 12.0, 101)
    scale = np.max(rotated_wigner_value(spec, xs[:, None], ps[None, :]))
    for x, p in [(xs[:, None], ps[None, :]),          # broadcast column x row
                 (0.7, -1.3),                         # scalars
                 (np.array(0.7), np.array(-1.3)),     # 0-d arrays
                 (xs[:5], 0.25)]:                     # vector with a scalar
        got, want = wigner_value(spec, x, p), rotated_wigner_value(spec, x, p)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


# ---------------------------------------------------------- outcome factors

def test_outcome_factors_pure_origin():
    fp, fm = outcome_factors(GaussianComponent.pure(0.0, 2.0), 0.0, 0.0)
    assert fp == pytest.approx(-1.0, rel=1e-14)
    assert fm == pytest.approx(-1.0, rel=1e-14)


def test_outcome_factors_impure_origin():
    fp, fm = outcome_factors(GaussianComponent(1.0, 0.0, 4.0, 0.5), 0.0, 0.0)
    assert fp == pytest.approx(-0.3321917808219178, rel=1e-13)
    assert fm == pytest.approx(-0.14473684210526316, rel=1e-13)


def test_outcome_factors_vacuum_degenerate():
    with pytest.raises(DegenerateInputError):
        outcome_factors(GaussianComponent(1.0, 0.0, 1.0, 1.0), 0.0, 0.0)


@pytest.mark.parametrize("sx,sp,extent", [(2.0, 0.5, 14.0), (4.0, 0.5, 26.0)])
def test_outcome_factors_normalize_against_wigner(sx, sp, extent):
    # integral of f_plusminus * W over the plane is exactly 1
    xs, x, p = grid_2d(extent, 801)
    spec = GaussianWignerSpec.single(sx, sp)
    w = wigner_value(spec, x, p)
    fp, fm = outcome_factors(spec.components[0], x, p)
    assert integrate_2d(fp * w, xs) == pytest.approx(1.0, abs=1e-9)
    assert integrate_2d(fm * w, xs) == pytest.approx(1.0, abs=1e-9)


def test_outcome_values_match_factor_route():
    # single-component path must agree with outcome_factors * wigner_value; the
    # rotated input checks that the factors are read in the principal axes
    xs, x, p = grid_2d(10.0, 41)
    for theta in (0.0, 0.7):
        spec = GaussianWignerSpec.single(4.0, 0.5, theta)
        w = wigner_value(spec, x, p)
        fp, fm = outcome_factors(spec.components[0], x, p)
        np.testing.assert_allclose(added_outcome_value(spec, x, p), fp * w,
                                   rtol=1e-12, atol=1e-16)
        np.testing.assert_allclose(subtracted_outcome_value(spec, x, p), fm * w,
                                   rtol=1e-12, atol=1e-16)


def test_outcome_values_integrate_to_one():
    spec = GaussianWignerSpec.two_angle_mixture(0.5, 0.0, math.pi / 4, 2.2)
    xs, x, p = grid_2d(16.0, 801)
    assert integrate_2d(added_outcome_value(spec, x, p), xs) == pytest.approx(
        1.0, abs=1e-9
    )
    assert integrate_2d(subtracted_outcome_value(spec, x, p), xs) == pytest.approx(
        1.0, abs=1e-9
    )


def test_subtract_from_vacuum_degenerate():
    # the vacuum's subtracted weight is an exact zero, so nothing renormalizes it
    spec = GaussianWignerSpec.pure_state(1.0)
    assert spec.components[0].subtracted_weight() == 0.0
    with pytest.raises(DegenerateInputError):
        spec_norm_ratio(spec)
    with pytest.raises(DegenerateInputError):
        subtracted_outcome_value(spec, 0.0, 0.0)


def test_equal_width_mixture_outcomes_coincide():
    # same-width pure mixture: adding and subtracting give identical states
    spec = GaussianWignerSpec.two_angle_mixture(0.5, 0.0, math.pi / 4, 2.2)
    xs, x, p = grid_2d(8.0, 81)
    gap = added_outcome_value(spec, x, p) - subtracted_outcome_value(spec, x, p)
    assert np.max(np.abs(gap)) < 1e-14


def test_impure_outcomes_differ():
    spec = GaussianWignerSpec.single(4.0, 0.5)
    xs, x, p = grid_2d(12.0, 201)
    gap = added_outcome_value(spec, x, p) - subtracted_outcome_value(spec, x, p)
    assert np.max(np.abs(gap)) > 0.01


# ---------------------------------------------------------- spec_norm_ratio

def test_spec_norm_ratio_pure_matches_scalar():
    for sx in (0.5, 2.0, 3.0):
        assert spec_norm_ratio(GaussianWignerSpec.pure_state(sx)) == pytest.approx(
            pure_norm_ratio(sx), rel=1e-13
        )


def test_spec_norm_ratio_impure():
    # (16 + 0.25 + 2)/4 over (16 + 0.25 - 2)/4
    spec = GaussianWignerSpec.single(4.0, 0.5)
    assert spec_norm_ratio(spec) == pytest.approx(18.25 / 14.25, rel=1e-14)


def test_spec_norm_ratio_vacuum_degenerate():
    with pytest.raises(DegenerateInputError):
        spec_norm_ratio(GaussianWignerSpec.pure_state(1.0))


@pytest.mark.parametrize("gap,refused", [(6.3e-5, False), (6.3e-7, True)],
                         ids=["accepted", "refused"])
def test_vacuum_gap_is_pinned(gap, refused):
    # <a^dag a> = (sx^2 - 1)^2 / (4 sx^2): about 1e-9 at sx^2 = 1 + 6.3e-5, accepted
    # at the 1e-12 gap, and 1e-13 at 1 + 6.3e-7, refused; a gap moved to 1e-6
    # refuses the first and one moved to 1e-15 accepts the second
    spec = GaussianWignerSpec.pure_state(math.sqrt(1.0 + gap))
    mean_photons = spec.components[0].subtracted_weight()
    assert mean_photons == pytest.approx(gap * gap / (4.0 * (1.0 + gap)), rel=1e-2, abs=0.0)
    for closed_form in (lambda: spec_norm_ratio(spec),
                        lambda: outcome_factors(spec.components[0], 0.0, 0.0)):
        if refused:
            with pytest.raises(DegenerateInputError, match="sigma_x = sigma_p = 1"):
                closed_form()
        else:
            assert np.all(np.isfinite(closed_form()))


@settings(max_examples=60, deadline=None)
@given(
    sx=st.one_of(
        st.floats(min_value=0.2, max_value=0.95),
        st.floats(min_value=1.05, max_value=5.0),
    )
)
def test_spec_norm_ratio_tracks_norm_ratio(sx):
    assert spec_norm_ratio(GaussianWignerSpec.pure_state(sx)) == pytest.approx(
        pure_norm_ratio(sx), rel=1e-11
    )


# --------------------------------------------------------- angular average

def test_angular_average_origin():
    assert wigner_value(AngularAverageSpec(2.2), 0.0, 0.0) == pytest.approx(
        1.0 / math.pi, rel=1e-14
    )


def test_angular_average_matches_brute_force():
    # average wigner_value over 720 orientation angles in [0, pi)
    thetas = np.linspace(0.0, math.pi, 721)[:-1]
    pts = [(0.0, 0.5), (1.0, 0.0), (1.3, -0.7), (0.0, 2.5)]
    for sx in (1.5, 2.2):
        for x, p in pts:
            acc = np.mean(
                [
                    wigner_value(GaussianWignerSpec.pure_state(sx, theta=t), x, p)
                    for t in thetas
                ]
            )
            assert wigner_value(AngularAverageSpec(sx), x, p) == pytest.approx(acc, rel=1e-12)


def test_angular_average_far_tail_is_safe():
    # radius 30: the bare Bessel factor alone would overflow float64
    val = wigner_value(AngularAverageSpec(2.2), 30.0, 0.0)
    assert 0.0 < val < 1e-70


@pytest.mark.parametrize("sx", [1e5, 1e-5])
def test_angular_average_decay_exponent_is_exact(sx):
    # a - |b| = min(sx, 1/sx)^2 = 1e-10: formed as the difference of a and
    # |b|, both 5e9, it cancels to 0.0 and leaves W 20 times too large at s = 3e10
    spec = AngularAverageSpec(sx)
    b = spec.radial_coefficients()[1]
    s = np.array([0.0, 1.0, 1e9, 1e10, 3e10])
    want = np.exp(-1e-10 * s) * scipy.special.i0e(b * s) / np.pi
    got = wigner_value(spec, np.sqrt(s), 0.0)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_angular_average_purity_values():
    assert angular_average_purity(AngularAverageSpec(1.0)) == pytest.approx(1.0, abs=1e-14)
    for sx, purity in ((1.5, 0.8567907363065936), (2.2, 0.5973884954432070),
                       (5.0, 0.19923780683180788)):
        assert angular_average_purity(AngularAverageSpec(sx)) == pytest.approx(
            purity, rel=1e-13, abs=0.0)


def test_angular_average_purity_keeps_its_digits_at_strong_squeezing():
    # 1 - m rounds away at sigma_x = 1e4; K(m) ~ L + (p/4)(L - 1) with p = 1 - m,
    # L = ln(4/sqrt(p)), and sigma_x and 1/sigma_x average to the same state
    wide, narrow = (angular_average_purity(AngularAverageSpec(s)) for s in (1e4, 1e-4))
    assert wide == pytest.approx(narrow, rel=1e-14, abs=0.0)
    for sx in (1e4, 1e-4):
        s4 = sx ** 4
        p = 4.0 / (s4 + 2.0 + 1.0 / s4)
        big_l = math.log(4.0 / math.sqrt(p))
        expect = 4.0 * sx * sx * (big_l + p / 4.0 * (big_l - 1.0)) / (math.pi * (1.0 + s4))
        assert angular_average_purity(AngularAverageSpec(sx)) == pytest.approx(
            expect, rel=1e-12, abs=0.0)


def test_angular_average_purity_against_quadrature():
    # purity = 2 * integral_0^inf exp(-2 a s) I0(b s)^2 ds, s = r^2
    sx = 2.2
    a, b = AngularAverageSpec(sx).radial_coefficients()
    val, err = scipy.integrate.quad(
        lambda s: 2.0 * math.exp(2.0 * (b - a) * s) * scipy.special.i0e(b * s) ** 2,
        0.0,
        np.inf,
    )
    assert angular_average_purity(AngularAverageSpec(sx)) == pytest.approx(val, rel=1e-10)


def test_wigner_value_dispatches_angular_spec():
    # exp(-a s) I0(b s) / pi with the unscaled Bessel function, s = x^2 + p^2
    spec = AngularAverageSpec(2.2)
    a, b = spec.radial_coefficients()
    xs, x, p = grid_2d(3.0, 11)
    s = x * x + p * p
    want = np.exp(-a * s) * scipy.special.i0(b * s) / np.pi
    np.testing.assert_allclose(wigner_value(spec, x, p), want, rtol=1e-13, atol=1e-300)
    out = np.empty(s.shape)
    assert wigner_value(spec, x, p, out=out) is out
    np.testing.assert_array_equal(out, wigner_value(spec, x, p))


@pytest.mark.parametrize("sx", [2.2, 1e-5, 1e77])
def test_angular_average_written_in_place_keeps_its_bits(sx):
    # exp(-w^2 s) i0e(b s) / pi in that order, into out or into a new array,
    # bit for bit as the expression formed with temporaries; the far corner
    # overflows b s at sigma_x = 1e77
    spec = AngularAverageSpec(sx)
    b = spec.radial_coefficients()[1]
    axis = GridGeometry(policy_extent(spec.widths()[1]), 65).axis()
    x, p = axis[:, None], axis[None, :]
    s = x * x + p * p
    with np.errstate(over="ignore"):
        want = gaussian._exp(np.asarray(-spec.widths()[0] ** 2 * s)) \
            * scipy.special.i0e(b * s) / np.pi
    out = np.empty(s.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wigner_value(spec, x, p, out=out) is out
        fresh = wigner_value(spec, x, p)
    for got in (out, fresh):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert type(wigner_value(spec, 0.5, 0.25)) is np.float64


def test_wigner_value_refuses_a_non_spec():
    for state in (squeezed_vacuum(0.5), GaussianComponent.pure(0.0, 2.0), 2.0):
        with pytest.raises(ConfigurationError,
                           match=f"wigner_value cannot handle {type(state).__name__}"):
            wigner_value(state, 0.0, 0.0)


# ------------------------------------------------------ finite or refused

_BAD_WIDTHS = st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1.0])
_WIDTHS = st.one_of(_BAD_WIDTHS,
                    st.floats(min_value=math.log(1e-320), max_value=math.log(1e308))
                    .map(math.exp))
_ANGLES = st.floats(min_value=-10.0, max_value=10.0)


@st.composite
def _specs(draw):
    """A constructor call, unmade: pure, impure, two-angle or angular-average."""
    kind = draw(st.sampled_from(["pure", "impure", "two-angle", "angular-average"]))
    sx, sp, th1, th2 = draw(_WIDTHS), draw(_WIDTHS), draw(_ANGLES), draw(_ANGLES)
    return {"pure": lambda: GaussianWignerSpec.pure_state(sx, th1),
            "impure": lambda: GaussianWignerSpec.single(sx, sp, th1),
            "two-angle": lambda: GaussianWignerSpec.two_angle_mixture(0.3, th1, th2, sx),
            "angular-average": lambda: AngularAverageSpec(sx)}[kind]


def _finite_or_refused(fn):
    try:
        values = fn()
    except SqvacError:
        return
    assert np.all(np.isfinite(values)), values


@settings(max_examples=300, deadline=None)
@given(build=_specs())
# widths whose 4th power (or its inverse) is within a factor 2 of the float
# range's edge, where a squared width times a squared coordinate overflows
@example(build=lambda: GaussianWignerSpec.pure_state(1.1e77, 0.5))
@example(build=lambda: GaussianWignerSpec.pure_state(9e-78))
def test_gaussian_spec_is_finite_or_refused(build):
    # any width or angle: the constructor refuses, or every closed form gives
    # finite values or a SqvacError; a numpy warning or another exception fails
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            spec = build()
        except SqvacError:
            return
        for x, p in ((0.0, 0.0), (1.0, -1.0)):
            _finite_or_refused(lambda: wigner_value(spec, x, p))
        if isinstance(spec, AngularAverageSpec):
            _finite_or_refused(lambda: angular_average_purity(spec))
            return
        _finite_or_refused(lambda: spec_norm_ratio(spec))
        for c in spec.components:
            for x, p in ((0.0, 0.0), (1.0, -1.0)):
                _finite_or_refused(lambda: outcome_factors(c, x, p))


# ------------------------------------------------------- the exp underflow skip

def test_exp_is_zero_below_the_underflow_cut():
    # every exponent wigner_value skips, a < _EXP_UNDERFLOW, has exp(a) = +0.0
    below = np.exp(np.nextafter(gaussian._EXP_UNDERFLOW, -np.inf))
    assert below == 0.0 and not np.signbit(below)


def _plain_exp(a):
    return np.exp(a, out=a)


_SPEC_WIDTHS = st.floats(min_value=math.log(5e-78), max_value=math.log(2e77)).map(math.exp)


@st.composite
def _valid_specs(draw):
    """A pure, impure, two-angle or angular-average spec, with widths up to
    both 4th-power edges of the accepted range."""
    kind = draw(st.sampled_from(["pure", "impure", "two-angle", "angular-average"]))
    sx, sp, th1, th2 = draw(_SPEC_WIDTHS), draw(_SPEC_WIDTHS), draw(_ANGLES), draw(_ANGLES)
    build = {"pure": lambda: GaussianWignerSpec.pure_state(sx, th1),
             "impure": lambda: GaussianWignerSpec.single(sx, sp, th1),
             "two-angle": lambda: GaussianWignerSpec.two_angle_mixture(0.3, th1, th2, sx),
             "angular-average": lambda: AngularAverageSpec(sx)}[kind]
    try:
        return build()
    except DomainError:  # a width past an edge, or below the uncertainty floor
        assume(False)


@settings(max_examples=200, deadline=None)
@given(spec=_valid_specs(), scale=st.floats(0.02, 2.0),
       points=st.integers(16, 64).map(lambda k: 2 * k + 1))
# the vacuum at unit step: x = 27 gives the exponent -729 - ln pi, where
# exp is subnormal, not zero
@example(spec=GaussianWignerSpec.pure_state(1.0), scale=5.0, points=61)
def test_wigner_value_matches_plain_exp_bit_for_bit(spec, scale, points):
    axis = GridGeometry(scale * policy_extent(spec.widths()[1]), points).axis()
    x, p = axis[:, None], axis[None, :]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # both runs do the same arithmetic
        got = wigner_value(spec, x, p)
        with mock.patch.object(gaussian, "_exp", _plain_exp):
            want = wigner_value(spec, x, p)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
