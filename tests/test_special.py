"""Special-function layer against scipy references and hand-checked values."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from sqvac import ConfigurationError
from sqvac.special import (
    HERMITE_DEGREE_CAP,
    bessel_i0_scaled,
    elliptic_km1,
    hermite_psi_table,
)


# --------------------------------------------------------- bessel_i0_scaled

def test_i0_at_one():
    # A&S table 9.8: I0(1) = 1.26606 58777 52008...
    assert bessel_i0_scaled(1.0) * math.e == pytest.approx(1.2660658777520083, rel=1e-15)


@pytest.mark.parametrize(
    "t", [0.0, 0.3, 1.0, 5.0, 14.9, 15.0, 15.1, 40.0, 120.0, 700.0]
)
def test_i0_matches_scipy_across_both_branches(t):
    # Undoing the scaling must give scipy's unscaled I0 on both Chebyshev
    # ranges of the Cephes algorithm (|t| <= 8 and |t| > 8) up to the
    # float64 edge near t = 714.
    assert bessel_i0_scaled(t) * math.exp(t) == pytest.approx(scipy.special.i0(t), rel=1e-12)


@pytest.mark.parametrize("t", [0.0, 2.0, 15.0, 1e3, 1e6])
def test_i0_scaled_matches_scipy(t):
    assert bessel_i0_scaled(t) == pytest.approx(scipy.special.i0e(t), rel=1e-12)


def test_i0_is_even():
    assert bessel_i0_scaled(-3.7) == bessel_i0_scaled(3.7)
    assert bessel_i0_scaled(-20.0) == bessel_i0_scaled(20.0)


def test_i0_array_input():
    ts = np.array([0.5, 10.0, 100.0])
    out = bessel_i0_scaled(ts)
    assert out.shape == ts.shape
    np.testing.assert_allclose(out * np.exp(ts), scipy.special.i0(ts), rtol=1e-12)


def test_i0_overflow_guard():
    # I0 itself overflows float64 past t ~ 714; the scaled form does not
    assert 0.0 < bessel_i0_scaled(714.0) < 1.0
    assert 0.0 < bessel_i0_scaled(1e300) < 1.0


# ------------------------------------------------------------- elliptic_km1
# K at parameter m (m = k^2) is read as elliptic_km1(1 - m)

def test_elliptic_k_reference_points():
    assert elliptic_km1(1.0) == pytest.approx(math.pi / 2, rel=1e-15)
    # A&S 17.3: K(m=0.5) = 1.85407 46773 01372...
    assert elliptic_km1(0.5) == pytest.approx(1.8540746773013719, rel=1e-14)


@pytest.mark.parametrize("m", [0.01, 0.2, 0.5, 0.9, 0.99, 0.999])
def test_elliptic_k_matches_scipy(m):
    # scipy.special.ellipk uses the same parameter (m = k^2) convention
    assert elliptic_km1(1.0 - m) == pytest.approx(scipy.special.ellipk(m), rel=1e-13)


def test_elliptic_k_array_input():
    ms = np.array([0.1, 0.4, 0.8])
    np.testing.assert_allclose(elliptic_km1(1.0 - ms), scipy.special.ellipk(ms), rtol=1e-13)


@pytest.mark.parametrize("p", [1.0, 0.5, 0.01])
def test_elliptic_km1_is_k_at_the_complement(p):
    assert elliptic_km1(p) == pytest.approx(scipy.special.ellipk(1.0 - p), rel=1e-14)


# -------------------------------------------------------- hermite_psi_table

def test_hermite_ground_state():
    psi0 = hermite_psi_table(1, 0.0)[0, 0]
    assert psi0 == pytest.approx(math.pi ** -0.25, rel=1e-15)
    assert psi0 == pytest.approx(0.7511255444649425, rel=1e-15)


def test_hermite_origin_values():
    # psi_2(0) = -2 / sqrt(8 sqrt(pi)); odd degrees vanish by parity
    row = hermite_psi_table(8, 0.0)[0]
    assert row[2] == pytest.approx(-0.5311259660135984, rel=1e-14)
    assert row[1] == 0.0
    assert row[7] == 0.0


@pytest.mark.parametrize("n", [0, 1, 3, 8, 12])
def test_hermite_matches_scipy_polynomials(n):
    xs = np.linspace(-4.0, 4.0, 17)
    weight = np.exp(-xs * xs / 2.0) / math.sqrt(
        2.0 ** n * math.factorial(n) * math.sqrt(math.pi)
    )
    np.testing.assert_allclose(
        hermite_psi_table(n + 1, xs)[:, n],
        scipy.special.eval_hermite(n, xs) * weight,
        rtol=1e-12,
        atol=1e-15,
    )


def test_hermite_table_orthonormal():
    xs = np.linspace(-12.0, 12.0, 2001)
    table = hermite_psi_table(25, xs)  # degrees 0..24
    gram = scipy.integrate.simpson(
        table[:, :, None] * table[:, None, :], x=xs, axis=0
    )
    np.testing.assert_allclose(gram, np.eye(25), atol=1e-10)


def test_hermite_table_agrees_with_single_degree():
    # A column does not depend on how many degrees the table holds: the
    # table stopping at degree 17 ends in the same column as a wider one.
    xs = np.linspace(-3.0, 3.0, 7)
    np.testing.assert_array_equal(hermite_psi_table(40, xs)[:, 17],
                                  hermite_psi_table(18, xs)[:, -1])


def test_hermite_large_degree_stays_bounded():
    # Normalized recurrence must not blow up at the cap.
    table = hermite_psi_table(HERMITE_DEGREE_CAP + 1, np.array([0.0, 1.0, 5.0]))
    assert np.all(np.abs(table[:, -1]) < 1.0)


def test_hermite_degree_validation():
    with pytest.raises(ConfigurationError):
        hermite_psi_table(0, 0.0)
    with pytest.raises(ConfigurationError):
        hermite_psi_table(HERMITE_DEGREE_CAP + 2, 0.0)
    assert hermite_psi_table(HERMITE_DEGREE_CAP + 1, 0.0).shape == (1, HERMITE_DEGREE_CAP + 1)
