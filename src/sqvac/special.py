"""Special functions used by the rest of the library.

* ``bessel_i0_scaled`` -- exp(-|t|) I0(t), safe at arguments where I0 overflows
                          (scipy.special.i0e)
* ``elliptic_k``       -- complete elliptic integral K(m), parameter m = k**2
                          (scipy.special.ellipk, with a domain check)
* ``elliptic_km1``     -- K(1 - p), accurate as p -> 0 where 1 - p rounds to 1
                          (scipy.special.ellipkm1)
* ``hermite_psi_table`` -- orthonormal Hermite functions (harmonic-oscillator
                          eigenfunctions) by stable upward recurrence

scipy.special is imported where it is called, so importing the command line
front end does not pay for it. Hermite functions are normalized so that
integral psi_m psi_n dx = delta_mn.
"""

import numpy as np

from .errors import ConfigurationError, DomainError

#: Largest Hermite degree accepted; the recurrence is stable far beyond this,
#: the cap exists to catch runaway configuration values.
HERMITE_DEGREE_CAP = 512


def check_basis_size(trunc: int):
    """Refuse a number-basis size past the transform's cap: its Hermite table
    stops at degree HERMITE_DEGREE_CAP."""
    if trunc - 1 > HERMITE_DEGREE_CAP:
        raise ConfigurationError(
            f"number-basis size {trunc} exceeds the transform's cap of "
            f"{HERMITE_DEGREE_CAP + 1} levels (Hermite degree {HERMITE_DEGREE_CAP})")


def bessel_i0_scaled(t):
    """exp(-|t|) * I0(t): bounded by 1, usable at any |t| without overflow."""
    from scipy.special import i0e

    return i0e(t)


def elliptic_k(m):
    """Complete elliptic integral of the first kind, parameter convention.

    K(m) = integral_0^{pi/2} dt / sqrt(1 - m sin^2 t), with m = k**2 the
    *parameter* (so elliptic_k(0.5) = 1.8540746773013719).

    Raises
    ------
    DomainError
        For m < 0 or m >= 1 (K diverges at m = 1).
    """
    from scipy.special import ellipk

    arr = np.asarray(m, dtype=float)
    if np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise DomainError("elliptic_k requires 0 <= m < 1 (parameter m = k^2)")
    return ellipk(m)


def elliptic_km1(p):
    """K(1 - p), which keeps its digits where m = 1 - p would round to 1."""
    from scipy.special import ellipkm1

    return ellipkm1(p)


def hermite_psi_table(nmax, x):
    """All psi_n(x) for n < nmax at once; shape (len(x), nmax).

    psi_0 = pi^{-1/4} exp(-x^2/2) and the stable normalized recurrence
    psi_n = x sqrt(2/n) psi_{n-1} - sqrt((n-1)/n) psi_{n-2}. Working with the
    normalized functions directly avoids the factorial overflow of the raw
    Hermite polynomials.
    """
    if nmax < 1:
        raise ConfigurationError("hermite_psi_table needs nmax >= 1")
    check_basis_size(nmax)
    arr = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    table = np.empty((arr.size, nmax))
    table[:, 0] = np.pi ** -0.25 * np.exp(-arr * arr / 2.0)
    if nmax > 1:
        table[:, 1] = np.sqrt(2.0) * arr * table[:, 0]
    for k in range(2, nmax):
        table[:, k] = arr * np.sqrt(2.0 / k) * table[:, k - 1] \
            - np.sqrt((k - 1) / k) * table[:, k - 2]
    return table
