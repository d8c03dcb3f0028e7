"""Closed-form gaussian Wigner states and their photon add/subtract outcomes.

A state is a convex mixture of rotated gaussians, each with principal widths
(sigma_x, sigma_p) and rotation angle theta:

    W(x, p) = exp(-x'^2/sigma_x^2 - p'^2/sigma_p^2) / (pi sigma_x sigma_p)
    x' = x cos(theta) + p sin(theta),   p' = p cos(theta) - x sin(theta)

The vacuum is sigma_x = sigma_p = 1 and pure states have sigma_p = 1/sigma_x
(position width sigma_x, squeeze parameter z = -ln sigma_x). Adding or
subtracting one photon maps W to f_plus * W or f_minus * W with the quadratic
factors implemented in ``outcome_factors``; both factors integrate to one
against W. The continuous angular average of a pure state has the radial form
exp(-a s) I0(b s) / pi with s = x^2 + p^2, evaluated by ``wigner_value``, with
closed-form purity via the complete elliptic integral.

The spec constructors are the one place that validates input: every width
passes ``_check_width``, and the closed forms read validated specs. The vacuum,
whose subtracted outcome vanishes, is refused in one place, ``_refuse_vacuum``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, DomainError
from .special import bessel_i0_scaled, elliptic_km1

_UNCERTAINTY_SLACK = 1e-12
_WEIGHT_TOL = 1e-12
#: Below this, the mean photon number <a^dag a> counts as the vacuum's exact zero.
_VACUUM_GAP = 1e-12
# exp rounds to +0.0 below ln 2^-1075 ~ -745.13, 13-16 times slower than elsewhere
_EXP_UNDERFLOW = -746.0


def _check_width(sigma: float):
    """The one width check: refuse a width that is not positive and finite, or
    whose 4th power or inverse 4th power is not a finite nonzero float (roughly
    sigma outside [1e-77, 1e77]): the closed forms and the angular average's
    radial coefficients need sigma^4, and the grid extent scales with the width.
    Positivity is tested first, so a zero width takes no power."""
    ok = sigma > 0 and np.isfinite(sigma)
    if ok:
        with np.errstate(over="ignore", under="ignore"):
            powers = np.float64(sigma) ** np.array([4.0, -4.0])
        ok = np.all((powers > 0) & np.isfinite(powers))
    if not ok:
        raise DomainError(f"width {sigma!r} must be positive and finite, with a 4th power "
                          "and inverse 4th power that are finite nonzero floats")


@dataclass(frozen=True)
class GaussianComponent:
    """One rotated gaussian: weight, angle and principal widths."""

    weight: float
    theta: float
    sigma_x: float
    sigma_p: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.weight, self.theta])):
            raise DomainError("component weight and angle must be finite")
        if not self.weight > 0:
            raise DomainError("component weight must be positive")
        _check_width(self.sigma_x)
        _check_width(self.sigma_p)
        if self.sigma_x * self.sigma_p < 1.0 - _UNCERTAINTY_SLACK:
            raise DomainError(
                f"sigma_x*sigma_p = {self.sigma_x * self.sigma_p:.6g} violates the "
                "uncertainty floor sigma_x*sigma_p >= 1"
            )
        # The Wigner function of a centred gaussian is pi-periodic in theta.
        object.__setattr__(self, "theta", float(np.mod(self.theta, np.pi)))

    @classmethod
    def pure(cls, theta: float, sigma_x: float, weight: float = 1.0):
        _check_width(sigma_x)
        return cls(weight, theta, sigma_x, 1.0 / sigma_x)

    def added_weight(self) -> float:
        """Trace of the un-renormalized photon-added outcome: (sx^2+sp^2+2)/4."""
        return (self.sigma_x ** 2 + self.sigma_p ** 2 + 2.0) / 4.0

    def subtracted_weight(self) -> float:
        """Trace of the un-renormalized photon-subtracted outcome: <a^dag a>."""
        return (self.sigma_x ** 2 + self.sigma_p ** 2 - 2.0) / 4.0


@dataclass(frozen=True)
class GaussianWignerSpec:
    """Convex mixture of gaussian components; weights must sum to one."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ConfigurationError("spec needs at least one component")
        object.__setattr__(self, "components", comps)
        total = sum(c.weight for c in comps)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise DomainError(f"component weights sum to {total!r}, expected 1")

    @classmethod
    def pure_state(cls, sigma_x: float, theta: float = 0.0):
        return cls((GaussianComponent.pure(theta, sigma_x),))

    @classmethod
    def single(cls, sigma_x: float, sigma_p: float, theta: float = 0.0):
        return cls((GaussianComponent(1.0, theta, sigma_x, sigma_p),))

    @classmethod
    def two_angle_mixture(cls, weight: float, theta1: float, theta2: float, sigma_x: float):
        """Mixture of two equally squeezed pure states at different angles."""
        if not 0.0 < weight < 1.0:
            raise DomainError("mixture weight must lie strictly between 0 and 1")
        return cls((GaussianComponent.pure(theta1, sigma_x, weight),
                    GaussianComponent.pure(theta2, sigma_x, 1.0 - weight)))

    def widths(self) -> tuple[float, float]:
        """(narrowest, widest) principal width over components; the widest
        bounds each component's spread along x and p at any angle."""
        return (min(min(c.sigma_x, c.sigma_p) for c in self.components),
                max(max(c.sigma_x, c.sigma_p) for c in self.components))


@dataclass(frozen=True)
class AngularAverageSpec:
    """Continuous angular average of a pure state of width sigma_x."""

    sigma_x: float

    def __post_init__(self):
        _check_width(self.sigma_x)

    def radial_coefficients(self) -> tuple[float, float]:
        """(a, b) with W(s) = exp(-a s) I0(b s) / pi, s = x^2 + p^2."""
        s4 = self.sigma_x ** 4
        return ((s4 + 1.0) / (2.0 * self.sigma_x ** 2),
                (s4 - 1.0) / (2.0 * self.sigma_x ** 2))

    def widths(self) -> tuple[float, float]:
        """(narrowest, widest) width of the averaged pure state."""
        return min(self.sigma_x, 1.0 / self.sigma_x), max(self.sigma_x, 1.0 / self.sigma_x)


def squeeze_parameter(sigma_x: float) -> float:
    """z with sigma_x = exp(-z); satisfies (1-sx^2)/(1+sx^2) = tanh(z)."""
    _check_width(sigma_x)
    return -float(np.log(sigma_x))


def _refuse_vacuum(mean_photons: float):
    """The one vacuum refusal: below _VACUUM_GAP photons there is nothing to
    subtract, so the subtracted outcome and every ratio over it are undefined."""
    if mean_photons < _VACUUM_GAP:
        raise DegenerateInputError(
            f"mean photon number {mean_photons:.3g} is the vacuum's (sigma_x = sigma_p = 1): "
            "subtraction annihilates the state")


def _log_density(c: GaussianComponent, x, p, out: np.ndarray) -> np.ndarray:
    """log(weight * W_c) as one quadratic form, written into ``out``:

        -(a x^2 + b x p + c p^2) + log(weight / (pi sigma_x sigma_p))
        a = cos^2/sigma_x^2 + sin^2/sigma_p^2,  c = sin^2/sigma_x^2 + cos^2/sigma_p^2
        b = 2 sin cos (1/sigma_x^2 - 1/sigma_p^2)

    the rotated x'^2/sigma_x^2 + p'^2/sigma_p^2 expanded, so no rotated copy
    of x or p is formed.
    """
    ct, st = np.cos(c.theta), np.sin(c.theta)
    ix, ip = 1.0 / c.sigma_x ** 2, 1.0 / c.sigma_p ** 2
    a = ct * ct * ix + st * st * ip
    b = 2.0 * st * ct * (ix - ip)
    cc = st * st * ix + ct * ct * ip
    # a square that overflows is an exponent of -inf, and exp(-inf) = 0 is the
    # density there to double precision, so the overflow warning is noise
    with np.errstate(over="ignore"):
        np.multiply(x, -b * p, out=out)
        out += np.log(c.weight / (np.pi * c.sigma_x * c.sigma_p)) - a * x * x
        out -= cc * p * p
    return out


def _exp(a: np.ndarray) -> np.ndarray:
    """exp(a) in place, +0.0 without calling exp wherever a < _EXP_UNDERFLOW,
    exp's own result there; a nan fails both comparisons and stays nan. The
    two masks are made one after the other, so one is held at a time."""
    np.exp(a, out=a, where=a >= _EXP_UNDERFLOW)
    np.copyto(a, 0.0, where=a < _EXP_UNDERFLOW)
    return a


def wigner_value(spec, x, p, out=None):
    """Wigner function of a GaussianWignerSpec or AngularAverageSpec, broadcast;
    written into ``out`` when it is given (and returned). Raises
    ConfigurationError for any other spec."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if isinstance(spec, AngularAverageSpec):
        # W(s) = exp(-a s) I0(b s) / pi with s = x^2 + p^2, through the scaled
        # Bessel function so large b*s does not overflow: the product decays
        # like exp(-(a-|b|) s), and a - |b| = min(sigma_x, 1/sigma_x)^2 is
        # formed exactly, not as a difference that cancels for strong squeezing
        b = spec.radial_coefficients()[1]
        s = x * x + p * p
        # only b s can overflow, past |b s| = 1.8e308, where i0e is below
        # 3.1e-155, under one ulp of W's peak 1/pi: i0e(+-inf) = 0 is W there
        with np.errstate(over="ignore"):
            value = np.multiply(_exp(np.asarray(-spec.widths()[0] ** 2 * s)),
                                bessel_i0_scaled(b * s), out=out)
        return np.divide(value, np.pi, out=out)
    if not isinstance(spec, GaussianWignerSpec):
        raise ConfigurationError(f"wigner_value cannot handle {type(spec).__name__}")
    # exp in place; later components are added into the first one's buffer
    shape = np.broadcast_shapes(x.shape, p.shape)
    first, *rest = spec.components
    out = _exp(_log_density(first, x, p, np.empty(shape) if out is None else out))
    if rest:
        term = np.empty(shape)
        for c in rest:
            out += _exp(_log_density(c, x, p, term))
    return out if out.ndim else out[()]  # a scalar for scalar input


def outcome_factors(component: GaussianComponent, x, p):
    """Quadratic factors (f_plus, f_minus) with W_out = f * W, renormalized,
    for one component, in its principal axes x' and p' (module docstring):

    f_plus = (2 p'^2 (1+1/sp^2)^2 - (2 + 1/sx^2 + 1/sp^2) + 2 x'^2 (1+1/sx^2)^2) / D+
    f_minus has the signs flipped on the 1s, and D+- = sx^2 + sp^2 +- 2.

    Each square is split as (1+-1/s^2) ((1+-1/s^2) / D+-), which stays finite
    at any width the spec accepts. Raises DegenerateInputError on the vacuum
    (D- = 4 <a^dag a> = 0: nothing to subtract).
    """
    _refuse_vacuum(component.subtracted_weight())
    sx2, sp2 = component.sigma_x ** 2, component.sigma_p ** 2
    ix, ip = 1.0 / sx2, 1.0 / sp2
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    ct, st = np.cos(component.theta), np.sin(component.theta)
    xr, pr = x * ct + p * st, p * ct - x * st
    factors = []
    for s in (1.0, -1.0):
        d = sx2 + sp2 + 2.0 * s
        qx, qp = 1.0 + s * ix, 1.0 + s * ip
        factors.append(2.0 * pr * pr * qp * (qp / d) - (2.0 * s + ix + ip) / d
                       + 2.0 * xr * xr * qx * (qx / d))
    return tuple(factors)


def spec_norm_ratio(spec: GaussianWignerSpec) -> float:
    """Closed-form ratio of added over subtracted outcome weights for a spec;
    for a pure state ((sx^2+1)/(sx^2-1))^2, the square of the wavefunction
    ratio a^dag psi / a psi."""
    num = sum(c.weight * c.added_weight() for c in spec.components)
    den = sum(c.weight * c.subtracted_weight() for c in spec.components)
    _refuse_vacuum(den)
    return num / den


def angular_average_purity(spec: AngularAverageSpec) -> float:
    """Closed-form purity of the angular average.

    2 pi * integral W^2 = 4 sigma_x^2 K(m) / (pi (1 + sigma_x^4)) with the
    elliptic parameter m = ((1 - sigma_x^4) / (1 + sigma_x^4))^2. K is read
    at 1 - m = 4 / (sigma_x^4 + 2 + sigma_x^-4), which keeps its digits where
    m rounds to 1. Equals 1 at sigma_x = 1 and decreases monotonically as the
    squeezing grows; sigma_x and 1/sigma_x give the same purity.
    """
    s4 = spec.sigma_x ** 4
    return 4.0 * spec.sigma_x ** 2 * elliptic_km1(4.0 / (s4 + 2.0 + 1.0 / s4)) \
        / (np.pi * (1.0 + s4))
