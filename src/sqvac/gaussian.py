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
exp(-a s) I0(b s) / pi with s = x^2 + p^2, implemented in
``angular_average_value``, with closed-form purity via the complete elliptic
integral.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, DomainError
from .special import bessel_i0_scaled, elliptic_k

_UNCERTAINTY_SLACK = 1e-12
_WEIGHT_TOL = 1e-12
#: Below this, sigma_x^2 + sigma_p^2 - 2 counts as the vacuum's exact zero.
_VACUUM_GAP = 1e-12


def _check_width_range(sigma: float):
    """Refuse a width whose 4th power or inverse 4th power is not a finite
    nonzero float (roughly sigma outside [1e-77, 1e77]): the closed forms and
    the angular average's radial coefficients need sigma^4, and the grid
    extent scales with the width."""
    with np.errstate(over="ignore", under="ignore"):
        powers = np.float64(sigma) ** np.array([4.0, -4.0])
    if not np.all((powers > 0) & np.isfinite(powers)):
        raise DomainError(f"width {sigma!r} is outside the range whose 4th power and "
                          "inverse 4th power are finite nonzero floats")


@dataclass(frozen=True)
class GaussianComponent:
    """One rotated gaussian: weight, angle and principal widths."""

    weight: float
    theta: float
    sigma_x: float
    sigma_p: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.weight, self.theta, self.sigma_x, self.sigma_p])):
            raise DomainError("component weight, angle and widths must be finite")
        if not self.weight > 0:
            raise DomainError("component weight must be positive")
        if not (self.sigma_x > 0 and self.sigma_p > 0):
            raise DomainError("widths must be positive")
        _check_width_range(self.sigma_x)
        _check_width_range(self.sigma_p)
        if self.sigma_x * self.sigma_p < 1.0 - _UNCERTAINTY_SLACK:
            raise DomainError(
                f"sigma_x*sigma_p = {self.sigma_x * self.sigma_p:.6g} violates the "
                "uncertainty floor sigma_x*sigma_p >= 1"
            )
        # The Wigner function of a centred gaussian is pi-periodic in theta.
        object.__setattr__(self, "theta", float(np.mod(self.theta, np.pi)))

    @classmethod
    def pure(cls, theta: float, sigma_x: float, weight: float = 1.0):
        return cls(weight, theta, sigma_x, 1.0 / sigma_x)

    def added_weight(self) -> float:
        """Trace of the un-renormalized photon-added outcome: (sx^2+sp^2+2)/4."""
        return (self.sigma_x ** 2 + self.sigma_p ** 2 + 2.0) / 4.0

    def subtracted_weight(self) -> float:
        """Trace of the un-renormalized photon-subtracted outcome (mean photon)."""
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
        if not (np.isfinite(self.sigma_x) and self.sigma_x > 0):
            raise DomainError("sigma_x must be positive and finite")
        _check_width_range(self.sigma_x)

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
    if not sigma_x > 0:
        raise DomainError("sigma_x must be positive")
    return -float(np.log(sigma_x))


def norm_ratio(sigma_x: float) -> float:
    """Norm of the added outcome over the subtracted one for a pure state.

    The square of the pointwise wavefunction ratio (sx^2+1)/(sx^2-1), so
    always above 1; diverges at the vacuum width sigma_x = 1, which is
    excluded.
    """
    if not sigma_x > 0:
        raise DomainError("sigma_x must be positive")
    s2 = sigma_x * sigma_x
    if abs(s2 - 1.0) < _VACUUM_GAP:
        raise DegenerateInputError(
            "norm ratio diverges at sigma_x = 1 (vacuum): subtraction "
            "annihilates the state"
        )
    r = (s2 + 1.0) / (s2 - 1.0)
    return r * r


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


def wigner_value(spec, x, p, out=None):
    """Wigner function of a GaussianWignerSpec or AngularAverageSpec, broadcast;
    written into ``out`` when it is given (and returned)."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if isinstance(spec, AngularAverageSpec):
        value = angular_average_value(spec.sigma_x, x, p)
        if out is None:
            return value
        out[...] = value
        return out
    # exp in place; later components are added into the first one's buffer
    shape = np.broadcast_shapes(x.shape, p.shape)
    first, *rest = spec.components
    out = _log_density(first, x, p, np.empty(shape) if out is None else out)
    np.exp(out, out=out)
    if rest:
        term = np.empty(shape)
        for c in rest:
            _log_density(c, x, p, term)
            out += np.exp(term, out=term)
    return out if out.ndim else out[()]  # a scalar for scalar input


def outcome_factors(x, p, sigma_x: float, sigma_p: float):
    """Quadratic factors (f_plus, f_minus) with W_out = f * W, renormalized.

    f_plus = 2 p^2 (sp^2+1)^2 / (sp^4 D+) - (sp^2 (2 sx^2+1) + sx^2) / (sp^2 sx^2 D+)
             + 2 x^2 (sx^2+1)^2 / (sx^4 D+),          D+ = sp^2 + sx^2 + 2
    f_minus has the signs flipped on the 1s and D- = sp^2 + sx^2 - 2.

    Raises DegenerateInputError on the vacuum (D- = 0: nothing to subtract).
    """
    if not (sigma_x > 0 and sigma_p > 0):
        raise DomainError("widths must be positive")
    sx2, sp2 = sigma_x ** 2, sigma_p ** 2
    dm = sp2 + sx2 - 2.0
    if dm < _VACUUM_GAP:
        raise DegenerateInputError(
            "subtraction factor degenerates at the vacuum widths "
            "sigma_x = sigma_p = 1"
        )
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    dp_ = sp2 + sx2 + 2.0
    fplus = (2.0 * p ** 2 * (sp2 + 1.0) ** 2 / (sp2 ** 2 * dp_)
             - (sp2 * (2.0 * sx2 + 1.0) + sx2) / (sp2 * sx2 * dp_)
             + 2.0 * x ** 2 * (sx2 + 1.0) ** 2 / (sx2 ** 2 * dp_))
    fminus = (2.0 * p ** 2 * (sp2 - 1.0) ** 2 / (sp2 ** 2 * dm)
              + (sp2 * (2.0 * sx2 - 1.0) - sx2) / (sp2 * sx2 * dm)
              + 2.0 * x ** 2 * (sx2 - 1.0) ** 2 / (sx2 ** 2 * dm))
    return fplus, fminus


def spec_norm_ratio(spec: GaussianWignerSpec) -> float:
    """Closed-form ratio of added over subtracted outcome weights for a spec."""
    num = sum(c.weight * c.added_weight() for c in spec.components)
    den = sum(c.weight * c.subtracted_weight() for c in spec.components)
    if den < _VACUUM_GAP:
        raise DegenerateInputError("norm ratio diverges on a photonless spec")
    return num / den


def angular_average_value(sigma_x: float, x, p):
    """Wigner function of the continuous angular average of a pure state.

    W(s) = exp(-a s) I0(b s) / pi with s = x^2 + p^2,
    a = (sigma_x^4 + 1)/(2 sigma_x^2), b = (sigma_x^4 - 1)/(2 sigma_x^2).
    Evaluated with the exponentially scaled Bessel function so large b*s does
    not overflow (the product decays like exp(-(a-|b|) s)).
    """
    spec = AngularAverageSpec(sigma_x)
    a, b = spec.radial_coefficients()
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    s = x * x + p * p
    return np.exp((abs(b) - a) * s) * bessel_i0_scaled(b * s) / np.pi


def angular_average_purity(sigma_x: float) -> float:
    """Closed-form purity of the angular average.

    2 pi * integral W^2 = 4 sigma_x^2 K(m) / (pi (1 + sigma_x^4)) with the
    elliptic parameter m = ((1 - sigma_x^4) / (1 + sigma_x^4))^2. Equals 1 at
    sigma_x = 1 and decreases monotonically as the squeezing grows.
    """
    if not sigma_x > 0:
        raise DomainError("sigma_x must be positive")
    s4 = sigma_x ** 4
    m = ((1.0 - s4) / (1.0 + s4)) ** 2
    return 4.0 * sigma_x ** 2 * elliptic_k(m) / (np.pi * (1.0 + s4))
