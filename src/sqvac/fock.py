"""Truncated number-basis states and ladder operations.

Everything here works in a finite basis |0>..|N-1> with explicit truncation
budgets: operations that push probability weight past the basis edge refuse to
run (TruncationError) instead of silently corrupting norms.

Conventions: hbar = 1, quadratures x = (a + a^dag)/sqrt(2), p = i(a^dag - a)/sqrt(2),
so the vacuum has <x^2> = <p^2> = 1/2.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, DomainError, TruncationError

#: Probability weight allowed past the truncation edge before operations refuse.
TRUNCATION_BUDGET = 1e-10
#: Below this <n>, outcome_ratio refuses its input as vacuum (gaussian's gap).
_VACUUM_GAP = 1e-12


@dataclass
class FockVector:
    """State vector in the truncated number basis |0>..|N-1>.

    Args:
        amps: 1-d complex array of N >= 2 finite amplitudes; N is ``trunc``.
    """

    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.ndim != 1 or self.amps.size < 2:
            raise ConfigurationError(
                f"FockVector needs a 1-d array of at least 2 amplitudes, not shape {self.amps.shape}")
        if not np.all(np.isfinite(self.amps)):
            raise DomainError("amplitudes must be finite")

    @property
    def trunc(self) -> int:
        """Basis size N."""
        return self.amps.size

    def norm(self) -> float:
        """||amps||, formed on ``_unit``'s amplitudes; inf past the float range."""
        if not self.amps.any():
            return 0.0
        unit, e = _unit(self.amps)
        with np.errstate(over="ignore"):
            return float(np.ldexp(np.linalg.norm(unit), e))

    def normalized(self) -> "FockVector":
        unit, _ = _unit(self.amps)
        return FockVector(unit / np.linalg.norm(unit))


def _unit(amps: np.ndarray) -> tuple[np.ndarray, int]:
    """The number basis's one scale rule and one zero-vector refusal: (amps 2^-e,
    e), with 2^-e bringing the largest real or imaginary part into [0.5, 1).
    The scaling is exact, so every ratio keeps its bits at any scale."""
    if not amps.any():
        raise DegenerateInputError("every amplitude is zero: a zero vector is no state")
    e = int(np.frexp(max(np.abs(amps.real).max(), np.abs(amps.imag).max()))[1])
    unit = amps.copy()
    np.ldexp(unit.real, -e, out=unit.real)
    np.ldexp(unit.imag, -e, out=unit.imag)
    return unit, e


def _refuse_loss(lost_weight: float, message: str, **details):
    """The one truncation refusal: raise TruncationError when ``lost_weight``,
    the weight pushed past the basis edge, exceeds TRUNCATION_BUDGET."""
    if lost_weight > TRUNCATION_BUDGET:
        raise TruncationError(message, lost_weight=lost_weight, **details)


def _shift_down(amps: np.ndarray) -> np.ndarray:
    """a on amplitudes: out[n] = sqrt(n+1) * amps[n+1]; the top level receives nothing."""
    out = np.zeros_like(amps)
    out[:-1] = np.sqrt(np.arange(1, amps.size)) * amps[1:]
    return out


def _shift_up(amps: np.ndarray) -> np.ndarray:
    """a^dag kept inside the basis: out[n] = sqrt(n) * amps[n-1], the top amplitude dropped."""
    out = np.zeros_like(amps)
    out[1:] = np.sqrt(np.arange(1, amps.size)) * amps[:-1]
    return out


def annihilate(state: FockVector) -> FockVector:
    """Apply the annihilation operator: out[n] = sqrt(n+1) * in[n+1].

    Never loses weight (the top amplitude maps downward), so no budget check.
    """
    return FockVector(_shift_down(state.amps))


def create(state: FockVector) -> FockVector:
    """Apply the creation operator: out[n] = sqrt(n) * in[n-1].

    The top input amplitude would leave the basis with weight
    trunc * |c_top|^2 / ||psi||^2, the same at any norm; if that exceeds the
    truncation budget the operation refuses. The zero vector, which has no
    weight to lose a share of, is refused (``_unit``).
    """
    unit, _ = _unit(state.amps)
    lost = state.trunc * abs(unit[-1]) ** 2 / float(np.vdot(unit, unit).real)
    _refuse_loss(lost, f"create would lose weight {lost:.3e} past the basis edge; "
                       "enlarge trunc")
    return FockVector(_shift_up(state.amps))


def suggested_truncation(z: float) -> int:
    """Basis size that keeps squeezed-vacuum truncation loss under budget.
    Raises DomainError when no finite size does: z non-finite, or |z| past
    about 354, where tanh(z) rounds to 1 and the amplitudes never decay."""
    with np.errstate(over="ignore"):
        size = 32.0 * np.cosh(2.0 * z)
    if not np.isfinite(size):
        raise DomainError(f"squeeze parameter z = {z!r} gives no finite basis size: "
                          "z must be finite, with |z| below about 354")
    return int(np.ceil(size))


def squeezed_vacuum(z: float, trunc: int | None = None) -> FockVector:
    """Squeezed vacuum with position width sigma_x = exp(-z), unit norm.

    Amplitudes occupy even levels only; they follow the two-step recurrence
    c_{2m+2} / c_{2m} = -tanh(z) sqrt((2m+1)(2m+2)) / (2(m+1)) starting from
    c_0 = 1/sqrt(cosh z). The untruncated state is normalized, so the retained
    weight directly measures the truncation loss.

    Args:
        z: squeeze parameter, either sign (z > 0 narrows x, z < 0 widens it).
        trunc: basis size; defaults to suggested_truncation(z).

    Raises:
        TruncationError: if the tail weight beyond ``trunc`` exceeds budget.
        DomainError: if ``suggested_truncation(z)`` is not finite.
    """
    suggested = suggested_truncation(z)
    if trunc is None:
        trunc = suggested
    if trunc < 2:
        raise ConfigurationError("squeezed_vacuum needs trunc >= 2")
    c = np.zeros(trunc)
    c[0] = 1.0 / np.sqrt(np.cosh(z))
    t = np.tanh(z)
    for j in range(2, trunc, 2):
        m = (j - 2) // 2
        c[j] = c[j - 2] * (-t) * np.sqrt((2 * m + 1) * (2 * m + 2)) / (2 * (m + 1))
    tail = 1.0 - float(np.sum(c * c))
    _refuse_loss(tail, f"trunc {trunc} keeps only 1 - {tail:.3e} of the squeezed vacuum; "
                       f"suggested trunc >= {suggested}", suggested_trunc=suggested)
    c /= np.linalg.norm(c)
    return FockVector(c)


def coherent_state(alpha: complex, trunc: int) -> FockVector:
    """Displaced vacuum with amplitude alpha, renormalized after truncation."""
    if not np.isfinite(alpha):
        raise DomainError("coherent amplitude must be finite")
    if trunc < 2:
        raise ConfigurationError("coherent_state needs trunc >= 2")
    amps = np.zeros(trunc, dtype=complex)
    # exp(-|alpha|^2 / 2) underflows to 0.0 past |alpha| ~ 38.6, long before
    # the square overflows (an OverflowError past ~1.34e154); a basis of zeros
    # is refused below
    size = abs(alpha)
    amps[0] = np.exp(-size ** 2 / 2.0) if size < 1e100 else 0.0
    for n in range(1, trunc):
        amps[n] = amps[n - 1] * alpha / np.sqrt(n)
    tail = 1.0 - float(np.sum(np.abs(amps) ** 2))
    _refuse_loss(tail, f"trunc {trunc} keeps only 1 - {tail:.3e} of the coherent state")
    return FockVector(amps / np.linalg.norm(amps))


def bogoliubov_annihilate(z: float, state: FockVector) -> FockVector:
    """Apply a cosh(z) - a^dag sinh(z) (hyperbolic mix of the ladder pair).

    Annihilates the squeezed vacuum whose position width is exp(+z), i.e.
    squeezed_vacuum(-z).
    """
    lo = annihilate(state)
    hi = create(state)
    return FockVector(np.cosh(z) * lo.amps - np.sinh(z) * hi.amps)


class OutcomeRatio(NamedTuple):
    ratio: complex
    residual: float


def outcome_ratio(state: FockVector) -> OutcomeRatio:
    """Proportionality between the subtracted and added outcomes.

    Computes the least-squares scalar c minimizing || a psi - c a^dag psi ||,
    c = <a^dag psi | a psi> / ||a^dag psi||^2, together with the relative
    residual || a psi - c a^dag psi || / || a psi ||. When the two outcomes
    are parallel (squeezed vacuum), c = -tanh(z) up to truncation noise.

    Raises:
        DegenerateInputError: when <n> is under _VACUUM_GAP (vacuum input: the
            ratio diverges there, the same exclusion as unit position width).
    """
    unit = FockVector(_unit(state.amps)[0])
    added = create(unit)
    subbed = annihilate(unit)
    sub_sq = float(np.vdot(subbed.amps, subbed.amps).real)
    norm_sq = float(np.vdot(unit.amps, unit.amps).real)
    if sub_sq < _VACUUM_GAP * norm_sq:
        raise DegenerateInputError(
            "outcome ratio undefined on (near-)vacuum input: the subtracted "
            "outcome vanishes, matching the unit-width exclusion"
        )
    add_sq = float(np.vdot(added.amps, added.amps).real)
    c = complex(np.vdot(added.amps, subbed.amps)) / add_sq
    res = float(np.linalg.norm(subbed.amps - c * added.amps) / np.sqrt(sub_sq))
    return OutcomeRatio(c, res)


def quadrature_moments(state: FockVector) -> tuple[float, float]:
    """Second moments (<x^2>, <p^2>), non-central so displacement is covered.

    Used to size phase-space grids: the grid must extend several times the
    root-mean-square spread in each quadrature. X psi = (a^dag psi + a psi)/sqrt(2)
    and, up to its phase i, P psi = (a^dag psi - a psi)/sqrt(2), with a^dag kept
    inside the basis; so truncated, X is real symmetric and P Hermitian, and
    <X^2> = ||X psi||^2 and <P^2> = ||P psi||^2 on the normalized amplitudes.
    """
    if not isinstance(state, FockVector):
        raise ConfigurationError(f"quadrature_moments cannot handle {type(state).__name__}")
    psi = state.normalized().amps
    up, down = _shift_up(psi), _shift_down(psi)
    x_psi = (up + down) / np.sqrt(2.0)
    p_psi = (up - down) / np.sqrt(2.0)  # P psi up to its phase i
    return float(np.vdot(x_psi, x_psi).real), float(np.vdot(p_psi, p_psi).real)
