import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sqvac import (
    ConfigurationError,
    DegenerateInputError,
    DomainError,
    FockVector,
    SqvacError,
    TruncationError,
    annihilate,
    bogoliubov_annihilate,
    coherent_state,
    create,
    outcome_ratio,
    quadrature_moments,
    squeezed_vacuum,
    state_grid,
    suggested_truncation,
)
from sqvac.fock import _kernel_state

LN2 = math.log(2.0)


def basis_vector(n, trunc):
    amps = np.zeros(trunc)
    amps[n] = 1.0
    return FockVector(amps)


def mean_photon(amps):
    w = np.abs(amps) ** 2
    return float(np.sum(np.arange(amps.size) * w) / np.sum(w))


def rotated(state, theta):
    """The phase rotation exp(i theta n): amplitudes times e^{+i n theta}."""
    return FockVector(state.amps * np.exp(1j * theta * np.arange(state.trunc)))


# Oracles: the squeeze and displacement unitaries as matrix exponentials of
# their generators, an independent route to the recurrence in sqvac.fock.

def lowering_matrix(trunc):
    """Matrix of the annihilation operator: a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1.0, trunc)), k=1)


def squeeze_operator(z, trunc, phi=0.0):
    """exp((zeta a^2 - zeta* a^dag^2) / 2) with zeta = z e^{i phi}."""
    zeta = z * np.exp(1j * phi)
    a = lowering_matrix(trunc)
    return scipy.linalg.expm((zeta * (a @ a) - np.conj(zeta) * (a.T @ a.T)) / 2.0)


def displacement_operator(alpha, trunc):
    """exp(alpha a^dag - alpha* a)."""
    a = lowering_matrix(trunc)
    return scipy.linalg.expm(alpha * a.T - np.conj(alpha) * a)


def kernel_shift(alpha, r):
    """beta = alpha cosh r - alpha* sinh r: D(alpha) moves a cosh r - a^dag sinh r
    to itself minus beta, so D(alpha) S(-r)|0> is the kernel of the shifted
    operator, the state _kernel_state(r, beta, trunc) builds."""
    return alpha * math.cosh(r) - np.conj(alpha) * math.sinh(r)


def displaced_squeezed_column(alpha, r, trunc, wide):
    """D(alpha) S(-r)|0> from the exponentials on ``wide`` levels, cut to ``trunc``
    and normalized there, with the phase that makes its vacuum amplitude positive."""
    col = (displacement_operator(alpha, wide) @ squeeze_operator(-r, wide)[:, 0])[:trunc]
    return col * (abs(col[0]) / col[0]) / np.linalg.norm(col)


# ------------------------------------------------------------- construction

def test_fock_vector_validation():
    with pytest.raises(ConfigurationError):
        FockVector(np.array([1.0]))
    with pytest.raises(ConfigurationError):
        FockVector(np.eye(3))
    with pytest.raises(DomainError):
        FockVector(np.array([1.0, math.nan]))
    with pytest.raises(DomainError):
        squeezed_vacuum(math.nan)
    with pytest.raises(DomainError):
        coherent_state(math.inf, 40)


# ---------------------------------------------------------- ladder algebra

def test_annihilate_on_number_state():
    out = annihilate(basis_vector(3, 8))
    assert out.amps[2] == pytest.approx(math.sqrt(3))
    assert np.count_nonzero(out.amps) == 1


def test_create_on_number_state():
    out = create(basis_vector(3, 8))
    assert out.amps[4] == pytest.approx(2.0)
    assert np.count_nonzero(out.amps) == 1


def test_create_refuses_at_basis_edge():
    with pytest.raises(TruncationError) as exc:
        create(basis_vector(7, 8))
    assert exc.value.lost_weight > 0


def top_weighted(trunc, top):
    """A normalized state whose top level holds weight ``top``, the rest in |0>."""
    amps = np.zeros(trunc)
    amps[0], amps[-1] = math.sqrt(1.0 - top), math.sqrt(top)
    return FockVector(amps)


def test_create_refuses_by_the_weight_it_loses():
    # |c_9|^2 = 5e-11 is under the budget, but a^dag sends trunc |c_9|^2 =
    # 5e-10 past the edge: that weight is compared, as it is reported
    with pytest.raises(TruncationError) as exc:
        create(top_weighted(10, 5e-11))
    assert exc.value.lost_weight == pytest.approx(5e-10, rel=1e-12)
    assert "lose weight 5.000e-10" in str(exc.value)


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-200, 1e200j])
def test_create_measures_its_loss_on_the_normalized_state(scale):
    # half the weight on |7> of 8 levels: a^dag loses 8 * 0.5 = 4 of the state
    # at any norm (on the raw amplitudes at norm 1e-6 the loss read 4e-12, and a
    # norm of 1e-200 squares to zero)
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = math.sqrt(0.5) * scale
    with pytest.raises(TruncationError) as exc:
        create(FockVector(amps))
    assert exc.value.lost_weight == pytest.approx(4.0, rel=1e-12)
    # nothing on |7>: accepted at the same norm, a^dag|0> = |1>
    amps[7] = 0.0
    np.testing.assert_array_equal(create(FockVector(amps)).amps,
                                  np.roll(amps, 1))
    with pytest.raises(DegenerateInputError):
        create(FockVector(np.zeros(8)))


@pytest.mark.parametrize("refused,lost", [
    (lambda: squeezed_vacuum(LN2, 32), 1.37e-8),
    (lambda: coherent_state(1.0, 11), 1.00e-8),
    (lambda: create(top_weighted(10, 1e-9)), 1.00e-8),
    # 1.077e-8 is the weight of D(alpha) S(-r)|0>'s exponential column past 24
    # levels; only a displaced squeezed state reads c_0's Re(beta^2) tanh r term,
    # which normalization hides everywhere else (dropped, the loss reads 0.18)
    (lambda: _kernel_state(0.4, kernel_shift(0.8 - 0.6j, 0.4), 24, "displaced"), 1.077e-8),
], ids=["squeezed", "coherent", "create", "displaced"])
def test_truncation_budget_is_pinned(refused, lost):
    # losses of about 1e-8: refused at the 1e-10 budget, and a budget moved
    # to 1e-6 accepts all four
    with pytest.raises(TruncationError) as exc:
        refused()
    assert exc.value.lost_weight == pytest.approx(lost, rel=5e-3)


@pytest.mark.parametrize("z", [0.0, 0.4, -0.9])
def test_ladder_norm_gap_is_one(z):
    # ||a^dag psi||^2 - ||a psi||^2 == ||psi||^2 for any normalized psi
    psi = squeezed_vacuum(z, 96)
    gap = create(psi).norm() ** 2 - annihilate(psi).norm() ** 2
    assert gap == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------- squeezed vacuum

def test_squeezed_vacuum_amplitudes():
    st_ = squeezed_vacuum(LN2, 68)
    # c0 = 1/sqrt(cosh ln 2) = sqrt(4/5); recurrence gives c2, c4
    assert st_.amps[0].real == pytest.approx(0.8944271909999159, rel=1e-14)
    assert st_.amps[2].real == pytest.approx(-0.37947331922020555, rel=1e-13)
    assert st_.amps[4].real == pytest.approx(0.1971801207018598, rel=1e-13)
    assert np.all(st_.amps[1::2] == 0)
    assert st_.norm() == pytest.approx(1.0, abs=1e-13)


def test_squeezed_vacuum_mean_photon():
    # sinh^2(ln 2) = (3/4)^2
    assert mean_photon(squeezed_vacuum(LN2, 68).amps) == pytest.approx(0.5625, abs=1e-10)


@pytest.mark.parametrize(
    "z,n", [(0.0, 32), (0.1, 33), (LN2, 68), (1.0, 121)]
)
def test_suggested_truncation(z, n):
    assert suggested_truncation(z) == n


@pytest.mark.parametrize("z", [400.0, -400.0, 1000.0, math.inf, math.nan])
def test_no_finite_basis_is_a_domain_error(z, recwarn):
    # 32 cosh 2z overflows: no int(ceil(inf)) OverflowError, and no overflow
    # warning, with or without a basis size of one's own
    with pytest.raises(DomainError):
        suggested_truncation(z)
    with pytest.raises(DomainError):
        squeezed_vacuum(z, 100)
    assert [str(w.message) for w in recwarn] == []


def test_squeezed_vacuum_refuses_small_basis():
    with pytest.raises(TruncationError) as exc:
        squeezed_vacuum(1.0, 40)
    assert exc.value.suggested_trunc == 121
    assert exc.value.lost_weight > 1e-10


def test_negative_z_widens_x():
    x2, p2 = quadrature_moments(squeezed_vacuum(-LN2, 68))
    assert x2 == pytest.approx(2.0, abs=1e-6)    # sigma_x = 2
    assert p2 == pytest.approx(0.125, abs=1e-6)  # sigma_p = 1/2


# ----------------------------------------------------------- coherent state

def test_coherent_amplitudes():
    st_ = coherent_state(1.0, 40)
    for n in (0, 1, 3):
        expect = math.exp(-0.5) / math.sqrt(math.factorial(n))
        assert st_.amps[n].real == pytest.approx(expect, rel=1e-12)
    assert mean_photon(st_.amps) == pytest.approx(1.0, abs=1e-12)


def test_coherent_refuses_small_basis():
    with pytest.raises(TruncationError):
        coherent_state(3.0, 10)


@pytest.mark.parametrize("alpha", [1e20, 1.4e154, 1e200 + 1e200j, -1e308])
def test_coherent_refuses_an_amplitude_no_basis_holds(recwarn, alpha):
    # squaring |alpha| past ~1.34e154 raised OverflowError; every such state
    # leaves an empty basis, refused like |alpha| = 1e20
    with pytest.raises(TruncationError, match="keeps only 1 - 1.000e\\+00"):
        coherent_state(alpha, 40)
    assert [str(w.message) for w in recwarn] == []


def test_coherent_quadratures():
    x2, p2 = quadrature_moments(coherent_state(1.0, 40))
    assert x2 == pytest.approx(2.5, abs=1e-8)  # (sqrt(2))^2 + 1/2
    assert p2 == pytest.approx(0.5, abs=1e-8)


# ------------------------------------------------- exponentiated generators

def test_squeeze_operator_matches_recurrence():
    for z in (0.3, -0.3):
        col = squeeze_operator(z, 64) @ np.eye(64)[0]
        ref = squeezed_vacuum(z, 64).amps
        assert np.max(np.abs(col - ref)) < 1e-12


def test_squeeze_operator_unitary():
    s = squeeze_operator(LN2, 68)
    assert np.max(np.abs(s.conj().T @ s - np.eye(68))) < 1e-12


def test_displacement_matches_coherent_recurrence():
    col = displacement_operator(1.0, 40) @ np.eye(40)[0]
    assert np.max(np.abs(col - coherent_state(1.0, 40).amps)) < 1e-12


@pytest.mark.parametrize("r,alpha,trunc,wide", [
    (0.5, 1.0 + 0.5j, 64, 128),
    (-0.5, -1.2 + 0.7j, 64, 128),
    (0.9, 3.0j, 96, 192),
    (-1.0, 2.0 - 2.0j, 128, 256),
    (-1.2, 2.0 + 2.0j, 513, 576),  # the transform's 513-level cap
])
def test_kernel_state_is_the_displaced_squeezed_vacuum(r, alpha, trunc, wide):
    # the constructor encodes only (a cosh r - a^dag sinh r - beta) psi = 0; the
    # exponentials D(alpha) S(-r) build the same state with no recurrence
    state = _kernel_state(r, kernel_shift(alpha, r), trunc, "displaced")
    col = displaced_squeezed_column(alpha, r, trunc, wide)
    assert np.max(np.abs(state.amps - col)) < 1e-12


# ------------------------------------------------------------ outcome ratio

@pytest.mark.parametrize("z", [0.1, LN2, 1.0])
def test_outcome_ratio_squeezed(z):
    res = outcome_ratio(squeezed_vacuum(z, suggested_truncation(z)))
    assert abs(res.ratio - (-math.tanh(z))) < 1e-6
    assert res.residual < 1e-6


def test_outcome_ratio_rotated_squeezed():
    # a psi = -tanh(z) e^{2i theta} a^dag psi for the rotated squeezed vacuum;
    # the phase fixes the order of the overlap in the least-squares ratio
    theta = 0.3
    psi = rotated(squeezed_vacuum(LN2, 68), theta)
    res = outcome_ratio(psi)
    assert abs(res.ratio - (-math.tanh(LN2) * np.exp(2j * theta))) < 1e-6
    assert res.residual < 1e-6
    # the same state is the squeeze of phase -2 theta (oracle on a wider basis)
    col = squeeze_operator(LN2, 136, phi=-2.0 * theta)[:68, 0]
    assert np.max(np.abs(col - psi.amps)) < 1e-12


def test_outcome_ratio_vacuum_degenerate():
    with pytest.raises(DegenerateInputError):
        outcome_ratio(basis_vector(0, 16))


@pytest.mark.parametrize("mean_n,refused", [(1e-9, False), (1e-13, True)],
                         ids=["accepted", "refused"])
def test_fock_vacuum_gap_is_pinned(mean_n, refused):
    # sqrt(1 - <n>)|0> + sqrt(<n>)|1>: ||a psi||^2 = <n> on the unit amplitudes,
    # accepted at 1e-9 and refused at 1e-13 by the 1e-12 gap; a gap moved to
    # 1e-6 refuses the first and one moved to 1e-15 accepts the second
    psi = FockVector(np.array([math.sqrt(1.0 - mean_n), math.sqrt(mean_n), 0.0, 0.0]))
    if refused:
        with pytest.raises(DegenerateInputError, match="vacuum"):
            outcome_ratio(psi)
    else:
        res = outcome_ratio(psi)
        assert abs(res.ratio) < 1e-8 and res.residual == pytest.approx(1.0, abs=1e-8)


def test_outcome_ratio_single_photon_orthogonal():
    # a|1> = |0> and a^dag|1> = sqrt(2)|2> are orthogonal: zero overlap,
    # full residual.
    res = outcome_ratio(basis_vector(1, 16))
    assert abs(res.ratio) < 1e-14
    assert res.residual == pytest.approx(1.0, abs=1e-12)


def test_outcome_ratio_coherent():
    # alpha = 1: <a^dag psi|a psi> = alpha^2, ||a^dag psi||^2 = 1 + |alpha|^2
    res = outcome_ratio(coherent_state(1.0, 40))
    assert res.ratio == pytest.approx(0.5 + 0.0j, abs=1e-8)
    assert res.residual == pytest.approx(math.sqrt(0.5), abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(
    z=st.floats(min_value=0.05, max_value=1.2),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_outcome_ratio_tracks_tanh(z, sign):
    res = outcome_ratio(squeezed_vacuum(sign * z, 192))
    assert abs(res.ratio - (-math.tanh(sign * z))) < 1e-6
    assert res.residual < 1e-6


# -------------------------------------------------------- hyperbolic ladder

@pytest.mark.parametrize("z", [0.1, LN2, 1.0])
def test_bogoliubov_annihilates_partner_state(z):
    psi = squeezed_vacuum(-z, suggested_truncation(z) + 8)
    assert bogoliubov_annihilate(z, psi).norm() < 1e-6


def test_bogoliubov_wrong_pairing_is_loud():
    psi = squeezed_vacuum(0.6, 96)
    assert bogoliubov_annihilate(0.6, psi).norm() > 0.1


def test_bogoliubov_on_vacuum():
    # (a cosh z - a^dag sinh z)|0> = -sinh(z)|1>
    out = bogoliubov_annihilate(LN2, basis_vector(0, 8))
    assert out.amps[1].real == pytest.approx(-0.75, rel=1e-14)
    assert np.count_nonzero(out.amps) == 1


# ----------------------------------------------------------------- metrics

def test_state_metrics_pure():
    amps = squeezed_vacuum(-LN2, 68).amps  # sigma_x = 2
    weights = np.abs(amps) ** 2
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-13)
    assert weights @ np.arange(68) == pytest.approx(0.5625, abs=1e-10)  # sinh^2(ln 2)


def test_quadrature_moments_density_matrix():
    # Tr(rho X^2) = ||X psi||^2 for rho = |psi><psi|; |1> has <n + 1/2> = 1.5
    # in each quadrature
    assert quadrature_moments(basis_vector(1, 8)) == pytest.approx((1.5, 1.5), abs=1e-12)
    wide = squeezed_vacuum(-LN2, 68)  # sigma_x = 2
    assert quadrature_moments(wide) == pytest.approx((2.0, 0.125), abs=1e-6)
    # the moments are those of the normalized state
    tripled = FockVector(3.0 * wide.amps)
    assert quadrature_moments(tripled) == pytest.approx(quadrature_moments(wide), rel=1e-14)
    with pytest.raises(ConfigurationError):
        quadrature_moments(np.outer(wide.amps, wide.amps))


# ------------------------------------------------------------- the converse

_AMPLITUDE_PARTS = st.floats(min_value=-1.0, max_value=1.0, allow_subnormal=False)


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(st.tuples(_AMPLITUDE_PARTS, _AMPLITUDE_PARTS), min_size=1, max_size=57))
def test_outcome_residual_is_the_moment_formula(parts):
    # for a pure state whose top levels are empty, <a^dag psi, a psi> = <a^2>,
    # ||a psi||^2 = <n> and ||a^dag psi||^2 = <n> + 1, so the least-squares
    # defect is sqrt(1 - |<a^2>|^2 / (<n> (<n> + 1))): zero exactly when a
    # Bogoliubov operator annihilates psi
    amps = np.array([complex(re, im) for re, im in parts] + [0.0] * 3)
    assume(np.linalg.norm(amps) > 1e-3)
    psi = amps / np.linalg.norm(amps)
    n = np.arange(psi.size)
    mean_n = float(np.sum(n * np.abs(psi) ** 2))
    assume(mean_n > 1e-6)  # outcome_ratio refuses near-vacuum input
    a_squared = complex(np.sum(np.conj(psi[:-2]) * psi[2:] * np.sqrt(n[2:] * (n[2:] - 1))))
    defect_sq = 1.0 - abs(a_squared) ** 2 / (mean_n * (mean_n + 1.0))
    res = outcome_ratio(FockVector(amps))
    assert res.residual ** 2 == pytest.approx(defect_sq, abs=1e-12)
    assert res.residual == pytest.approx(math.sqrt(max(defect_sq, 0.0)), abs=1e-6)


# ------------------------------------------------------------ scale invariance

_UNIT_PARTS = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0),
                        st.floats(min_value=-1.0, max_value=-1e-6))


def _scaled(amps, k):
    """amps * 2^k, exact while every nonzero part stays in the normal range."""
    return np.ldexp(amps.real, k) + 1j * np.ldexp(amps.imag, k)


def _outcome(fn, state):
    """fn(state) as exact text, or the refusal it raised: repr keeps every bit."""
    try:
        return repr(fn(state))
    except SqvacError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=100, deadline=None)
@given(parts=st.lists(st.tuples(_UNIT_PARTS, _UNIT_PARTS), min_size=1, max_size=8),
       k=st.integers(min_value=-1000, max_value=1000))
# |0> + |1> at 2^-664 ~ 1e-200, once refused as near-vacuum, and at 2^1000
@example(parts=[(1.0, 0.0), (1.0, 0.0)], k=-664)
@example(parts=[(1.0, 0.0), (1.0, 0.0)], k=1000)
def test_results_keep_their_bits_at_any_power_of_two(parts, k):
    # |parts| in [1e-6, 1] times 2^k with |k| <= 1000 stay finite and normal,
    # so 2^k psi is exactly psi scaled, and every result must be too; the
    # empty top level keeps create's loss at zero
    amps = np.array([complex(re, im) for re, im in parts] + [0.0])
    assume(np.any(amps != 0.0))
    psi, big = FockVector(amps), FockVector(_scaled(amps, k))
    assert np.array_equal(big.normalized().amps.view(np.uint64),
                          psi.normalized().amps.view(np.uint64))
    assert repr(math.ldexp(big.norm(), -k)) == repr(psi.norm())
    for fn in (quadrature_moments, outcome_ratio,
               lambda state: state_grid(state, 33).values.tobytes()):
        assert _outcome(fn, big) == _outcome(fn, psi)


_ANY_PARTS = st.floats(min_value=-1.7e308, max_value=1.7e308)


@settings(max_examples=100, deadline=None)
@given(parts=st.lists(st.tuples(_ANY_PARTS, _ANY_PARTS), min_size=1, max_size=6))
@example(parts=[(5e-324, -5e-324), (5e-324, 0.0)])
@example(parts=[(1.7e308, 1.7e308), (-1.7e308, 1.7e308)])
@example(parts=[(1.7e308, 5e-324), (1e-200, 0.0)])
def test_outcome_ratio_finite_or_refused_at_any_magnitude(parts):
    # an empty top level lets create pass, so the ratio itself is reached
    amps = np.array([complex(re, im) for re, im in parts] + [0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            res = outcome_ratio(FockVector(amps))
        except (DegenerateInputError, TruncationError):
            return
    assert np.isfinite(res.ratio) and np.isfinite(res.residual)
