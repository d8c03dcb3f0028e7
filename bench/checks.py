"""Output checks computed apart from sqvac.

Nothing here imports sqvac. Every expected value comes from numpy, scipy or
a closed form written out below, so a check cannot pass because the program
and the check share a mistake:

* gaussian Wigner functions and their one-photon outcomes, from the Moyal
  form of a^dag and a acting on W (derivatives taken analytically);
* the angular average exp(-alpha s) I0(beta s) / pi, its outcomes and its
  purity, through ``scipy.special.i0e``, ``i1e`` and ``ellipk``;
* number-basis amplitudes of squeezed and coherent states, through
  ``scipy.special.gammaln``;
* the norm ratio R = <a a^dag> / <a^dag a> and the commutator
  <a a^dag> - <a^dag a> = 1;
* a Simpson sum of its own for grid integrals.

A failed check raises ``CheckError`` with a one-line reason.
"""

import json
import math
from typing import NamedTuple

import numpy as np
from scipy import special

GRID_MAGIC = "wigner-grid-v1"
INV_PI = 1.0 / math.pi


class CheckError(Exception):
    """An output that is missing, malformed or numerically wrong."""


def require(cond, message: str):
    if not cond:
        raise CheckError(message)


# --- files ---

def _reject_constant(name):
    raise CheckError(f"non-standard JSON constant {name}")


def load_strict_json(path):
    """Parse JSON that must be standard: no NaN/Infinity, every number finite."""
    try:
        with open(path) as fh:
            obj = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise CheckError(f"{path}: {exc.strerror}") from None
    except ValueError as exc:
        raise CheckError(f"{path}: not JSON ({exc})") from None
    _require_finite(obj, path)
    return obj


def _require_finite(obj, where):
    if isinstance(obj, float):
        require(math.isfinite(obj), f"{where}: non-finite number {obj!r}")
    elif isinstance(obj, dict):
        for value in obj.values():
            _require_finite(value, where)
    elif isinstance(obj, list):
        for value in obj:
            _require_finite(value, where)


class Grid(NamedTuple):
    nx: int
    num_p: int
    dx: float
    dp: float
    xs: np.ndarray
    ps: np.ndarray
    values: np.ndarray


def read_grid_header(path) -> dict:
    """The layout line '# wigner-grid-v1 x0 dx nx p0 dp np' of a grid CSV."""
    try:
        with open(path) as fh:
            header = fh.readline().split()
    except OSError as exc:
        raise CheckError(f"{path}: {exc.strerror}") from None
    require(len(header) == 8 and header[:2] == ["#", GRID_MAGIC],
            f"{path}: bad grid header {' '.join(header)!r}")
    try:
        return {"x0": float(header[2]), "dx": float(header[3]), "nx": int(header[4]),
                "p0": float(header[5]), "dp": float(header[6]), "np": int(header[7])}
    except ValueError:
        raise CheckError(f"{path}: bad grid header {' '.join(header)!r}") from None


def read_grid(path) -> Grid:
    """Read a grid CSV; coordinates must equal x0 + k*dx bit for bit."""
    h = read_grid_header(path)
    x0, dx, nx, p0, dp, num_p = h["x0"], h["dx"], h["nx"], h["p0"], h["dp"], h["np"]
    try:
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except ValueError as exc:
        raise CheckError(f"{path}: unparsable row ({exc})") from None
    require(data.shape == (nx * num_p, 3),
            f"{path}: {data.shape} table for a {nx}x{num_p} grid")
    xs = x0 + np.arange(nx) * dx
    ps = p0 + np.arange(num_p) * dp
    require(np.array_equal(data[:, 0], np.repeat(xs, num_p)),
            f"{path}: x column differs from x0 + k*dx")
    require(np.array_equal(data[:, 1], np.tile(ps, nx)),
            f"{path}: p column differs from p0 + k*dp")
    values = data[:, 2].reshape(nx, num_p)
    require(np.all(np.isfinite(values)), f"{path}: non-finite grid values")
    return Grid(nx, num_p, dx, dp, xs, ps, values)


def simpson(grid: Grid, values=None) -> float:
    """Tensor-product Simpson sum (weights 1 4 2 ... 4 1, times h/3)."""
    v = grid.values if values is None else values

    def weights(n, h):
        w = np.full(n, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        return w * (h / 3.0)

    return float(weights(grid.nx, grid.dx) @ v @ weights(grid.num_p, grid.dp))


def origin_value(grid: Grid) -> float:
    require(grid.nx % 2 == 1 and grid.num_p % 2 == 1, "origin is not a grid point")
    i, j = grid.nx // 2, grid.num_p // 2
    require(abs(grid.xs[i]) < 1e-9 and abs(grid.ps[j]) < 1e-9, "grid is not centred")
    return float(grid.values[i, j])


def parse_keyed(stdout: str) -> dict:
    """Lines 'name=value' from a command's stdout, as floats."""
    out = {}
    for line in stdout.splitlines():
        name, sep, value = line.partition("=")
        if sep:
            try:
                out[name.strip()] = float(value)
            except ValueError:
                raise CheckError(f"unparsable output line {line!r}") from None
    return out


# --- gaussian closed forms ---

class Component(NamedTuple):
    """Rotated gaussian: weight, angle, variances a = sigma_x^2, b = sigma_p^2,
    centre (cx, cp)."""

    weight: float
    theta: float
    a: float
    b: float
    cx: float = 0.0
    cp: float = 0.0

    def added_weight(self) -> float:
        """<a a^dag> = <n> + 1 with <n> = (a + b)/4 - 1/2 + (cx^2 + cp^2)/2."""
        return (self.a + self.b + 2.0) / 4.0 + (self.cx ** 2 + self.cp ** 2) / 2.0

    def subtracted_weight(self) -> float:
        return (self.a + self.b - 2.0) / 4.0 + (self.cx ** 2 + self.cp ** 2) / 2.0


def pure_component(sigma_x, theta=0.0, weight=1.0) -> Component:
    return Component(weight, theta, sigma_x ** 2, sigma_x ** -2)


def _terms(c: Component, x, p):
    ct, st = math.cos(c.theta), math.sin(c.theta)
    u = (x - c.cx) * ct + (p - c.cp) * st
    v = (p - c.cp) * ct - (x - c.cx) * st
    w = np.exp(-u * u / c.a - v * v / c.b) / (math.pi * math.sqrt(c.a * c.b))
    qx = 2.0 * u * ct / c.a - 2.0 * v * st / c.b    # d/dx of the exponent
    qp = 2.0 * u * st / c.a + 2.0 * v * ct / c.b
    # x Wx + p Wp = -(x qx + p qp) W;  Laplacian W = (|grad q|^2 - tr Hess q) W
    drift = -(x * qx + p * qp)
    lap = 4.0 * u * u / c.a ** 2 + 4.0 * v * v / c.b ** 2 - 2.0 / c.a - 2.0 / c.b
    return w, drift, lap


def gaussian_wigner(comps, x, p):
    return sum(c.weight * _terms(c, x, p)[0] for c in comps)


def gaussian_outcomes(comps, x, p):
    """Renormalized added and subtracted Wigner functions of a mixture.

    a^dag acts as A = (r^2 - 1) W/2 - (x Wx + p Wp)/2 + lap W/8 and a as
    S = (r^2 + 1) W/2 + (x Wx + p Wp)/2 + lap W/8 (Moyal products).
    """
    r2 = x * x + p * p
    added = 0.0
    subtracted = 0.0
    for c in comps:
        w, drift, lap = _terms(c, x, p)
        added = added + c.weight * w * ((r2 - 1.0) / 2.0 - drift / 2.0 + lap / 8.0)
        subtracted = subtracted + c.weight * w * ((r2 + 1.0) / 2.0 + drift / 2.0 + lap / 8.0)
    na = sum(c.weight * c.added_weight() for c in comps)
    ns = sum(c.weight * c.subtracted_weight() for c in comps)
    return added / na, subtracted / ns


def norm_ratio(comps) -> float:
    return (sum(c.weight * c.added_weight() for c in comps)
            / sum(c.weight * c.subtracted_weight() for c in comps))


# --- angular average ---

def _angavg_coefficients(sigma_x):
    s2 = sigma_x ** 2
    return (s2 * s2 + 1.0) / (2.0 * s2), abs(s2 * s2 - 1.0) / (2.0 * s2)


def angavg_wigner(sigma_x, x, p):
    alpha, beta = _angavg_coefficients(sigma_x)
    s = x * x + p * p
    return np.exp((beta - alpha) * s) * special.i0e(beta * s) / math.pi


def angavg_outcomes(sigma_x, x, p):
    """Renormalized outcomes of W(s) = exp(-alpha s) I0(beta s)/pi, s = r^2.

    With radial derivatives W_s, W_ss: x Wx + p Wp = 2 s W_s and
    lap W = 4 (W_s + s W_ss).
    """
    alpha, beta = _angavg_coefficients(sigma_x)
    s = x * x + p * p
    u = beta * s
    scale = np.exp((beta - alpha) * s) / math.pi
    i0, i1 = special.i0e(u), special.i1e(u)
    i1_over_u = np.where(u > 1e-300, i1 / np.where(u > 1e-300, u, 1.0), 0.5)
    w = scale * i0
    w_s = scale * (-alpha * i0 + beta * i1)
    w_ss = scale * (alpha ** 2 * i0 - 2.0 * alpha * beta * i1 + beta ** 2 * (i0 - i1_over_u))
    lap8 = (w_s + s * w_ss) / 2.0
    added = (s - 1.0) * w / 2.0 - s * w_s + lap8
    subtracted = (s + 1.0) * w / 2.0 + s * w_s + lap8
    comp = pure_component(sigma_x)
    return added / comp.added_weight(), subtracted / comp.subtracted_weight()


def angavg_log10_profile(sigma_x, radius):
    alpha, beta = _angavg_coefficients(sigma_x)
    s = radius * radius
    return ((beta - alpha) * s / math.log(10.0) + np.log10(special.i0e(beta * s))
            - math.log10(math.pi))


def angavg_purity(sigma_x):
    """4 sigma^2 K(m) / (pi (1 + sigma^4)), m = ((1 - sigma^4)/(1 + sigma^4))^2."""
    s4 = sigma_x ** 4
    m = ((1.0 - s4) / (1.0 + s4)) ** 2
    return 4.0 * sigma_x ** 2 * special.ellipk(m) / (math.pi * (1.0 + s4))


# --- number basis ---

def squeezed_amplitudes(z, trunc):
    """<2m|S(z)|0> = (-tanh z)^m sqrt((2m)!) / (2^m m! sqrt(cosh z))."""
    m = np.arange((trunc + 1) // 2)
    log_mag = (0.5 * special.gammaln(2 * m + 1) - m * math.log(2.0)
               - special.gammaln(m + 1) + m * math.log(abs(math.tanh(z)) or 1e-300)
               - 0.5 * math.log(math.cosh(z)))
    amps = np.zeros(trunc)
    amps[0::2] = np.sign(-math.tanh(z)) ** m * np.exp(log_mag)
    return amps


def coherent_amplitudes(alpha, trunc):
    """<n|alpha> = exp(-|alpha|^2/2) alpha^n / sqrt(n!) for real alpha > 0."""
    n = np.arange(trunc)
    return np.exp(-alpha * alpha / 2.0 + n * math.log(alpha) - 0.5 * special.gammaln(n + 1))


def check_fock_state(obj, exact, where: str):
    """A fock-v1 state must match the exact amplitudes of its first ``trunc``
    levels, renormalized after the cut, and the cut may lose at most 1e-8 of
    the exact state's weight."""
    require(obj.get("format") == "fock-v1", f"{where}: format {obj.get('format')!r}")
    amps = np.array([complex(re, im) for re, im in obj["amps"]])
    require(len(amps) == obj["trunc"] == len(exact), f"{where}: amps length disagrees with trunc")
    kept = float(np.sum(np.abs(exact) ** 2))
    require(kept >= 1.0 - 1e-8, f"{where}: truncation keeps only {kept!r}")
    err = float(np.max(np.abs(amps - exact / math.sqrt(kept))))
    require(err <= 1e-12, f"{where}: amplitudes off by {err:.3e}")


# --- verification reports ---

def check_report(path, suite: str) -> int:
    """A report must be strict JSON for ``suite`` with every case passing;
    returns the number of cases."""
    obj = load_strict_json(path)
    require(obj.get("suite") == suite, f"{path}: suite {obj.get('suite')!r}")
    cases = obj.get("cases")
    require(isinstance(cases, list) and cases, f"{path}: no cases")
    for case in cases:
        label = case.get("label")
        measured, bound = case.get("measured"), case.get("bound")
        require(isinstance(measured, (int, float)) and isinstance(bound, (int, float)),
                f"{path}: case {label!r} lacks numbers")
        require(case.get("pass") is True and measured <= bound,
                f"{path}: case {label!r} fails ({measured!r} > {bound!r})")
    return len(cases)
