"""The three workloads, as sqvac command lines with a check for each operation.

A workload is a list of ``Command``s run in order, each one ``sqvac`` process
(or one ``sqvac.cli.main`` call in the traced run). A command carries one or
more named operations; each operation has a check that reads the command's
exit code, stdout and output files, and raises ``CheckError`` when anything is
wrong. Checks run after the timed round, so they never count in ``wall_s``.

Inputs depend only on the seed. The seed draws the pure-state and mixture
parameters from ranges that keep every grid at 257 (or 769) points and every
truncation unchanged; everything else is fixed.
"""

import math
import os
import random
from typing import Callable, NamedTuple

import numpy as np

import checks as ck
from checks import Component, CheckError, require

WORKLOADS = ("verify-all", "cli-pipeline", "figures")

SUITES = ("pure-identity", "impure-difference", "fock-ratio", "commutator",
          "mixtures", "angular-average", "bogoliubov", "negative-cases")
FIGURES = ("fig1", "fig2", "fig3")


class Result(NamedTuple):
    code: int
    stdout: str
    stderr: str


def _output_written(argv) -> bool:
    return os.path.exists(argv[list(argv).index("-o") + 1])


class Fault(NamedTuple):
    cause: str
    symptom: Callable  # (argv, Result) -> bool: the failure seen today


#: Operations that fail on every run because of a known program fault. A
#: failure that shows the fault's symptom counts in ``failed`` but leaves
#: ``correct`` true; any other failure, of these operations too, does not.
KNOWN_FAULTS = {
    "squeezed-z1:residual": Fault(
        "Simpson weights in the y integral of wigner_from_density leave a ghost "
        "at the p edge",
        lambda argv, res: res.code == 2 and "boundary values reach" in res.stderr),
    "vacuum:add": Fault(
        "add/sub divide the outcome integrals without the degenerate-integral guard",
        lambda argv, res: res.code == 0 and _output_written(argv)),
}


class Command(NamedTuple):
    argv: tuple
    checks: tuple  # ((operation name, check(Result)), ...)


def _fd_tol(dx: float, width: float) -> float:
    """Error budget of a 4th-order stencil: 4 (dx / narrowest width)^4."""
    return 4.0 * (dx / width) ** 4


def _max_rel_err(values, expected) -> float:
    return float(np.max(np.abs(values - expected)) / np.max(np.abs(expected)))


def _require_close(name, got, want, rel):
    require(math.isfinite(got) and abs(got - want) <= rel * abs(want),
            f"{name}={got!r}, expected {want!r}")


def _printed_path(result: Result, path: str):
    require(result.code == 0, f"exit {result.code}: {result.stderr.strip()[-200:]}")
    require(result.stdout.splitlines()[:1] == [path], f"did not print {path}")


def _check_outcome_grid(path, expected_fn, width, identity_holds):
    g = ck.read_grid(path)
    x, p = np.meshgrid(g.xs, g.ps, indexing="ij")
    tol = _fd_tol(g.dx, width)
    err = _max_rel_err(g.values, expected_fn(x, p))
    require(err <= tol, f"{path}: differs from the closed form by {err:.3e} (> {tol:.3e})")
    total = ck.simpson(g)
    require(abs(total - 1.0) <= 1e-10, f"{path}: renormalized integral {total!r}")
    if identity_holds:
        origin = ck.origin_value(g)
        require(abs(origin + ck.INV_PI) <= tol * ck.INV_PI,
                f"{path}: origin value {origin!r}, expected -1/pi")
    return g


# --- verify-all ---

def verify_all(work: str, seed: int) -> list:
    out = os.path.join(work, "reports")

    def suite_check(name):
        def check(result: Result):
            require(result.code in (0, 1), f"exit {result.code}: {result.stderr.strip()[-200:]}")
            lines = [ln for ln in result.stdout.splitlines() if ln.startswith(name + ":")]
            require(len(lines) == 1 and lines[0].startswith(f"{name}: PASS ("),
                    f"stdout says {lines!r}")
            n = ck.check_report(os.path.join(out, f"verify_{name}.json"), name)
            require(lines[0] == f"{name}: PASS ({n} cases)",
                    f"stdout {lines[0]!r} disagrees with {n} report cases")
        return check

    return [Command(("verify", "--suite", "all", "-o", out),
                    tuple((f"suite:{s}", suite_check(s)) for s in SUITES))]


# --- cli-pipeline ---

class Input(NamedTuple):
    name: str
    state_args: tuple
    model: Callable          # (x, p) -> (W, A_renorm, S_renorm), closed form
    ratio: float             # <a a^dag> / <a^dag a>
    added_weight: float      # <a a^dag>
    width: float             # narrowest width, sets the stencil error budget
    points: int              # default grid size
    state_check: Callable    # (state JSON object) -> None
    identity_holds: bool     # pure or equally squeezed: A and S coincide
    floor: float = 0.0       # residual floor when the identity breaks
    transform: bool = False  # number-basis input: grid made by the transform


def _gauss_model(comps):
    def model(x, p):
        return (ck.gaussian_wigner(comps, x, p),) + ck.gaussian_outcomes(comps, x, p)
    return model


def _angavg_model(sigma_x):
    def model(x, p):
        return (ck.angavg_wigner(sigma_x, x, p),) + ck.angavg_outcomes(sigma_x, x, p)
    return model


def _gauss_state_check(comps):
    def check(obj):
        require(obj.get("format") == "gauss-v1", f"format {obj.get('format')!r}")
        got = obj["components"]
        require(len(got) == len(comps), f"{len(got)} components")
        for c, g in zip(comps, got):
            dtheta = (g["theta"] - c.theta) % math.pi
            require(abs(g["weight"] - c.weight) <= 1e-12
                    and min(dtheta, math.pi - dtheta) <= 1e-12
                    and abs(g["sigma_x"] ** 2 - c.a) <= 1e-12 * c.a
                    and abs(g["sigma_p"] ** 2 - c.b) <= 1e-12 * c.b,
                    f"component {g!r} differs from {c!r}")
    return check


def _gauss_input(name, state_args, comps, identity_holds, floor=0.0, points=257):
    width = min(math.sqrt(min(c.a, c.b)) for c in comps)
    return Input(name, state_args, _gauss_model(comps), ck.norm_ratio(comps),
                 sum(c.weight * c.added_weight() for c in comps), width, points,
                 _gauss_state_check(comps), identity_holds, floor)


def _fock_input(name, state_args, comp, exact_amps, identity_holds, floor=0.0):
    def state_check(obj):
        ck.check_fock_state(obj, exact_amps(obj["trunc"]), name)
    return Input(name, state_args, _gauss_model([comp]), ck.norm_ratio([comp]),
                 comp.added_weight(), math.sqrt(min(comp.a, comp.b)), 257,
                 state_check, identity_holds, floor, transform=True)


def pipeline_inputs(seed: int) -> list:
    """The cli-pipeline inputs; the seed moves only the pure and mixture ones."""
    rng = random.Random(seed)
    sx = rng.uniform(1.5, 2.5)
    th = rng.uniform(0.0, math.pi)
    msx = rng.uniform(1.5, 2.5)
    weight = rng.uniform(0.2, 0.8)
    th1, th2 = rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi)
    r = repr
    sq_z = math.log(2.0)

    angavg_comp = ck.pure_component(2.2)
    angavg = Input(
        "angular-average", ("--kind", "angular-average", "--sigma-x", "2.2"),
        _angavg_model(2.2), ck.norm_ratio([angavg_comp]), angavg_comp.added_weight(),
        1.0 / 2.2, 257,
        lambda obj: require(obj == {"format": "angavg-v1", "sigma_x": 2.2}, f"state {obj!r}"),
        True)
    return [
        _gauss_input("pure", ("--kind", "pure", "--sigma-x", r(sx), "--theta", r(th)),
                     [ck.pure_component(sx, th)], True),
        _gauss_input("impure", ("--kind", "impure", "--sigma-x", "4", "--sigma-p", "0.5"),
                     [Component(1.0, 0.0, 16.0, 0.25)], False, floor=0.05, points=513),
        _gauss_input("mixture", ("--kind", "mixture", "--sigma-x", r(msx), "--weight", r(weight),
                                 "--theta", r(th1), "--theta2", r(th2)),
                     [ck.pure_component(msx, th1, weight),
                      ck.pure_component(msx, th2, 1.0 - weight)], True),
        angavg,
        _fock_input("coherent", ("--kind", "coherent", "--alpha", "1"),
                    Component(1.0, 0.0, 1.0, 1.0, math.sqrt(2.0)),
                    lambda n: ck.coherent_amplitudes(1.0, n), False, floor=0.1),
        _fock_input("squeezed", ("--kind", "squeezed", "--z", r(sq_z)),
                    ck.pure_component(math.exp(-sq_z)),
                    lambda n: ck.squeezed_amplitudes(sq_z, n), True),
        _fock_input("squeezed-z1", ("--kind", "squeezed", "--z", "1"),
                    ck.pure_component(math.exp(-1.0)),
                    lambda n: ck.squeezed_amplitudes(1.0, n), True),
    ]


class _Pipeline:
    """Builds one input's commands and checks; shares grids between checks."""

    def __init__(self, work: str, inp: Input):
        self.inp = inp
        self.base = os.path.join(work, inp.name)
        self.state = self.base + ".json"
        self.residuals = {}
        self.outcomes = {}

    def grid_path(self, points):
        return f"{self.base}-{points}.csv"

    def state_cmd(self) -> Command:
        def check(result: Result):
            _printed_path(result, self.state)
            self.inp.state_check(ck.load_strict_json(self.state))
        return Command(("state",) + self.inp.state_args + ("-o", self.state),
                       ((f"{self.inp.name}:state", check),))

    def wigner_cmd(self, points=None) -> Command:
        inp = self.inp
        n = points or inp.points
        path = self.grid_path(n)

        def check(result: Result):
            _printed_path(result, path)
            g = ck.read_grid(path)
            require(g.nx == n and g.num_p == n, f"{g.nx}x{g.num_p} grid, expected {n}^2")
            x, p = np.meshgrid(g.xs, g.ps, indexing="ij")
            err = _max_rel_err(g.values, inp.model(x, p)[0])
            tol = 1e-4 if inp.transform else 1e-12
            require(err <= tol, f"W differs from the closed form by {err:.3e} (> {tol:g})")
            drift = abs(ck.simpson(g) - 1.0)
            require(drift <= tol, f"integral off by {drift:.3e}")

        argv = ("wigner", "--state", self.state, "-o", path)
        if points:
            argv += ("--points", str(points))
        return Command(argv, ((f"{inp.name}:wigner" + (f"-{points}" if points else ""), check),))

    def outcome_cmd(self, which: str) -> Command:
        inp = self.inp
        src = self.grid_path(inp.points)
        path = f"{self.base}-{which}.csv"
        column = 1 if which == "add" else 2  # of inp.model's (W, A, S)

        def check(result: Result):
            _printed_path(result, path)
            printed = ck.parse_keyed(result.stdout)
            _require_close("R_used", printed.get("R_used", math.nan), inp.ratio, 1e-6)
            g = _check_outcome_grid(path, lambda x, p: inp.model(x, p)[column],
                                    inp.width, inp.identity_holds)
            self.outcomes[which] = g.values
            if inp.identity_holds and len(self.outcomes) == 2:
                other = self.outcomes["add" if which == "sub" else "sub"]
                gap = float(np.max(np.abs(g.values - other)))
                require(gap <= 2.0 * _fd_tol(g.dx, inp.width) * np.max(np.abs(other)),
                        f"added and subtracted differ by {gap:.3e}")

        return Command((which, "--grid", src, "-o", path), ((f"{inp.name}:{which}", check),))

    def residual_cmd(self, points=None) -> Command:
        inp = self.inp
        n = points or inp.points
        path = self.grid_path(n)

        def check(result: Result):
            require(result.code == 0, f"exit {result.code}: {result.stderr.strip()[-200:]}")
            out = ck.parse_keyed(result.stdout)
            keys = ("residual", "R_used", "added_integral", "subtracted_integral")
            require(all(k in out and math.isfinite(out[k]) for k in keys), f"printed {out!r}")
            _require_close("R_used", out["R_used"], inp.ratio, 1e-6)
            _require_close("added_integral", out["added_integral"], inp.added_weight, 1e-6)
            gap = out["added_integral"] - out["subtracted_integral"]
            require(abs(gap - 1.0) <= 1e-6, f"<a a^dag> - <a^dag a> = {gap!r}, expected 1")
            res = out["residual"]
            self.residuals[n] = res
            if not inp.identity_holds:
                require(res >= inp.floor, f"residual {res!r} below the floor {inp.floor}")
                return
            tol = _fd_tol(ck.read_grid_header(path)["dx"], inp.width)
            require(res <= tol, f"residual {res!r} above {tol:.3e}")
            if points:
                coarse = self.residuals.get(inp.points, math.nan)
                order = math.log(coarse / res) / math.log((n - 1) / (inp.points - 1))
                require(res < 1e-4, f"residual {res!r} at {n} points is not below 1e-4")
                require(3.5 <= order <= 4.5, f"convergence order {order:.3f}, expected 4")

        return Command(("residual", "--grid", path),
                       ((f"{inp.name}:residual" + (f"-{points}" if points else ""), check),))


#: Outcome commands per input: both for the pure state, where add and sub
#: must coincide; one elsewhere, to keep the round near half a minute. The
#: impure outcomes, which must differ, are the figures workload's fig1. The
#: z = 1 squeezed state stops at the residual, which fails today.
_OUTCOMES = {"pure": ("add", "sub"), "impure": (), "mixture": ("add",),
             "angular-average": ("sub",), "coherent": ("add",), "squeezed": ("sub",),
             "squeezed-z1": ()}


def cli_pipeline(work: str, seed: int) -> list:
    commands = []
    for inp in pipeline_inputs(seed):
        pipe = _Pipeline(work, inp)
        commands += [pipe.state_cmd(), pipe.wigner_cmd()]
        commands += [pipe.outcome_cmd(which) for which in _OUTCOMES[inp.name]]
        commands.append(pipe.residual_cmd())
        if inp.name == "pure":
            commands += [pipe.wigner_cmd(769), pipe.residual_cmd(769)]

    # The vacuum (sigma_x = 1) has nothing to subtract: add must refuse it.
    vac = os.path.join(work, "vacuum")

    def refused(result: Result):
        require(result.code == 1, f"exit {result.code}, expected 1 (degenerate input)")
        require(not os.path.exists(vac + "-add.csv"), f"{vac}-add.csv was written")

    commands += [
        Command(("state", "--kind", "pure", "--sigma-x", "1", "-o", vac + ".json"),
                (("vacuum:state", lambda res: _printed_path(res, vac + ".json")),)),
        Command(("wigner", "--state", vac + ".json", "-o", vac + ".csv"),
                (("vacuum:wigner", lambda res: _printed_path(res, vac + ".csv")),)),
        Command(("add", "--grid", vac + ".csv", "-o", vac + "-add.csv"),
                (("vacuum:add", refused),)),
    ]
    return commands


# --- figures ---

def _fig_paths(result: Result, out: str, names) -> list:
    paths = [os.path.join(out, n) for n in names]
    require(result.code == 0, f"exit {result.code}: {result.stderr.strip()[-200:]}")
    require(result.stdout.splitlines() == paths, f"printed {result.stdout.splitlines()!r}")
    return paths


def _check_fig1(out, result):
    added_p, sub_p, diff_p = _fig_paths(
        result, out, ("fig1_added.csv", "fig1_subtracted.csv", "fig1_difference.csv"))
    comps = [Component(1.0, 0.0, 16.0, 0.25)]
    added = _check_outcome_grid(added_p, lambda x, p: ck.gaussian_outcomes(comps, x, p)[0],
                                0.5, False)
    sub = _check_outcome_grid(sub_p, lambda x, p: ck.gaussian_outcomes(comps, x, p)[1],
                              0.5, False)
    diff = ck.read_grid(diff_p)
    require(np.array_equal(diff.values, added.values - sub.values),
            "difference is not added minus subtracted")
    gap = float(np.max(np.abs(diff.values)))
    require(gap >= 0.01, f"max |difference| {gap:.3e} below 0.01")


def _check_fig2(out, result):
    mix_p, avg_p = _fig_paths(
        result, out, ("fig2_two_angle_outcome.csv", "fig2_angular_average_outcome.csv"))
    comps = [ck.pure_component(2.2, 0.0, 0.5), ck.pure_component(2.2, math.pi / 4.0, 0.5)]
    _check_outcome_grid(mix_p, lambda x, p: ck.gaussian_outcomes(comps, x, p)[0],
                        1.0 / 2.2, True)
    _check_outcome_grid(avg_p, lambda x, p: ck.angavg_outcomes(2.2, x, p)[0],
                        1.0 / 2.2, True)


def _read_table(path, columns):
    try:
        table = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path}: {exc}") from None
    require(table.shape[1] == columns and np.all(np.isfinite(table)), f"{path}: bad table")
    return table


def _check_fig3(out, result):
    profile_p, purity_p = _fig_paths(result, out, ("fig3_radial_profile.csv", "fig3_purity.csv"))
    prof = _read_table(profile_p, 2)
    require(np.array_equal(prof[:, 0], 0.05 * np.arange(121)), "radius column")
    err = float(np.max(np.abs(prof[:, 1] - ck.angavg_log10_profile(2.2, prof[:, 0]))))
    require(err <= 1e-11, f"log10 profile differs from i0e by {err:.3e}")
    pur = _read_table(purity_p, 2)
    require(np.array_equal(pur[:, 0], 1.0 + 0.1 * np.arange(41)), "sigma column")
    expected = ck.angavg_purity(pur[:, 0])
    err = float(np.max(np.abs(pur[:, 1] - expected) / expected))
    require(err <= 1e-12, f"purity differs from ellipk by {err:.3e}")
    require(abs(pur[0, 1] - 1.0) <= 1e-12 and np.all(np.diff(pur[:, 1]) < 0.0),
            "purity is not 1 at the vacuum and decreasing")


def figures(work: str, seed: int) -> list:
    checks = {"fig1": _check_fig1, "fig2": _check_fig2, "fig3": _check_fig3}
    commands = []
    for fig in FIGURES:
        out = os.path.join(work, fig)
        commands.append(Command(
            ("figure", fig, "-o", out, "--seed", str(seed)),
            ((f"figure:{fig}", lambda res, out=out, fig=fig: checks[fig](out, res)),)))
    return commands


WORKLOAD_COMMANDS = {"verify-all": verify_all, "cli-pipeline": cli_pipeline, "figures": figures}
