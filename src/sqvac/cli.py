"""Command-line front end.

Subcommands build state files, turn them into phase-space grids, apply the
one-photon operations, check the identity residual, emit figure data and run
the verification suites. Each grid command has one way in: `wigner` reads a
state file and `add`, `sub` and `residual` a grid file. `phasespace.state_grid`
builds every grid from a state, on an extent derived from it, and refuses one
that does not resolve it (drift above NORMALIZATION_DRIFT); `state` refuses a
basis past the transform's cap. Commands are deterministic: `verify` takes no
bound or basis-size flags, and only `figure` takes a `--seed`, for headers.

Exit codes: 0 success, 1 failed assertion or degenerate input, 2 usage or
configuration error.
"""

import argparse
import math
import os
import sys

from . import io as sqio
from .errors import ConfigurationError, DegenerateInputError, SqvacError, TruncationError
from .fock import coherent_state, squeezed_vacuum, suggested_truncation
from .gaussian import AngularAverageSpec, GaussianWignerSpec, squeeze_parameter
from .phasespace import (_fork_map, identity_residual, outcome_integrals, outcome_norm_ratio,
                         photon_outcomes, renormalize, state_grid)
from .special import check_basis_size
from .verify import SUITE_NAMES, figure_data, run_suite

_FORMATS_HELP = """\
file formats:
  state JSON      {"format": "fock-v1", "trunc": N, "amps": [[re, im], ...]}
                  {"format": "gauss-v1", "components": [{"weight": w,
                    "theta": t, "sigma_x": sx, "sigma_p": sp}, ...]}
                  {"format": "angavg-v1", "sigma_x": sx}
  grid CSV        header "# wigner-grid-v1 x0 dx nx x0 dx nx" with x0 =
                  -extent, dx = 2*extent/(nx-1), nx odd in [33, 8193]; then
                  nx*nx rows "x,p,value"; 17 significant digits throughout,
                  so a reloaded grid is bit-identical
  report JSON     {"suite": name, "cases": [{"label", "measured", "bound",
                  "pass"}, ...]}

The environment variable SQVAC_OUT names the default output directory;
explicit -o flags win.
"""


def _default_dir() -> str:
    return os.environ.get("SQVAC_OUT", ".")


def _resolve_out(out, default_name: str) -> str:
    return out if out else os.path.join(_default_dir(), default_name)


def _require(value, flag: str, kind: str):
    if value is None:
        raise ConfigurationError(f"state kind {kind!r} requires {flag}")
    return value


# The flags each state kind reads; `state` refuses any other flag it is given.
_KIND_FLAGS = {
    "pure": ("sigma_x", "theta"),
    "impure": ("sigma_x", "sigma_p", "theta"),
    "mixture": ("sigma_x", "theta", "theta2", "weight"),
    "angular-average": ("sigma_x",),
    "squeezed": ("z", "sigma_x", "trunc"),
    "coherent": ("alpha", "trunc"),
}
_STATE_FLAGS = ("sigma_x", "sigma_p", "theta", "theta2", "weight", "z", "alpha", "trunc")


def _build_state(args):
    kind = args.kind
    for name in _STATE_FLAGS:
        if getattr(args, name) is not None and name not in _KIND_FLAGS.get(kind, ()):
            flag = "--" + name.replace("_", "-")
            raise ConfigurationError(f"state kind {kind!r} does not use {flag}")
    theta = args.theta if args.theta is not None else 0.0
    if kind == "pure":
        return GaussianWignerSpec.pure_state(_require(args.sigma_x, "--sigma-x", kind), theta)
    if kind == "impure":
        return GaussianWignerSpec.single(_require(args.sigma_x, "--sigma-x", kind),
                                         _require(args.sigma_p, "--sigma-p", kind), theta)
    if kind == "mixture":
        theta2 = args.theta2 if args.theta2 is not None else math.pi / 4.0
        weight = args.weight if args.weight is not None else 0.5
        return GaussianWignerSpec.two_angle_mixture(
            weight, theta, theta2, _require(args.sigma_x, "--sigma-x", kind))
    if kind == "angular-average":
        return AngularAverageSpec(_require(args.sigma_x, "--sigma-x", kind))
    if kind == "squeezed":
        if args.z is not None:
            if args.sigma_x is not None:
                raise ConfigurationError("state kind 'squeezed' takes --z or --sigma-x, not both")
            z = args.z
        else:
            z = squeeze_parameter(_require(args.sigma_x, "--z or --sigma-x", kind))
        trunc = suggested_truncation(z) if args.trunc is None else args.trunc
        check_basis_size(trunc)
        return squeezed_vacuum(z, trunc)
    if kind == "coherent":
        alpha = _require(args.alpha, "--alpha", kind)
        trunc = 40 if args.trunc is None else args.trunc
        check_basis_size(trunc)
        return coherent_state(alpha, trunc)
    raise ConfigurationError(f"unknown state kind {kind!r}")


def _cmd_state(args) -> int:
    state = _build_state(args)
    path = _resolve_out(args.out, f"{args.kind}.json")
    sqio.save_state(path, state)
    print(path)
    return 0


def _cmd_wigner(args) -> int:
    grid = state_grid(sqio.load_state(args.state), args.points)
    path = _resolve_out(args.out, "wigner.csv")
    sqio.save_grid(path, grid, [f"cmd: {args.command}"])
    print(path)
    return 0


def _cmd_outcome(args) -> int:
    grid, _ = sqio.load_grid(args.grid)
    ratio = outcome_norm_ratio(*outcome_integrals(grid))
    outcome = renormalize(photon_outcomes(grid)[0 if args.command == "add" else 1])
    path = _resolve_out(args.out, f"{args.command}.csv")
    sqio.save_grid(path, outcome, [f"cmd: {args.command}"])
    print(path)
    print(f"R_used={ratio:.17g}")
    return 0


def _cmd_residual(args) -> int:
    grid, _ = sqio.load_grid(args.grid)
    check = identity_residual(grid)
    print(f"residual={check.residual:.17g}")
    print(f"R_used={check.ratio_used:.17g}")
    print(f"added_integral={check.added_integral:.17g}")
    print(f"subtracted_integral={check.subtracted_integral:.17g}")
    return 0


def _cmd_figure(args) -> int:
    out_dir = args.out if args.out else _default_dir()
    for path in figure_data(args.which, out_dir, seed=args.seed):
        print(path)
    return 0


def _cmd_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    out_dir = args.out if args.out else _default_dir()
    os.makedirs(out_dir, exist_ok=True)
    any_failed = False
    # each suite on a forked worker, its report saved and printed in order
    for report in _fork_map(run_suite, names):
        sqio.save_report(os.path.join(out_dir, f"verify_{report.suite}.json"), report.to_obj())
        if report.passed:
            print(f"{report.suite}: PASS ({len(report.cases)} cases)")
        else:
            any_failed = True
            print(f"{report.suite}: FAIL ({len(report.failures)}/{len(report.cases)} cases)")
            for case in report.failures:
                print(f"  {case.label}: measured={case.measured:.6g} "
                      f"bound={case.bound:.6g}")
    return 1 if any_failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqvac",
        description="One-photon addition and subtraction on squeezed vacuum "
                    "states, with cross-representation verification.",
        epilog=_FORMATS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("state", help="write a state file")
    ps.add_argument("--kind", required=True,
                    choices=("pure", "impure", "mixture", "angular-average",
                             "squeezed", "coherent"))
    ps.add_argument("--sigma-x", type=float, dest="sigma_x")
    ps.add_argument("--sigma-p", type=float, dest="sigma_p")
    ps.add_argument("--theta", type=float)
    ps.add_argument("--theta2", type=float, help="second mixture angle (default pi/4)")
    ps.add_argument("--weight", type=float,
                    help="first-component weight for mixtures (default 0.5)")
    ps.add_argument("--z", type=float, help="squeeze parameter for fock states")
    ps.add_argument("--alpha", type=float, help="coherent displacement")
    ps.add_argument("--trunc", type=int, help="number-basis size")
    ps.add_argument("-o", "--out")
    ps.set_defaults(func=_cmd_state)

    pw = sub.add_parser("wigner", help="state file -> grid CSV")
    pw.add_argument("--state", required=True)
    pw.add_argument("--points", type=int)
    pw.add_argument("-o", "--out")
    pw.set_defaults(func=_cmd_wigner)

    for name, help_text in (("add", "renormalized photon-added outcome"),
                            ("sub", "renormalized photon-subtracted outcome")):
        po = sub.add_parser(name, help=help_text)
        po.add_argument("--grid", required=True)
        po.add_argument("-o", "--out")
        po.set_defaults(func=_cmd_outcome)

    pr = sub.add_parser("residual", help="identity residual of a grid")
    pr.add_argument("--grid", required=True)
    pr.set_defaults(func=_cmd_residual)

    pf = sub.add_parser("figure", help="emit data files for a reference figure")
    pf.add_argument("which", choices=("fig1", "fig2", "fig3"))
    pf.add_argument("--seed", type=int, help="recorded in headers; unused")
    pf.add_argument("-o", "--out", help="output directory")
    pf.set_defaults(func=_cmd_figure)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    pv.add_argument("-o", "--out", help="output directory for reports")
    pv.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (SqvacError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (DegenerateInputError, TruncationError)) else 2


if __name__ == "__main__":
    sys.exit(main())
