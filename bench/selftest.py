"""Self-tests for the benchmark's checks: each must reject a corrupted output.

    python3 bench/selftest.py

Needs numpy and scipy, not sqvac: the outputs are written here from the
closed forms, then corrupted one way at a time.
"""

import io
import json
import math
import os
import shutil
import sys
import tempfile
import unittest
from contextlib import redirect_stderr

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks as ck  # noqa: E402
from run import Tally  # noqa: E402
from workloads import Result, cli_pipeline, figures, pipeline_inputs, verify_all  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))


def write_grid(path, extent, n, fn):
    dx = 2.0 * extent / (n - 1)
    xs = -extent + np.arange(n) * dx
    x, p = np.meshgrid(xs, xs, indexing="ij")
    values = fn(x, p)
    rows = np.column_stack([np.repeat(xs, n), np.tile(xs, n), values.ravel()])
    with open(path, "w") as fh:
        fh.write(f"# {ck.GRID_MAGIC} {-extent:.17g} {dx:.17g} {n} {-extent:.17g} {dx:.17g} {n}\n")
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",")
    return values


def corrupt_line(path, line_no, column):
    """Change the first digit after position 2 of one CSV field."""
    with open(path) as fh:
        lines = fh.readlines()
    fields = lines[line_no].rstrip("\n").split(",")
    text = fields[column]
    k = next(i for i in range(2, len(text)) if text[i].isdigit())
    fields[column] = text[:k] + str((int(text[k]) + 1) % 10) + text[k + 1:]
    lines[line_no] = ",".join(fields) + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


def find_check(commands, name):
    for command in commands:
        for op, check in command.checks:
            if op == name:
                return check
    raise KeyError(name)


class Scratch(unittest.TestCase):
    def setUp(self):
        os.makedirs(os.path.join(BENCH, "work"), exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(BENCH, "work"))

    def tearDown(self):
        shutil.rmtree(self.dir)


class GridChecks(Scratch):
    def test_flipped_coordinate_digit(self):
        path = os.path.join(self.dir, "g.csv")
        write_grid(path, 6.0, 33, lambda x, p: np.exp(-x * x - p * p) / math.pi)
        ck.read_grid(path)
        corrupt_line(path, 40, 1)
        with self.assertRaisesRegex(ck.CheckError, "p column"):
            ck.read_grid(path)

    def test_non_finite_value(self):
        path = os.path.join(self.dir, "g.csv")
        write_grid(path, 6.0, 33, lambda x, p: np.where(x > 5.5, np.nan, 0.0))
        with self.assertRaisesRegex(ck.CheckError, "non-finite"):
            ck.read_grid(path)


class FigureChecks(Scratch):
    def setUp(self):
        super().setUp()
        comps = [ck.Component(1.0, 0.0, 16.0, 0.25)]
        self.paths = [os.path.join(self.dir, "fig1", n) for n in
                      ("fig1_added.csv", "fig1_subtracted.csv", "fig1_difference.csv")]
        os.makedirs(os.path.dirname(self.paths[0]))
        added = write_grid(self.paths[0], 24.0, 513,
                           lambda x, p: ck.gaussian_outcomes(comps, x, p)[0])
        sub = write_grid(self.paths[1], 24.0, 513,
                         lambda x, p: ck.gaussian_outcomes(comps, x, p)[1])
        write_grid(self.paths[2], 24.0, 513, lambda x, p: added - sub)
        self.check = find_check(figures(self.dir, 1), "figure:fig1")
        self.result = Result(0, "\n".join(self.paths) + "\n", "")

    def test_clean_output_passes(self):
        self.check(self.result)

    def test_flipped_value_digit_in_difference(self):
        corrupt_line(self.paths[2], 1 + 256 * 513 + 256, 2)
        with self.assertRaisesRegex(ck.CheckError, "added minus subtracted"):
            self.check(self.result)

    def test_flipped_value_digit_in_outcome(self):
        corrupt_line(self.paths[0], 1 + 256 * 513 + 256, 2)
        with self.assertRaisesRegex(ck.CheckError, "closed form"):
            self.check(self.result)

    def test_wrong_exit_code(self):
        with self.assertRaisesRegex(ck.CheckError, "exit 1"):
            self.check(self.result._replace(code=1))


class PipelineChecks(Scratch):
    def setUp(self):
        super().setUp()
        self.commands = cli_pipeline(self.dir, 7)
        self.pure = pipeline_inputs(7)[0]
        grid = os.path.join(self.dir, "pure-257.csv")
        extent = 6.0 * max(self.pure.width, 1.0 / self.pure.width)
        write_grid(grid, extent, 257, lambda x, p: self.pure.model(x, p)[0])

    def residual_output(self, ratio):
        added = self.pure.added_weight
        return Result(0, f"residual=1e-05\nR_used={ratio!r}\n"
                         f"added_integral={added!r}\nsubtracted_integral={added - 1.0!r}\n", "")

    def test_right_ratio_passes(self):
        find_check(self.commands, "pure:residual")(self.residual_output(self.pure.ratio))

    def test_wrong_ratio(self):
        with self.assertRaisesRegex(ck.CheckError, "R_used"):
            find_check(self.commands, "pure:residual")(
                self.residual_output(self.pure.ratio * 1.001))

    def test_vacuum_add_must_refuse(self):
        check = find_check(self.commands, "vacuum:add")
        check(Result(1, "", "error: degenerate"))
        with self.assertRaisesRegex(ck.CheckError, "exit 0"):
            check(Result(0, "x.csv\nR_used=360342340781397.75\n", ""))

    def test_state_with_nan(self):
        path = os.path.join(self.dir, "pure.json")
        with open(path, "w") as fh:
            fh.write('{"format": "gauss-v1", "components": [{"weight": 1.0, "theta": NaN, '
                     '"sigma_x": 2.0, "sigma_p": 0.5}]}\n')
        with self.assertRaisesRegex(ck.CheckError, "NaN"):
            find_check(self.commands, "pure:state")(Result(0, path + "\n", ""))


class ReportChecks(Scratch):
    def setUp(self):
        super().setUp()
        self.commands = verify_all(self.dir, 1)
        self.check = find_check(self.commands, "suite:fock-ratio")
        os.makedirs(os.path.join(self.dir, "reports"))
        self.path = os.path.join(self.dir, "reports", "verify_fock-ratio.json")
        self.stdout = "fock-ratio: PASS (1 cases)\n"

    def write(self, text):
        with open(self.path, "w") as fh:
            fh.write(text)

    def test_passing_report(self):
        self.write(json.dumps({"suite": "fock-ratio", "artifacts": [], "cases": [
            {"label": "z0.1-ratio-err", "measured": 1e-9, "bound": 1e-6, "pass": True}]}))
        self.check(Result(0, self.stdout, ""))

    def test_failing_case(self):
        self.write(json.dumps({"suite": "fock-ratio", "artifacts": [], "cases": [
            {"label": "z0.1-ratio-err", "measured": 1e-3, "bound": 1e-6, "pass": False}]}))
        with self.assertRaisesRegex(ck.CheckError, "fails"):
            self.check(Result(0, self.stdout, ""))

    def test_nan_in_report(self):
        self.write('{"suite": "fock-ratio", "artifacts": [], "cases": [{"label": "z", '
                   '"measured": NaN, "bound": 1e-6, "pass": true}]}')
        with self.assertRaisesRegex(ck.CheckError, "NaN"):
            self.check(Result(0, self.stdout, ""))


class ClosedForms(unittest.TestCase):
    def test_outcome_weights_integrate(self):
        # A and S of a rotated, displaced gaussian integrate to one after
        # renormalization, and <a a^dag> - <a^dag a> = 1.
        comp = ck.Component(1.0, 0.7, 3.0, 0.5, 0.4, -0.3)
        xs = np.linspace(-12.0, 12.0, 801)
        x, p = np.meshgrid(xs, xs, indexing="ij")
        grid = ck.Grid(801, 801, xs[1] - xs[0], xs[1] - xs[0], xs, xs, None)
        for values in ck.gaussian_outcomes([comp], x, p):
            self.assertAlmostEqual(ck.simpson(grid, values), 1.0, places=10)
        self.assertAlmostEqual(comp.added_weight() - comp.subtracted_weight(), 1.0)

    def test_angular_average_outcome_matches_mean_over_angles(self):
        sx = 2.2
        x, p = np.array([0.0, 0.3, 1.1, 2.0]), np.array([0.0, -0.4, 0.2, 1.5])
        thetas = np.linspace(0.0, math.pi, 4001)[:-1]
        mean = sum(ck.gaussian_outcomes([ck.pure_component(sx, t)], x, p)[0]
                   for t in thetas) / len(thetas)
        np.testing.assert_allclose(ck.angavg_outcomes(sx, x, p)[0], mean, rtol=1e-10)


class KnownFaults(Scratch):
    """A known fault is excused only when it fails the way it fails today."""

    def tally(self, name, result):
        commands = cli_pipeline(self.dir, 7)
        command = next(c for c in commands if any(op == name for op, _ in c.checks))
        tally = Tally()
        with redirect_stderr(io.StringIO()):
            tally.check([command], [result])
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        return tally.unexpected

    def test_ghost_at_the_p_edge_is_known(self):
        self.assertEqual(self.tally("squeezed-z1:residual", Result(
            2, "", "error: boundary values reach 8.547e-06\n")), [])

    def test_other_residual_failure_is_unexpected(self):
        self.assertEqual(self.tally("squeezed-z1:residual", Result(
            1, "", "Traceback (most recent call last):\n")), ["squeezed-z1:residual"])
        self.assertEqual(self.tally("squeezed-z1:residual", Result(
            0, "residual=nan\nR_used=nan\n", "")), ["squeezed-z1:residual"])

    def test_unrefused_vacuum_is_known(self):
        with open(os.path.join(self.dir, "vacuum-add.csv"), "w") as fh:
            fh.write("# wigner-grid-v1\n")
        self.assertEqual(self.tally("vacuum:add", Result(
            0, "x.csv\nR_used=360342340781397.75\n", "")), [])

    def test_other_vacuum_failure_is_unexpected(self):
        self.assertEqual(self.tally("vacuum:add", Result(0, "", "")), ["vacuum:add"])
        self.assertEqual(self.tally("vacuum:add", Result(
            2, "", "Traceback (most recent call last):\n")), ["vacuum:add"])


if __name__ == "__main__":
    unittest.main()
