"""sqvac benchmark: one workload per run, checked outputs, one JSON result line.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 16 --trace 0

Run from the repository root (the directory holding ``src/sqvac``). The
benchmark times sqvac from outside: every operation is a ``sqvac`` command
(``python -m sqvac.cli`` with ``src`` on the path), and every output is
checked against values computed without sqvac (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median wall time of fresh ``python -c "import sqvac.cli"``
  processes, the fixed cost every command pays (six launches before the
  rounds and six after);
* ``wall_s``: median wall time of one whole round of the workload, process
  starts included, checks excluded; rounds repeat until ``--seconds`` of
  rounds have been timed;
* ``peak_rss_mb``: the largest resident set of any child process
  (``getrusage(RUSAGE_CHILDREN)``).

``--trace 1`` runs the workload in this process through ``sqvac.cli.main``
three times: untraced, with spans around sqvac's public functions, untraced
again. It reports the per-layer metrics that BENCHMARK.json names, from the
traced pass; the spans and the three wall times go to
``bench/work/trace-<workload>.json``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
An operation fails when its exit code or a check is wrong; ``correct`` is
false when an operation fails other than by a known fault's symptom
(``workloads.KNOWN_FAULTS``).
"""

import os

# Every process the benchmark starts, and this one, runs the numeric
# libraries single-threaded; set before numpy is first imported.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "work")

sys.path.insert(0, BENCH)
from checks import CheckError  # noqa: E402
from workloads import KNOWN_FAULTS, WORKLOAD_COMMANDS, WORKLOADS, Result  # noqa: E402

#: Fresh interpreters timed per batch; an untraced run times one batch before
#: its rounds and one after, so setup_s samples both ends of the run.
IMPORT_LAUNCHES = 6
COMMAND_TIMEOUT_S = 150
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import sqvac.cli; "
                 "print(repr(time.perf_counter() - t))")


class Children:
    """Environment of each child process: ``src`` on the path and a
    PYTHONHASHSEED drawn from the benchmark seed. Hash randomization moves
    sqvac's peak memory (fig2 peaks at 246 or 297 MB depending on it), so a
    seed fixes it like every other input; successive processes get
    successive draws, so a run still mixes hash seeds."""

    def __init__(self, seed: int):
        self.base = dict(os.environ)
        self.base["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, self.base.get("PYTHONPATH")) if p)
        self.base.pop("SQVAC_OUT", None)
        self.rng = random.Random(seed)

    def env(self) -> dict:
        return dict(self.base, PYTHONHASHSEED=str(self.rng.randrange(2 ** 32)))


def time_imports(children: Children, walls: list, imports: list, warm_up: bool):
    """Append process wall times and in-process import times of fresh
    ``import sqvac.cli`` interpreters; a warm-up launch is not recorded."""
    for i in range(IMPORT_LAUNCHES + warm_up):
        env = children.env()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"import sqvac.cli failed: {proc.stderr.strip()[-300:]}")
        if i or not warm_up:
            walls.append(wall)
            imports.append(float(proc.stdout))


def subprocess_runner(children: Children):
    def run(argv) -> Result:
        proc = subprocess.run([sys.executable, "-m", "sqvac.cli", *argv],
                              env=children.env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
        return Result(proc.returncode, proc.stdout, proc.stderr)
    return run


def inprocess_runner(tracer=None):
    from sqvac import cli

    def run(argv) -> Result:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        return Result(code, out.getvalue(), err.getvalue())

    if tracer is None:
        return run

    def traced(argv) -> Result:
        tracer.operation = " ".join(argv)
        with tracer.span("cli.main"):
            return run(argv)
    return traced


class Tally:
    """Attempted and failed operations; a failure that is not a known fault
    showing its observed symptom makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def check(self, commands, results):
        for command, result in zip(commands, results):
            for name, check in command.checks:
                self.attempted += 1
                try:
                    check(result)
                # A malformed output (a missing key, a bad number) fails the
                # operation instead of stopping the benchmark.
                except (CheckError, KeyError, TypeError, ValueError, IndexError,
                        ZeroDivisionError) as exc:
                    self.failed += 1
                    fault = KNOWN_FAULTS.get(name)
                    known = fault is not None and fault.symptom(command.argv, result)
                    if not known:
                        self.unexpected.append(name)
                    reason = exc if isinstance(exc, CheckError) else repr(exc)
                    print(f"{'known fault' if known else 'FAILED'}: {name}: {reason}",
                          file=sys.stderr)


def run_round(make_commands, seed, run_dir, runner, tally) -> float:
    """One timed pass over the workload's commands, then its checks."""
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    commands = make_commands(run_dir, seed)
    t0 = time.perf_counter()
    results = [runner(c.argv) for c in commands]
    wall = time.perf_counter() - t0
    tally.check(commands, results)
    print(f"round: {wall:.3f} s, checks {time.perf_counter() - t0 - wall:.3f} s",
          file=sys.stderr)
    return wall


def untraced(workload, seed, seconds, run_dir, tally) -> dict:
    children = Children(seed)
    setups = []
    time_imports(children, setups, [], warm_up=True)
    runner = subprocess_runner(children)
    walls = []
    while not walls or sum(walls) < seconds:
        walls.append(run_round(WORKLOAD_COMMANDS[workload], seed, run_dir, runner, tally))
    time_imports(children, setups, [], warm_up=False)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"), "peak_rss_mb": (peak_mb, "MB")}


def traced(workload, seed, run_dir, tally) -> dict:
    from tracing import Tracer

    children = Children(seed)
    imports = []
    time_imports(children, [], imports, warm_up=True)
    time_imports(children, [], imports, warm_up=False)
    import_s = statistics.median(imports)
    sys.path.insert(0, SRC)
    make_commands = WORKLOAD_COMMANDS[workload]
    before_s = run_round(make_commands, seed, run_dir, inprocess_runner(), tally)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = run_round(make_commands, seed, run_dir, inprocess_runner(tracer), tally)
    finally:
        tracer.uninstall()
    after_s = run_round(make_commands, seed, run_dir, inprocess_runner(), tally)
    # Untraced passes on both sides, so warm-up and drift do not land on the
    # tracing overhead.
    overhead_s = traced_s - (before_s + after_s) / 2.0
    tracer.write(os.path.join(WORK, f"trace-{workload}.json"),
                 {"workload": workload, "seed": seed, "untraced_s": [before_s, after_s],
                  "traced_s": traced_s, "overhead_s": overhead_s})
    print(f"in-process wall: untraced {before_s:.3f} and {after_s:.3f} s, traced "
          f"{traced_s:.3f} s, overhead {overhead_s:+.3f} s, {len(tracer.spans)} spans",
          file=sys.stderr)
    return tracer.per_layer(import_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="timed round time to reach before stopping")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sqvac", "cli.py")):
        print(f"error: no sqvac sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    tally = Tally()
    try:
        if args.trace:
            metrics = traced(args.workload, args.seed, run_dir, tally)
        else:
            metrics = untraced(args.workload, args.seed, args.seconds, run_dir, tally)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {tally.attempted}, failed = {tally.failed}"
          + (f" (unexpected: {', '.join(tally.unexpected)})" if tally.unexpected else ""))
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
