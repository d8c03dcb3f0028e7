"""Spans around sqvac's public functions, for the traced run.

``Tracer.install`` wraps each function named in ``TARGETS`` (and every public
function of ``sqvac.fock``) and puts the wrapper wherever a loaded sqvac
module holds the original, so calls through ``from .x import f`` names are
seen too. Each call records a span: name, parent span, operation it belongs
to, start, end, minor page faults (``getrusage``) and a size attribute.
Spans stay in memory until ``write``.

``per_layer`` reduces the spans to the per-layer metrics that BENCHMARK.json
names:

* ``<span>.s``: time inside outermost spans of that name (no double count
  when a span nests in one of the same name);
* ``<span>.self_s``: span time minus the time its child spans cover;
* ``.points``: grid or array points handled, ``.mb``: CSV megabytes written
  or read, ``.minflt``: minor page faults.
"""

import functools
import json
import os
import resource
import sys
import time
from contextlib import contextmanager

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _size_of_result(args, kwargs, result):
    return {"points": int(np.size(result))}


def _rows_of_result(args, kwargs, result):
    return {"points": int(result.shape[0])}


def _grid_points_of_result(args, kwargs, result):
    return {"points": int(result.values.size)}


def _grid_points_of_arg(args, kwargs, result):
    return {"points": int(args[0].values.size)}


def _file_mb(args, kwargs, result):
    return {"mb": os.path.getsize(args[0]) / 1e6}


# (module, function, span name or name(args), attributes(args, kwargs, result))
TARGETS = (
    ("sqvac.special", "bessel_i0_scaled", "special.bessel_i0_scaled", _size_of_result),
    ("sqvac.special", "hermite_psi_table", "special.hermite_psi_table", _rows_of_result),
    ("sqvac.gaussian", "wigner_value", "gaussian.wigner_value", _size_of_result),
    ("sqvac.phasespace", "rasterize", "phasespace.rasterize", _grid_points_of_result),
    ("sqvac.phasespace", "wigner_from_density", "phasespace.wigner_from_density",
     _grid_points_of_result),
    ("sqvac.phasespace", "photon_outcomes", "phasespace.photon_outcomes", _grid_points_of_arg),
    ("sqvac.phasespace", "identity_residual", "phasespace.identity_residual", None),
    ("sqvac.phasespace", "l1_relative_residual", "phasespace.l1_relative_residual", None),
    ("sqvac.phasespace", "renormalize", "phasespace.renormalize", None),
    ("sqvac.phasespace", "grid_metrics", "phasespace.grid_metrics", None),
    ("sqvac.io", "save_grid", "io.save_grid", _file_mb),
    ("sqvac.io", "load_grid", "io.load_grid", _file_mb),
    ("sqvac.io", "save_report", "io.save_report", None),
    ("sqvac.verify", "run_suite", lambda args: f"verify.run_suite.{args[0]}", None),
    ("sqvac.verify", "figure_data", lambda args: f"verify.figure_data.{args[0]}", None),
)

def layer_metrics() -> list:
    """(name, unit) of each per-layer metric, in BENCHMARK.json's order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    def __init__(self):
        self.spans = []
        self.operation = None
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "operation": self.operation,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        faults = _minflt()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["minflt"] = _minflt() - faults
            self._stack.pop()

    def _wrap(self, fn, name, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(args) if callable(name) else name) as rec:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    rec.update(attrs(args, kwargs, result))
                return result
        return traced

    def install(self):
        """Wrap every target wherever a loaded sqvac module refers to it."""
        fock = sys.modules["sqvac.fock"]
        targets = list(TARGETS) + [
            ("sqvac.fock", n, f"fock.{n}", None) for n, v in vars(fock).items()
            if callable(v) and not isinstance(v, type) and not n.startswith("_")
            and getattr(v, "__module__", None) == "sqvac.fock"]
        modules = [m for n, m in sys.modules.items() if n == "sqvac" or n.startswith("sqvac.")]
        for module_name, fn_name, name, attrs in targets:
            original = getattr(sys.modules[module_name], fn_name)
            wrapper = self._wrap(original, name, attrs)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def per_layer(self, import_s: float) -> dict:
        """{metric: (value, unit)} for every metric of ``layer_metrics()``."""
        children = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)

        def duration(s):
            return s["end"] - s["start"]

        def outermost(match):
            found = []
            for s in self.spans:
                parent = s["parent"]
                while parent is not None and not match(self.spans[parent]["name"]):
                    parent = self.spans[parent]["parent"]
                if match(s["name"]) and parent is None:
                    found.append(s)
            return found

        metrics = {}
        for metric, unit in layer_metrics():
            if metric == "cli.import_s":
                metrics[metric] = (import_s, unit)
                continue
            span_name, stat = metric.rsplit(".", 1)
            if span_name == "fock":
                match = lambda n: n.startswith("fock.")  # noqa: E731
            else:
                match = lambda n, want=span_name: n == want  # noqa: E731
            if stat == "s":
                value = float(sum(duration(s) for s in outermost(match)))
            elif stat == "self_s":
                value = float(sum(
                    duration(s) - sum(duration(c) for c in children.get(s["id"], ()))
                    for s in self.spans if match(s["name"])))
            else:
                value = sum(s.get(stat, 0) for s in outermost(match))
            metrics[metric] = (value, unit)
        return metrics

    def write(self, path: str, header: dict):
        t0 = self.spans[0]["start"] if self.spans else 0.0
        spans = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in self.spans]
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(dict(header, spans=spans), fh)
        os.replace(tmp, path)
