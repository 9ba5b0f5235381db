"""Per-layer tracing from outside the program.

The tracer wraps zqchain's public layer functions by replacing each name
where its caller looks it up (``pipeline.dynamics.Propagator.series`` is
looked up on the class, ``cli.build_xy`` in the cli namespace, and so
on), records one span per call in memory, and restores every name on
exit. A span's self time is its duration minus the time its child spans
cover; the span name's first component is the layer it is charged to.

Work counts labelled ``computed`` come from dimensions and dtypes, not
from hardware counters:

- eigh flops: 9 d^3 for a real symmetric matrix with eigenvectors
  (tridiagonalize, accumulate, QR), times 4 for complex Hermitian input.
- series MACs: 4 d^3 complex multiply-adds for the two basis changes,
  plus (d^2 + d) per time sample for the bilinear form.
- dense bytes: d^2 times the item size of each Hermitian operator built.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import time
from collections import defaultdict

import numpy as np

from zqchain import (analytic, cli, config, dynamics, hamiltonians, pipeline,
                     presets, spectra, spinops)

LAYERS = ("config", "presets", "hamiltonians", "spinops", "dynamics",
          "analytic", "spectra", "pipeline", "cli")

# observable ids pipeline.run_simulate gives its conserved-quantity series
CONSERVED_IDS = frozenset({"H", "total_Iz"})


class Tracer:
    """Spans and counters for one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, scenario]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        self.scenario: str | None = None

    def call(self, name, fn, args, kwargs, count=None):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.scenario]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            count(self, result, inspect.signature(fn).bind(*args, **kwargs))
        return result

    @contextlib.contextmanager
    def installed(self):
        """Route every target through this tracer until the block exits."""
        saved = []
        try:
            for owner, attr, name, count in targets():
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, _wrap(self, name, fn, count))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


# -- counters: (tracer, result, bound arguments) -------------------------------

def _count_build(tr, op, ba):
    tr.maxima["hamiltonians.build.dim_max"] = max(
        tr.maxima["hamiltonians.build.dim_max"], op.dim)


def _count_dense(tr, op, ba):
    tr.counts["spinops.hermitian_operator.bytes_computed"] += (
        op.dim ** 2 * op.entries.itemsize)


def _count_eigh(tr, result, ba):
    a = np.asarray(ba.arguments["a"])
    d = a.shape[-1]
    tr.counts["dynamics.eigh.flops_computed"] += (
        9 * d ** 3 * (4 if np.iscomplexobj(a) else 1))
    tr.maxima["dynamics.eigh.dim_max"] = max(tr.maxima["dynamics.eigh.dim_max"], d)


def _count_series(tr, traj, ba):
    d = ba.arguments["self"].dim
    samples = ba.arguments["steps"] + 1
    tr.counts["dynamics.series.samples"] += samples
    tr.counts["dynamics.series.macs_computed"] += 4 * d ** 3 + samples * (d * d + d)
    if ba.arguments.get("observable_id", "obs") not in CONSERVED_IDS:
        tr.counts["dynamics.series.useful"] += 1


def _count_fft(tr, spec, ba):
    meta = spec.meta
    tr.counts["spectra.fft_points"] += meta["n_samples"] * meta["zero_pad_factor"]


def targets():
    """(owner, attribute, span name, counter) for every wrapped lookup."""
    build = ("build_xy", "build_aliphatic_full", "build_aliphatic_restricted")
    blocks = ("extract_blocks", "classify_couplings", "format_block_dump",
              "st_basis", "restricted_labels", "product_labels", "basis_change")
    return [
        (config, "validate", "config.validate", None),
        (presets, "validate", "config.validate", None),
        (presets, "expand", "presets.expand", None),
        *[(owner, name, "hamiltonians.build", _count_build)
          for owner in (hamiltonians, cli) for name in build],
        (analytic, "build_aliphatic_restricted", "hamiltonians.build", _count_build),
        *[(cli, name, "hamiltonians.blocks", None) for name in blocks],
        *[(owner, "hermitian_operator", "spinops.hermitian_operator", _count_dense)
          for owner in (spinops, dynamics, hamiltonians)],
        (dynamics, "initial_xy", "dynamics.initial", None),
        (dynamics, "initial_aliphatic", "dynamics.initial", None),
        (pipeline, "build_observable", "dynamics.observable", None),
        (pipeline, "total_Iz", "dynamics.observable", None),
        (np.linalg, "eigh", "dynamics.eigh", _count_eigh),
        (dynamics.Propagator, "series", "dynamics.series", _count_series),
        (analytic, "xy_predicted_spectrum", "analytic.predicted", None),
        (analytic, "aliphatic_predicted_spectrum", "analytic.predicted", None),
        (spectra, "process_trajectory", "spectra.process", _count_fft),
        (spectra, "pick_peaks", "spectra.pick_peaks", None),
        (spectra, "match_peaks", "spectra.match_peaks", None),
        (dynamics, "format_trajectory_csv", "cli.serialize", None),
        (cli, "format_trajectory_csv", "cli.serialize", None),
        (spectra, "format_spectrum_csv", "cli.serialize", None),
        (spectra, "format_match_report", "cli.serialize", None),
        *[(pipeline, name, "pipeline.run", None)
          for name in ("run_simulate", "run_spectrum", "dss_additivity_report")],
        (cli, "main", "cli.main", None),
    ]


def _wrap(tracer, name, fn, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count)
    return wrapper


# -- metrics -------------------------------------------------------------------

def layer_metrics(tracer: Tracer, passes: int, traced_walls, untraced_walls,
                  files_written: int, bytes_written: int) -> dict[str, float]:
    """Per-pass layer metrics from the spans of ``passes`` traced passes."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start

    def outermost(i):
        name, p = spans[i][0], spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return False
            p = spans[p][3]
        return True

    calls = defaultdict(int)
    busy = defaultdict(float)
    self_by_layer = defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        if outermost(i):
            busy[name] += end - start
        self_by_layer[name.split(".")[0]] += end - start - child[i]

    c = tracer.counts
    scenarios = sum(1 for i, s in enumerate(spans)
                    if s[0] == "pipeline.run" and outermost(i))
    m = {
        "dynamics.series.calls": calls["dynamics.series"],
        "dynamics.series.busy_s": busy["dynamics.series"],
        "dynamics.series.samples": c["dynamics.series.samples"],
        "dynamics.series.macs_computed": c["dynamics.series.macs_computed"],
        "dynamics.eigh.calls": calls["dynamics.eigh"],
        "dynamics.eigh.busy_s": busy["dynamics.eigh"],
        "dynamics.eigh.flops_computed": c["dynamics.eigh.flops_computed"],
        "dynamics.initial.busy_s": busy["dynamics.initial"],
        "dynamics.observable.busy_s": busy["dynamics.observable"],
        "analytic.predicted.calls": calls["analytic.predicted"],
        "analytic.predicted.busy_s": busy["analytic.predicted"],
        "spinops.hermitian_operator.calls": calls["spinops.hermitian_operator"],
        "spinops.hermitian_operator.busy_s": busy["spinops.hermitian_operator"],
        "spinops.hermitian_operator.bytes_computed":
            c["spinops.hermitian_operator.bytes_computed"],
        "hamiltonians.build.calls": calls["hamiltonians.build"],
        "hamiltonians.build.busy_s": busy["hamiltonians.build"],
        "hamiltonians.blocks.busy_s": busy["hamiltonians.blocks"],
        "spectra.process.busy_s": busy["spectra.process"],
        "spectra.fft_points": c["spectra.fft_points"],
        "spectra.pick_peaks.busy_s": busy["spectra.pick_peaks"],
        "spectra.match_peaks.busy_s": busy["spectra.match_peaks"],
        "cli.serialize.busy_s": busy["cli.serialize"],
        "cli.bytes_written": bytes_written,
        "cli.files_written": files_written,
        "pipeline.scenarios": scenarios,
        "config.validate.calls": calls["config.validate"],
        "config.validate.busy_s": busy["config.validate"],
    }
    m.update({f"{layer}.self_s": self_by_layer[layer] for layer in LAYERS})
    m = {k: v / passes for k, v in m.items()}

    # ratios and maxima are not per pass
    m["dynamics.series.useful_ratio"] = (
        c["dynamics.series.useful"] / calls["dynamics.series"]
        if calls["dynamics.series"] else 1.0)
    m["dynamics.eigh.dim_max"] = tracer.maxima["dynamics.eigh.dim_max"]
    m["hamiltonians.build.dim_max"] = tracer.maxima["hamiltonians.build.dim_max"]
    m["pipeline.eigh_per_scenario"] = (calls["dynamics.eigh"] / scenarios
                                       if scenarios else 0.0)
    m["trace.coverage"] = sum(self_by_layer.values()) / sum(traced_walls)
    m["trace.overhead_frac"] = (statistics.fmean(traced_walls)
                                / statistics.fmean(untraced_walls) - 1.0)
    return m
