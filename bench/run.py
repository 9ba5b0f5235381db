#!/usr/bin/env python3
"""zqchain benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports zqchain from its
``src/``. Untimed, gated warm-up passes fill the first five seconds
(at least one pass); then passes run back to back until ``--seconds``
have gone by (at least three). Every
scenario is gated; one that raises or fails its gate is a failed
operation.

--trace 0 prints the end-to-end metrics: the mean pass time, the
median of several set-ups in fresh processes, and the peak RSS of this
process. --trace 1 alternates untraced and traced passes and prints
the per-layer metrics of the traced ones, with the tracing overhead.

Metric names and units come from BENCHMARK.json. Human-readable lines go
first; the last line of stdout is one JSON object. A full record (seed,
parameters of every pass, environment, spans) is written under
``.bench_out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("xy-transport", "aliphatic-spectrum", "figure-presets")
MIN_PASSES = 3          # untimed warm-up excluded
MIN_TRACED_PASSES = 2   # of each kind in a traced run
SETUP_PROBES = 7
WARM_UP_S = 5.0         # at least one pass
PROBE_TIMEOUT_S = 60


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "zqchain" / "__init__.py").is_file():
        print(f"error: no zqchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]

    nproc = _cap_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads  # noqa: E402  (numpy must load after the thread cap)
    import zqchain  # noqa: E402
    if Path(zqchain.__file__).resolve().parent != ROOT / "src" / "zqchain":
        print(f"error: imported zqchain from {zqchain.__file__}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        runner = Runner(workload, args.seed, work)
        if args.trace:
            metrics = runner.traced(args.seconds)
        else:
            metrics = runner.timed(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [m["name"] for m in metric_specs]
    if set(metrics) != set(names):
        print(f"error: metrics {sorted(set(metrics) ^ set(names))} do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in metric_specs}
    attempted = len(runner.records)
    failed = sum(1 for r in runner.records if r["failures"])

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(nproc),
        "pass_walls_s": runner.walls, "traced_walls_s": runner.traced_walls,
        "setup_samples_s": runner.setup_samples, "scenarios": runner.records,
        "metrics": metrics,
        "spans": runner.tracer.spans if runner.tracer else [],
    }
    record_path = (out_root
                   / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"first pass parameters {json.dumps(runner.records[0]['params'])}")
    for r in runner.records:
        for failure in r["failures"]:
            print(f"FAILED {r['scenario']} (pass {r['pass']}): {failure}")
    for note in sorted({n for r in runner.records for n in r["notes"]}):
        print(f"NOTE {note}")
    print(f"passes {len(runner.walls)} untraced (median "
          f"{statistics.median(runner.walls):.4g} s), {len(runner.traced_walls)} "
          f"traced; scenarios attempted {attempted}, failed {failed}, "
          f"failed_frac {failed / attempted:.4g}")
    for name in names:
        print(f"{name:<44} {metrics[name]:>14.6g} {units[name]}")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }))
    return 0


class Runner:
    """Runs passes of one workload and keeps their times and gate records."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.walls: list[float] = []
        self.traced_walls: list[float] = []
        self.setup_samples: list[float] = []
        self.records: list[dict] = []
        self.tracer = None
        self.files_written = 0
        self.bytes_written = 0
        self._index = 0

    def timed(self, seconds: float) -> dict[str, float]:
        self._warm_up()
        start = time.perf_counter()
        while len(self.walls) < MIN_PASSES or time.perf_counter() - start < seconds:
            self.walls.append(self._pass())
            # spread the set-up probes over the run: the CPU's speed drifts
            due = SETUP_PROBES * (time.perf_counter() - start) / seconds
            while len(self.setup_samples) < min(due, SETUP_PROBES):
                self.setup_samples.append(self._probe_setup())
        while len(self.setup_samples) < SETUP_PROBES:
            self.setup_samples.append(self._probe_setup())
        return {
            # The mean, not the median: the CPU's speed switches between a
            # few levels every 5-20 s, and the median of a run snaps to one
            # level while the mean follows the mix (ten 30 s runs spread
            # 0.14 instead of 0.21 of their median on figure-presets).
            "wall_s": statistics.fmean(self.walls),
            "setup_s": statistics.median(self.setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def traced(self, seconds: float) -> dict[str, float]:
        import tracing
        self.tracer = tracing.Tracer()
        self._warm_up()
        start = time.perf_counter()
        while (len(self.traced_walls) < MIN_TRACED_PASSES
               or time.perf_counter() - start < seconds):
            self.walls.append(self._pass())
            self.traced_walls.append(self._pass(self.tracer))
        metrics = tracing.layer_metrics(
            self.tracer, len(self.traced_walls), self.traced_walls, self.walls,
            self.files_written, self.bytes_written)
        failed = sum(1 for r in self.records if r["failures"])
        metrics["gate.failed_frac"] = failed / len(self.records)
        return metrics

    def _warm_up(self) -> None:
        """Untimed, gated passes: page cache, BLAS buffers, lazy imports, and
        a CPU that has been busy for a while (an idle one measured slower)."""
        start = time.perf_counter()
        while time.perf_counter() - start < WARM_UP_S:
            self._pass()

    def _pass(self, tracer=None) -> float:
        """One pass: time each scenario's program work, then gate it."""
        index = self._index
        self._index += 1
        out = self.work / f"pass{index}"
        out.mkdir()
        wall = 0.0
        for label, params in self.workload.scenarios(self.seed, index):
            ctx = contextlib.nullcontext()
            if tracer is not None:
                tracer.scenario = f"{index}:{label}"
                ctx = tracer.installed()
            outputs, failures, notes = None, [], []
            start = time.perf_counter()
            try:
                with ctx:
                    outputs = self.workload.run(params, out)
            except Exception:  # a failed operation, counted and reported
                failures = [traceback.format_exc(limit=-4)]
            wall += time.perf_counter() - start
            if not failures:
                try:
                    failures, notes = self.workload.check(params, outputs, out)
                except Exception:
                    failures = [traceback.format_exc(limit=-4)]
            self.records.append({"pass": index, "scenario": label,
                                 "params": params, "failures": failures,
                                 "notes": notes})
        if tracer is not None:
            files = [f for f in out.rglob("*") if f.is_file()]
            self.files_written += len(files)
            self.bytes_written += sum(f.stat().st_size for f in files)
        shutil.rmtree(out)
        return wall

    def _probe_setup(self) -> float:
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), self.workload.name,
             str(self.seed)],
            capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S)
        return float(done.stdout.strip().splitlines()[-1])


def _cap_blas_threads() -> int:
    """Keep BLAS threads at or below the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def environment(nproc: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "nproc": nproc,
        "cpu": _cpu_model(),
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads(np) -> int:
    """Threads OpenBLAS reports, else the cap this process set."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
