"""Tests of the benchmark itself: tracing is transparent, the gates gate."""
import contextlib
import dataclasses
import io
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from zqchain import cli, config, dynamics, pipeline  # noqa: E402


def _xy(n=4, j=5.0, flip=2):
    return config.validate(config.ScenarioConfig(
        model="xy", n=n, couplings={"J": j}, flips=(flip,), observe=("all",),
        horizon=2.0))


def _programs(out: Path):
    """Small runs through every traced layer; returns their outputs."""
    xy = pipeline.run_simulate(_xy())
    ali = workloads.AliphaticSpectrum()
    params = {"n": 3, "J_gem": -14.0, "dJ": 5.0, "sumJ": 10.0,
              "signs": [1.0, 1.0, -1.0, 1.0, -1.0]}
    cfg = dataclasses.replace(ali.configs(params)[0], horizon=2.0)
    spec = pipeline.run_spectrum(cfg)
    with contextlib.redirect_stdout(io.StringIO()):
        for name in ("fig6c", "blocks-fig3", "dss-additivity"):
            assert cli.main(["preset", name, "--out", str(out)]) == 0
    arrays = [t.values for t in xy.trajectories.values()]
    arrays += [s.magnitude for s in spec.spectra.values()]
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return arrays, files, xy.conserved


def test_traced_and_untraced_outputs_identical(tmp_path):
    plain = _programs(tmp_path / "plain")
    originals = [owner.__dict__[attr] for owner, attr, _, _ in tracing.targets()]
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = _programs(tmp_path / "traced")
    restored = [owner.__dict__[attr] for owner, attr, _, _ in tracing.targets()]
    assert restored == originals

    for a, b in zip(plain[0], traced[0]):
        assert np.array_equal(a, b)
    assert plain[1] == traced[1]
    assert plain[2] == traced[2]
    names = {s[0] for s in tracer.spans}
    assert {"pipeline.run", "dynamics.series", "dynamics.eigh", "cli.main",
            "cli.serialize", "hamiltonians.blocks"} <= names


def test_layer_metrics_account_for_spans(tmp_path):
    cfg = _xy()
    tracer = tracing.Tracer()
    with tracer.installed():
        result = pipeline.run_simulate(cfg)
    (top,) = [s for s in tracer.spans if s[3] == -1]
    wall = top[2] - top[1]
    m = tracing.layer_metrics(tracer, 1, [wall], [wall], 0, 0)
    assert m["pipeline.scenarios"] == 1
    # four sites plus the total_Iz and energy series
    assert m["dynamics.series.calls"] == 6
    assert m["dynamics.series.useful_ratio"] == 4 / 6
    assert m["dynamics.series.samples"] == 6 * (result.config.steps() + 1)
    assert m["dynamics.eigh.dim_max"] == 16
    assert abs(m["trace.coverage"] - 1.0) < 1e-9


def test_closed_form_reference_matches_tiny_chain():
    result = pipeline.run_simulate(_xy())
    cfg = result.config
    ref = workloads.xy_reference(cfg.n, 5.0, {2}, cfg.dt, cfg.steps())
    worst = max(float(np.max(np.abs(result.trajectories[f"site{i}"].values
                                    - ref[:, i - 1])))
                for i in range(1, cfg.n + 1))
    assert worst < 1e-12
    assert workloads.xy_gate(result, ref) == []


def test_gate_flags_perturbed_trajectory():
    result = pipeline.run_simulate(_xy())
    cfg = result.config
    ref = workloads.xy_reference(cfg.n, 5.0, {2}, cfg.dt, cfg.steps())
    values = result.trajectories["site3"].values.copy()
    values[100] += 1e-6
    bad = dict(result.trajectories,
               site3=dynamics.Trajectory(cfg.dt, values, "site3"))
    failures = workloads.xy_gate(dataclasses.replace(result, trajectories=bad), ref)
    assert len(failures) == 1 and failures[0].startswith("site3")


def test_mirror_gate_notes_bytes_and_fails_values(tmp_path):
    def write(name, mags):
        rows = "".join(f"{0.1 * k:.12g},{m:.12g}\n" for k, m in enumerate(mags))
        (tmp_path / name).write_text("freq_hz,magnitude\n" + rows)

    for n in range(2, 6):
        for i in range(1, n + 1):
            write(f"fig7-n{n}-inv1.site{i}.spec.csv", [1.0, 2.0])
            write(f"fig7-n{n}-inv{n}.site{n + 1 - i}.spec.csv", [1.0, 2.0])
    assert workloads.fig7_mirror_gate(tmp_path) == ([], [])

    write("fig7-n3-inv3.site3.spec.csv", [1.0, 2.0 + 1e-11])
    failures, notes = workloads.fig7_mirror_gate(tmp_path)
    assert failures == []
    assert notes == ["fig7: 1 of 14 mirror pairs are not byte-identical"]

    write("fig7-n3-inv3.site3.spec.csv", [1.0, 2.001])
    failures, _ = workloads.fig7_mirror_gate(tmp_path)
    assert len(failures) == 1
