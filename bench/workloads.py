"""The benchmark's three workloads: seeded scenarios, the program work, the gates.

A workload is a sequence of passes. Pass ``index`` holds one or more
scenarios whose parameters are drawn from ``(workload, seed, index)``, so
the same seed always gives the same inputs and no two passes repeat one.
Each scenario drives zqchain only through its public functions; the
next scenario starts when the previous one finishes (a closed loop with
one client). ``run`` is the program work the benchmark times. ``check``
is the correctness gate, applied to the outputs afterwards and untimed;
it returns (failures, notes), and any failure fails the scenario.

Why these three (see README.md for the measured split):

- xy-transport: one eigendecomposition feeds 11 ``series`` calls, so
  signal synthesis dominates and eigh work barely shows.
- aliphatic-spectrum: one observable per 1024-dim eigendecomposition, and
  the same matrix is decomposed again by the order-2 prediction, so eigh,
  dtype, sector, reuse and memory work shows.
- figure-presets: small scenarios (dimension <= 256) bound by text output
  and per-call overhead; big-matrix work bypasses it.
"""
from __future__ import annotations

import contextlib
import io
import random
import re
from pathlib import Path

import numpy as np

from zqchain import cli, config, dynamics, pipeline, presets

# Bound before tracing wraps numpy.linalg.eigh, so the gates never show up
# in the program's eigh counts.
_eigh = np.linalg.eigh

TOL = 1e-9  # trajectory and conserved-quantity gate, absolute

XY_N = 9
ALIPHATIC_N = 10
ORACLE_N = 5


def terminal_label(n: int) -> str:
    """{T0,S0} product label with the T0 on the last pair."""
    return "S0" * (n - 1) + "T0"


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # string seeds hash through SHA-512: stable across Python versions
    return random.Random(f"{workload}:{seed}:{index}")


# -- xy-transport --------------------------------------------------------------

class XYTransport:
    name = "xy-transport"

    def scenarios(self, seed: int, index: int) -> list[tuple[str, dict]]:
        rng = _rng(self.name, seed, index)
        params = {"n": XY_N, "J": rng.uniform(3.0, 7.0),
                  "flip": rng.randint(1, XY_N)}
        return [("xy", params)]

    def configs(self, params: dict) -> list[config.ScenarioConfig]:
        return [config.validate(config.ScenarioConfig(
            model="xy", n=params["n"], couplings={"J": params["J"]},
            flips=(params["flip"],), observe=("all",)))]

    def run(self, params: dict, out: Path) -> pipeline.SimulationResult:
        (cfg,) = self.configs(params)
        result = pipeline.run_simulate(cfg)
        for obs_id, traj in result.trajectories.items():
            (out / f"xy.{obs_id}.traj.csv").write_text(
                dynamics.format_trajectory_csv(traj), encoding="utf-8")
        return result

    def check(self, params: dict, result, out: Path):
        cfg = result.config
        ref = xy_reference(cfg.n, params["J"], {params["flip"]}, cfg.dt,
                           cfg.steps())
        return xy_gate(result, ref, out), []


def xy_reference(n: int, j: float, flips, dt: float, steps: int) -> np.ndarray:
    """Closed form <I_iz(t)> = 1/2 sum_j s_j |U_ij(t)|^2, shape (steps+1, n).

    U = exp(-2 pi i h1 t) with h1 the n x n single-excitation block
    (off-diagonal J/2); s_j = -1 on flipped sites and +1 elsewhere.
    """
    h1 = np.diag(np.full(n - 1, j / 2), 1)
    energies, modes = _eigh(h1 + h1.T)
    phases = np.exp(-2j * np.pi * np.outer(np.arange(steps + 1) * dt, energies))
    u = np.einsum("ik,tk,jk->tij", modes, phases, modes)
    signs = np.array([-1.0 if s in flips else 1.0 for s in range(1, n + 1)])
    return 0.5 * (np.abs(u) ** 2) @ signs


def xy_gate(result, ref: np.ndarray, out: Path | None = None) -> list[str]:
    """Failures of an xy run against the closed form; empty when it passes."""
    failures = []
    n = result.config.n
    for site in range(1, n + 1):
        traj = result.trajectories.get(f"site{site}")
        if traj is None or traj.values.shape != ref[:, site - 1].shape:
            failures.append(f"site{site}: trajectory missing or misshapen")
            continue
        err = float(np.max(np.abs(traj.values - ref[:, site - 1])))
        if not err <= TOL:
            failures.append(f"site{site}: |traj - closed form| = {err:.3e}")
    failures += _conserved_gate(result)
    if out is not None:
        written = sorted(p.name for p in out.glob("xy.site*.traj.csv"))
        if len(written) != n:
            failures.append(f"{len(written)} trajectory files written, "
                            f"expected {n}")
    return failures


def _conserved_gate(result) -> list[str]:
    return [f"conserved {name} drift {dev:.3e}"
            for name, dev in result.conserved.items() if not dev <= TOL]


# -- aliphatic-spectrum --------------------------------------------------------

class AliphaticSpectrum:
    name = "aliphatic-spectrum"

    def scenarios(self, seed: int, index: int) -> list[tuple[str, dict]]:
        rng = _rng(self.name, seed, index)
        params = {"n": ALIPHATIC_N, "J_gem": rng.uniform(-16.0, -12.0),
                  "dJ": rng.uniform(3.0, 7.0), "sumJ": rng.uniform(8.0, 12.0),
                  "signs": [rng.choice((1.0, -1.0))
                            for _ in range(ALIPHATIC_N)]}
        return [("aliphatic", params)]

    def configs(self, params: dict) -> list[config.ScenarioConfig]:
        """The n = 10 spectrum, then the restricted and full n = 5 oracles."""
        couplings = {"J_gem": params["J_gem"],
                     "J_gauche": (params["sumJ"] + params["dJ"]) / 2,
                     "J_anti": (params["sumJ"] - params["dJ"]) / 2}

        def cfg(n, engine):
            return config.validate(config.ScenarioConfig(
                model="aliphatic", n=n, couplings=dict(couplings),
                t0_sites=tuple(range(1, n + 1)),
                signs=tuple(params["signs"][:n]),
                observe=(terminal_label(n),), engine=engine))

        return [cfg(params["n"], "restricted"), cfg(ORACLE_N, "restricted"),
                cfg(ORACLE_N, "full")]

    def run(self, params: dict, out: Path):
        big, small, full = self.configs(params)
        return (pipeline.run_spectrum(big), pipeline.run_simulate(small),
                pipeline.run_simulate(full))

    def check(self, params: dict, outputs, out: Path):
        return aliphatic_gate(*outputs), []


def aliphatic_gate(spectrum, small, full) -> list[str]:
    failures = []
    label = terminal_label(small.config.n)
    err = float(np.max(np.abs(small.trajectories[label].values
                              - full.trajectories[label].values)))
    if not err <= TOL:
        failures.append(f"restricted vs full n={small.config.n}: {err:.3e}")
    failures += _conserved_gate(small) + _conserved_gate(full)

    big_label = terminal_label(spectrum.config.n)
    peaks = spectrum.reports[big_label].peaks
    if not peaks:
        return failures + ["no peaks picked"]
    top = max(peaks, key=lambda p: p.magnitude)
    spec = spectrum.spectra[big_label]
    # One resolution element, 1/T for acquisition time T: the tails of
    # neighbouring lines pull a peak by up to ~1.5 bins, and lines closer
    # than 1/T merge into one peak between them.
    resolution = spec.grid_hz * spec.meta["zero_pad_factor"]
    lines = np.abs([nu for _, _, nu in spectrum.predicted.transitions])
    miss = float(np.min(np.abs(lines - top.freq)))
    if not miss <= resolution:
        failures.append(f"largest peak {top.freq:.4f} Hz is {miss:.4f} Hz from "
                        f"every order-2 line (resolution {resolution:.4f} Hz)")
    return failures


# -- figure-presets ------------------------------------------------------------

PRESETS = ("fig6a", "fig6b", "fig6c", "fig6d", "fig7", "blocks-fig3",
           "blocks-fig5", "dss-additivity")
DSS_TOL_HZ = 0.01
MIRROR_RTOL = 1e-9  # of the pair's largest magnitude


def _spectrum_files(stem: str, observables) -> list[str]:
    return [f"{stem}.{o}.{kind}" for o in observables
            for kind in ("spec.csv", "report.txt")]


def expected_files(name: str) -> list[str]:
    """Files `zqchain preset <name>` must write."""
    if name in ("fig6a", "fig6b"):
        return _spectrum_files(name, ["S0S0S0T0"])
    if name in ("fig6c", "fig6d"):
        return _spectrum_files(name, ["site1"])
    if name == "fig7":
        return [f for n in range(2, 6) for inv in (1, n)
                for f in _spectrum_files(f"fig7-n{n}-inv{inv}",
                                         [f"site{i}" for i in range(1, n + 1)])]
    if name == "blocks-fig3":
        return ["blocks-fig3-xy.blocks.txt", "blocks-fig3-aliphatic.blocks.txt"]
    if name == "blocks-fig5":
        return ["blocks-fig5-aliphatic.blocks.txt"]
    return ["dss-additivity.report.txt"]


class FigurePresets:
    """Fixed presets, so the seed is recorded but draws nothing."""

    name = "figure-presets"

    def scenarios(self, seed: int, index: int) -> list[tuple[str, dict]]:
        return [(name, {"preset": name}) for name in PRESETS]

    def configs(self, params: dict) -> list:
        return presets.expand(params["preset"])

    def run(self, params: dict, out: Path) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["preset", params["preset"], "--out", str(out),
                             "--threads", "1"])

    def check(self, params: dict, code: int, out: Path):
        name = params["preset"]
        failures, notes = [] if code == 0 else [f"exit code {code}"], []
        for fname in expected_files(name):
            path = out / fname
            if not path.is_file() or path.stat().st_size == 0:
                failures.append(f"{fname} missing or empty")
        if failures:
            return failures, notes
        if name == "fig7":
            failures, notes = fig7_mirror_gate(out)
        if name == "dss-additivity":
            text = (out / "dss-additivity.report.txt").read_text(encoding="utf-8")
            m = re.search(r"additivity .* = ([0-9.]+) Hz", text)
            if m is None or not float(m.group(1)) <= DSS_TOL_HZ:
                failures.append("DSS additivity residual missing or above "
                                f"{DSS_TOL_HZ} Hz")
        return failures, notes


def fig7_mirror_gate(out: Path) -> tuple[list[str], list[str]]:
    """(inverted 1, observed i) and (inverted n, observed n+1-i) agree in value.

    The two files of a pair hold the same spectrum to ~1e-13, but a value
    that lands on a rounding boundary of the 12-digit CSV format can print
    one unit apart in its last digit, so a pair whose bytes differ is
    noted, and failed only when its values differ.
    """
    failures, differ, pairs = [], 0, 0
    for n in range(2, 6):
        for i in range(1, n + 1):
            pairs += 1
            a = out / f"fig7-n{n}-inv1.site{i}.spec.csv"
            b = out / f"fig7-n{n}-inv{n}.site{n + 1 - i}.spec.csv"
            if a.read_bytes() == b.read_bytes():
                continue
            differ += 1
            va = np.loadtxt(a, delimiter=",", skiprows=1)
            vb = np.loadtxt(b, delimiter=",", skiprows=1)
            tol = MIRROR_RTOL * float(np.max(np.abs(va[:, 1])))
            if (va.shape != vb.shape or not np.array_equal(va[:, 0], vb[:, 0])
                    or not np.max(np.abs(va[:, 1] - vb[:, 1])) <= tol):
                failures.append(f"mirror pair {a.name} / {b.name} differs in value")
    notes = [f"fig7: {differ} of {pairs} mirror pairs are not "
             "byte-identical"] if differ else []
    return failures, notes


WORKLOADS = {w.name: w for w in (XYTransport(), AliphaticSpectrum(),
                                 FigurePresets())}
