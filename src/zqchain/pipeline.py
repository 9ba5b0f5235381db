"""Scenario execution: build operators from a config, simulate, process.

This layer turns a validated ScenarioConfig into Hamiltonians, initial
states and observables, runs the propagation, and assembles spectra and
peak-match reports. The CLI is a thin shell around these functions, and
the acceptance suite drives them directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytic, dynamics, hamiltonians, spectra
from .config import ScenarioConfig
from .spinops import Operator, ProjectorSum, lift, single_spin_op, total_Iz


@dataclass(frozen=True)
class SimulationResult:
    config: ScenarioConfig
    trajectories: dict[str, dynamics.Trajectory]
    conserved: dict[str, float]  # max |deviation| per conserved quantity


@dataclass(frozen=True)
class SpectrumResult:
    config: ScenarioConfig
    trajectories: dict[str, dynamics.Trajectory]
    spectra: dict[str, spectra.Spectrum]
    reports: dict[str, spectra.PeakMatchReport]
    predicted: analytic.TransitionTable
    split_notes: list[str]


def build_hamiltonian(cfg: ScenarioConfig) -> Operator:
    if cfg.model == "xy":
        return hamiltonians.build_xy(cfg.xy_params())
    params = cfg.aliphatic_params()
    if cfg.engine == "full":
        return hamiltonians.build_aliphatic_full(params)
    return hamiltonians.build_aliphatic_restricted(params)


def build_initial(cfg: ScenarioConfig) -> Operator | ProjectorSum:
    pattern = cfg.initial_pattern()
    if cfg.model == "xy":
        return dynamics.initial_xy(pattern)
    # each sign goes with its listed site; the pattern takes them by site
    signs = [sign for _, sign in sorted(zip(cfg.t0_sites, cfg.signs))]
    return dynamics.initial_aliphatic(pattern, signs,
                                      full_space=(cfg.engine == "full"))


def build_observable(cfg: ScenarioConfig, target) -> Operator | ProjectorSum:
    """Observable for one expanded observe entry (site index or st2 label)."""
    if cfg.model == "xy":
        return lift(single_spin_op("z"), target, cfg.n)
    if isinstance(target, int):
        label = dynamics.t0_label(cfg.n, target)
    else:
        label = target
    return dynamics.population_op(label, full_space=(cfg.engine == "full"))


def predicted_table(cfg: ScenarioConfig,
                    order: int = 2) -> analytic.TransitionTable:
    """Analytic lines: the XY Toeplitz table, or the aliphatic order-2 table."""
    if cfg.model == "xy":
        return analytic.xy_predicted_spectrum(cfg.n, float(cfg.couplings["J"]))
    return analytic.aliphatic_predicted_spectrum(cfg.aliphatic_params(), order)


def _observe(cfg: ScenarioConfig):
    """H, its Propagator from the configured rho0, and each observable's series."""
    h = build_hamiltonian(cfg)
    prop = dynamics.Propagator(h, build_initial(cfg))
    trajectories = {obs_id: prop.series(build_observable(cfg, target), cfg.dt,
                                        cfg.steps(), obs_id)
                    for obs_id, target in cfg.observables()}
    return h, prop, trajectories


def run_simulate(cfg: ScenarioConfig) -> SimulationResult:
    """Propagate the configured scenario and sample every observable.

    Also tracks conserved quantities: total I_z (xy model) and the energy,
    both of which must stay flat to numerical precision.
    """
    h, prop, trajectories = _observe(cfg)
    steps = cfg.steps()
    conserved = {}
    if cfg.model == "xy":
        iz = total_Iz(cfg.n)
        series = prop.series(iz, cfg.dt, steps, "total_Iz")
        conserved["<total_Iz>"] = float(np.max(np.abs(series.values
                                                      - series.values[0])))
    energy = prop.series(h, cfg.dt, steps, "H")
    conserved["<H>"] = float(np.max(np.abs(energy.values - energy.values[0])))
    return SimulationResult(cfg, trajectories, conserved)


def run_spectrum(cfg: ScenarioConfig) -> SpectrumResult:
    """Simulate, process each trajectory to a spectrum, match analytic lines.

    Peaks are picked at spectra.DEFAULT_PEAK_THRESHOLD and matched within
    one padded grid bin. For the aliphatic model the report also states
    which coincident lines of the zeroth-order table type-II mixing splits
    (analytic.split_notes). The tables need no matrix and come first, so
    J_gem = 0 fails before anything is simulated.
    """
    table = predicted_table(cfg)
    split_notes = (analytic.split_notes(cfg.aliphatic_params(), table)
                   if cfg.model == "aliphatic" else [])
    _, _, trajectories = _observe(cfg)

    spectra_out = {}
    reports = {}
    for obs_id, traj in trajectories.items():
        spec = spectra.process_trajectory(traj, cfg.tau, cfg.zero_pad)
        peaks = spectra.pick_peaks(spec)
        reports[obs_id] = spectra.match_peaks(peaks, table, spec.grid_hz)
        spectra_out[obs_id] = spec
    return SpectrumResult(cfg, trajectories, spectra_out, reports, table,
                          split_notes)


def dss_additivity_report(peaks_hz=(3.70, 4.67, 8.37),
                          tol_hz: float = 0.01) -> tuple[spectra.PeakMatchReport, float, list[str]]:
    """Consistency check of published three-pair zero-quantum lines.

    The two low-frequency lines define the level ladder; the telescoped sum
    predicts the third line, which is then matched against the published
    peak list. Returns (report, additivity residual, note lines).
    """
    lo, mid, hi = sorted(peaks_hz)
    nu12, nu23 = mid, lo
    table = analytic.transition_table([0.0, -nu12, -nu12 - nu23])
    observed = [spectra.Peak(f, 1.0) for f in sorted(peaks_hz)]
    report = spectra.match_peaks(observed, table, tol_hz)
    residual = abs(table.frequency(1, 3) - hi)
    notes = [
        f"published lines (Hz): nu_12={nu12:.2f}, nu_23={nu23:.2f}, nu_13={hi:.2f}",
        f"additivity |nu_13 - (nu_12 + nu_23)| = {residual:.4f} Hz "
        f"(tolerance {tol_hz:.2f})",
    ]
    return report, residual, notes
