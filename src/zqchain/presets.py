"""Named scenario presets regenerating the standard demonstration datasets.

Each preset expands to a list of jobs; couplings follow the standard
demonstration parameters (J = 5 Hz for XY chains; delta_j = 5 Hz with
j_gem = -14 Hz for methylene chains).
"""
from __future__ import annotations

from dataclasses import dataclass

from .config import ScenarioConfig, check_chain, validate

ALIPHATIC_COUPLINGS = {"J_gem": -14.0, "J_gauche": 7.5, "J_anti": 2.5}


@dataclass(frozen=True)
class Job:
    """One run of a preset, by the runner ``cli.RUNNERS[kind]``."""

    kind: str                 # simulate | spectrum | blocks | dss
    stem: str
    # validated for simulate/spectrum, chain-checked for blocks, None for dss
    config: ScenarioConfig | None = None


def _xy(n, flips, observe, **kw) -> ScenarioConfig:
    return validate(ScenarioConfig(model="xy", n=n, couplings={"J": 5.0},
                                   flips=tuple(flips), observe=tuple(observe),
                                   **kw))


def _aliphatic(n, t0_sites, signs, observe, **kw) -> ScenarioConfig:
    return validate(ScenarioConfig(model="aliphatic", n=n,
                                   couplings=dict(ALIPHATIC_COUPLINGS),
                                   t0_sites=tuple(t0_sites),
                                   signs=tuple(signs), observe=tuple(observe),
                                   **kw))


def _chain(model, n) -> ScenarioConfig:
    couplings = {"J": 5.0} if model == "xy" else dict(ALIPHATIC_COUPLINGS)
    cfg = ScenarioConfig(model=model, n=n, couplings=couplings)
    check_chain(cfg)
    return cfg


def fig1() -> list[Job]:
    """Eight-spin inversion transport: trajectories at every site."""
    return [Job("simulate", "fig1", _xy(8, [1], ["all"]))]


def fig6a() -> list[Job]:
    """Methylene chain, standard inversion pattern, terminal-pair spectrum."""
    cfg = _aliphatic(4, [1, 2, 3, 4], [1, 1, 1, -1], ["S0S0S0T0"])
    return [Job("spectrum", "fig6a", cfg)]


def fig6b() -> list[Job]:
    """Methylene chain, two-site pattern; central transitions suppressed."""
    cfg = _aliphatic(4, [3, 4], [1, 1], ["S0S0S0T0"])
    return [Job("spectrum", "fig6b", cfg)]


def fig6c() -> list[Job]:
    """Four-spin XY chain, first spin inverted and observed."""
    return [Job("spectrum", "fig6c", _xy(4, [1], [1]))]


def fig6d() -> list[Job]:
    """Four-spin XY chain, two spins inverted; outer transitions suppressed."""
    return [Job("spectrum", "fig6d", _xy(4, [1, 2], [1]))]


def fig7() -> list[Job]:
    """Spectra for n = 2..5 at every site, plus the mirrored scenarios.

    For each chain length the sweep runs both the first-spin-inverted and
    the last-spin-inverted pattern; the scenario pair (inverted site 1,
    observed site i) vs (inverted site n, observed site n+1-i) is related
    by the exact mirror symmetry of the chain, so those spectrum files agree
    in value to about 1e-13 (roundoff may differ in the last printed digit).
    """
    jobs = []
    for n in range(2, 6):
        for inv in (1, n):
            jobs.append(Job("spectrum", f"fig7-n{n}-inv{inv}",
                            _xy(n, [inv], ["all"])))
    return jobs


def blocks_fig3() -> list[Job]:
    """Block structure of the 4-spin XY chain and the 4-pair methylene chain."""
    return [Job("blocks", "blocks-fig3-xy", _chain("xy", 4)),
            Job("blocks", "blocks-fig3-aliphatic", _chain("aliphatic", 4))]


def blocks_fig5() -> list[Job]:
    """Higher-excitation blocks of the 4-pair methylene chain (k = 0, 2, 4)."""
    return [Job("blocks", "blocks-fig5-aliphatic", _chain("aliphatic", 4))]


def dss_additivity() -> list[Job]:
    """Match the published DSS zero-quantum lines and check telescoping."""
    return [Job("dss", "dss-additivity")]


PRESETS = {
    "fig1": fig1,
    "fig6a": fig6a,
    "fig6b": fig6b,
    "fig6c": fig6c,
    "fig6d": fig6d,
    "fig7": fig7,
    "blocks-fig3": blocks_fig3,
    "blocks-fig5": blocks_fig5,
    "dss-additivity": dss_additivity,
}


def expand(name: str) -> list[Job]:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: "
                       f"{', '.join(sorted(PRESETS))}")
    return PRESETS[name]()
