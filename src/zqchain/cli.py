"""Command-line front end.

Subcommands: simulate, spectrum, analytic, blocks, preset. Scenario flags
mirror the config-file keys and override them. Every command describes its
chain as a ScenarioConfig: simulate and spectrum validate a whole scenario,
analytic and blocks check only the chain (config.check_chain). Each job
kind has one runner in RUNNERS, shared by its subcommand and by preset: a
runner maps (config, stem) to (files, notes), where files is an ordered
{file name: text} and notes are its other stdout lines. Only then does
_write make the output directory and write the files, so a command that
fails while computing leaves no directory behind.
All computation is deterministic (there is no RNG anywhere); identical
configs produce byte-identical output files, and a preset writes the same
files and prints the same lines, in job order, whatever its --threads.
"""
from __future__ import annotations

import argparse
import functools
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import analytic, pipeline, presets, spectra
from .config import (ScenarioConfig, check_chain, check_dimension,
                     check_table_levels, config_from_overrides, load_config)
from .dynamics import format_trajectory_csv
from .hamiltonians import (build_aliphatic_full, build_aliphatic_restricted,
                           build_xy, classify_couplings, extract_blocks,
                           format_block_dump, restricted_labels, st_basis)
from .spinops import basis_change, product_labels

CONSERVED_TOL = 1e-12  # the tests' trajectory bound; drift below it is roundoff


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(_join_signs(argv))
    try:
        return args.func(args)
    except (KeyError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _join_signs(argv) -> list[str]:
    """Spell ``--signs LIST`` as ``--signs=LIST``, for every prefix of it.

    A sign list such as ``-1,1`` or ``-,+`` starts with a dash, so argparse
    would read it as an option rather than as the value of ``--signs`` or
    of an abbreviation of it such as ``--sign``.
    """
    out = []
    for arg in argv:
        if out and len(out[-1]) > 2 and "--signs".startswith(out[-1]):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="zqchain",
        description="Spin-chain zero-quantum spectroscopy simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory")

    couplings = argparse.ArgumentParser(add_help=False, parents=[common])
    couplings.add_argument("--j", type=float, help="XY coupling J in Hz")
    couplings.add_argument("--j-gem", type=float)
    couplings.add_argument("--j-gauche", type=float)
    couplings.add_argument("--j-anti", type=float)

    scenario = argparse.ArgumentParser(add_help=False, parents=[couplings])
    scenario.add_argument("--config", help="YAML scenario file")
    scenario.add_argument("--model", choices=["xy", "aliphatic"])
    scenario.add_argument("--n", type=int)
    scenario.add_argument("--flips", help="comma list of inverted sites (xy)")
    scenario.add_argument("--t0-sites",
                          help="comma list of T0 term sites (aliphatic)")
    scenario.add_argument("--signs", help="comma list of +-1 term signs")
    scenario.add_argument("--observe",
                          help="'all', comma list of sites, or product labels")
    scenario.add_argument("--dt", type=float)
    scenario.add_argument("--horizon", type=float)
    scenario.add_argument("--tau", type=float)
    scenario.add_argument("--zero-pad", type=int)
    scenario.add_argument("--engine", choices=["restricted", "full"])

    chain = argparse.ArgumentParser(add_help=False, parents=[couplings])
    chain.add_argument("--model", choices=["xy", "aliphatic"], required=True)
    chain.add_argument("--n", type=int, required=True)

    p = sub.add_parser("simulate", parents=[scenario],
                       help="write expectation-value trajectories")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("spectrum", parents=[scenario],
                       help="write spectra and peak-match reports")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("analytic", parents=[chain],
                       help="write closed-form transition tables")
    p.add_argument("--order", type=int, choices=[0, 2], default=2)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("blocks", parents=[chain],
                       help="write excitation-block structure dumps")
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("preset", parents=[common],
                       help="run a named preset scenario set")
    p.add_argument("name", choices=sorted(presets.PRESETS))
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for independent scenario runs")
    p.set_defaults(func=cmd_preset)
    return parser


# -- scenario assembly -------------------------------------------------------

def _couplings(args) -> dict:
    """The coupling flags given, keyed as in a scenario's couplings."""
    given = {"J": args.j, "J_gem": args.j_gem, "J_gauche": args.j_gauche,
             "J_anti": args.j_anti}
    return {key: value for key, value in given.items() if value is not None}


def _scenario_from_args(args) -> tuple[ScenarioConfig, str]:
    overrides = {
        "model": args.model,
        "n": args.n,
        "couplings": _couplings(args) or None,
        "observe": _split_list(args.observe),
        "dt": args.dt,
        "horizon": args.horizon,
        "tau": args.tau,
        "zero_pad": args.zero_pad,
        "engine": args.engine,
        "flips": _split_list(args.flips),
        "t0_sites": _split_list(args.t0_sites),
        "signs": _split_list(args.signs),
    }
    if args.config:
        return load_config(args.config, overrides), Path(args.config).stem
    return config_from_overrides(overrides), "scenario"


def _chain_from_args(args) -> ScenarioConfig:
    """The chain of an analytic or blocks command, checked before any build."""
    cfg = ScenarioConfig(model=args.model, n=args.n, couplings=_couplings(args))
    check_chain(cfg)
    return cfg


def _split_list(text):
    if text is None:
        return None
    return [s.strip() for s in text.split(",") if s.strip()]


# -- job runners: (config, stem) -> ({file name: text}, other stdout lines) --

def _run_simulate_job(cfg: ScenarioConfig, stem: str):
    result = pipeline.run_simulate(cfg)
    files = {f"{stem}.{obs_id}.traj.csv": format_trajectory_csv(traj)
             for obs_id, traj in result.trajectories.items()}
    return files, [conserved_note(name, drift)
                   for name, drift in result.conserved.items()]


def conserved_note(name: str, drift: float) -> str:
    """A conserved quantity's drift against CONSERVED_TOL, valued only above it."""
    if drift <= CONSERVED_TOL:
        return f"conserved {name}: drift <= {CONSERVED_TOL:g}"
    return f"conserved {name}: drift {drift:.3e} > {CONSERVED_TOL:g}"


def _run_spectrum_job(cfg: ScenarioConfig, stem: str):
    result = pipeline.run_spectrum(cfg)
    files = {}
    for obs_id, spec in result.spectra.items():
        files[f"{stem}.{obs_id}.spec.csv"] = spectra.format_spectrum_csv(spec)
        files[f"{stem}.{obs_id}.report.txt"] = spectra.format_match_report(
            result.reports[obs_id], result.split_notes)
    return files, []


def _run_blocks_job(cfg: ScenarioConfig, stem: str):
    return {f"{stem}.blocks.txt": _blocks_text(cfg)}, []


def _run_dss_job(cfg: None, stem: str):
    report, residual, notes = pipeline.dss_additivity_report()
    return ({f"{stem}.report.txt": spectra.format_match_report(report, notes)},
            [notes[-1]])


RUNNERS = {"simulate": _run_simulate_job, "spectrum": _run_spectrum_job,
           "blocks": _run_blocks_job, "dss": _run_dss_job}


def _blocks_text(cfg: ScenarioConfig) -> str:
    if cfg.model == "xy":
        params = cfg.xy_params()
        h = build_xy(params)
        labels = product_labels("ab", params.n)
        decomp = extract_blocks(h, labels)
        return format_block_dump(decomp, f"xy chain n={params.n}, J={params.j} Hz")

    params = cfg.aliphatic_params()
    h = build_aliphatic_restricted(params)
    decomp = extract_blocks(h, restricted_labels(params.n))
    text = format_block_dump(
        decomp, f"aliphatic chain n={params.n} restricted to {{T0,S0}}, "
                f"J_gem={params.j_gem} Hz, dJ={params.delta_j} Hz")
    # full singlet-triplet matrix with every coupling typed
    st_labels, u = st_basis(params.n)
    h_full = build_aliphatic_full(params)
    h_st = basis_change(h_full, u, f"st4:{params.n}")
    couplings = classify_couplings(h_st, st_labels)
    lines = [text, f"# full singlet-triplet basis matrix ({h_st.dim} states)",
             f"nonzero off-diagonal couplings: {len(couplings)}"]
    for c in couplings:
        lines.append(f"  {c.label_a} <-> {c.label_b}  {c.value:.4f} Hz  {c.kind}")
    lines.append("")
    return "\n".join(lines)


# -- subcommands --------------------------------------------------------------

def _write(out: str, files: dict[str, str], notes: list[str]) -> list[str]:
    """Make ``out`` and write ``files`` in order; their wrote lines, then notes."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for name, text in files.items():
        path = out / name
        path.write_text(text, encoding="utf-8")
        lines.append(f"wrote {path}")
    return lines + notes


def _print(lines: list[str]) -> int:
    for line in lines:
        print(line)
    return 0


def cmd_scenario(args) -> int:
    """simulate or spectrum: one validated scenario through its runner."""
    cfg, stem = _scenario_from_args(args)
    return _print(_write(args.out, *RUNNERS[args.command](cfg, stem)))


def cmd_analytic(args) -> int:
    cfg = _chain_from_args(args)
    check_table_levels(cfg.n)
    table = pipeline.predicted_table(cfg, args.order)
    notes = []
    if cfg.model == "xy":
        stem = f"analytic-xy-n{cfg.n}"
    else:
        stem = f"analytic-aliphatic-n{cfg.n}-order{args.order}"
        if args.order == 2:
            notes = analytic.split_notes(cfg.aliphatic_params(), table)
    text = analytic.format_transition_table(table, notes)
    return _print(_write(args.out, {f"{stem}.analytic.txt": text}, []))


def cmd_blocks(args) -> int:
    cfg = _chain_from_args(args)
    # the aliphatic dump also types every coupling of the full engine
    check_dimension(cfg.model, cfg.n, "full")
    stem = f"blocks-{cfg.model}-n{cfg.n}"
    return _print(_write(args.out, *_run_blocks_job(cfg, stem)))


def cmd_preset(args) -> int:
    def run(job):
        # each worker writes its own job's files, so no text outlives its job
        return _write(args.out, *RUNNERS[job.kind](job.config, job.stem))

    with ThreadPoolExecutor(max_workers=max(args.threads, 1)) as pool:
        for lines in pool.map(run, presets.expand(args.name)):
            _print(lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
