"""Command-line front end.

Subcommands: simulate, spectrum, analytic, blocks, preset. Scenario flags
mirror the config-file keys and override them. All computation is
deterministic (there is no RNG anywhere); identical configs produce
byte-identical output files, and a preset writes the same files and prints
the same lines, in job order, whatever its --threads.
"""
from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import analytic, pipeline, presets, spectra
from .config import (ConfigError, ScenarioConfig, check_dimension,
                     check_table_levels, config_from_overrides, load_config)
from .dynamics import format_trajectory_csv
from .hamiltonians import (AliphaticParams, XYParams, build_aliphatic_full,
                           build_aliphatic_restricted, build_xy,
                           classify_couplings, extract_blocks,
                           format_block_dump, restricted_labels, st_basis)
from .spinops import basis_change, product_labels


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zqchain",
        description="Spin-chain zero-quantum spectroscopy simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory")

    scenario = argparse.ArgumentParser(add_help=False, parents=[common])
    scenario.add_argument("--config", help="YAML scenario file")
    scenario.add_argument("--model", choices=["xy", "aliphatic"])
    scenario.add_argument("--n", type=int)
    scenario.add_argument("--j", type=float, help="XY coupling J in Hz")
    scenario.add_argument("--j-gem", type=float)
    scenario.add_argument("--j-gauche", type=float)
    scenario.add_argument("--j-anti", type=float)
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

    p = sub.add_parser("simulate", parents=[scenario],
                       help="write expectation-value trajectories")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spectrum", parents=[scenario],
                       help="write spectra and peak-match reports")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("analytic", parents=[common],
                       help="write closed-form transition tables")
    p.add_argument("--model", choices=["xy", "aliphatic"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=float)
    p.add_argument("--j-gem", type=float)
    p.add_argument("--j-gauche", type=float)
    p.add_argument("--j-anti", type=float)
    p.add_argument("--order", type=int, choices=[0, 2], default=2)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("blocks", parents=[common],
                       help="write excitation-block structure dumps")
    p.add_argument("--model", choices=["xy", "aliphatic"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=float)
    p.add_argument("--j-gem", type=float)
    p.add_argument("--j-gauche", type=float)
    p.add_argument("--j-anti", type=float)
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("preset", parents=[common],
                       help="run a named preset scenario set")
    p.add_argument("name", choices=sorted(presets.PRESETS))
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for independent scenario runs")
    p.set_defaults(func=cmd_preset)
    return parser


# -- scenario assembly -------------------------------------------------------

def _scenario_from_args(args) -> tuple[ScenarioConfig, str]:
    overrides = {
        "model": args.model,
        "n": args.n,
        "observe": _split_list(args.observe),
        "dt": args.dt,
        "horizon": args.horizon,
        "tau": args.tau,
        "zero_pad": args.zero_pad,
        "engine": args.engine,
        "flips": _split_ints(args.flips),
        "t0_sites": _split_ints(args.t0_sites),
        "signs": _split_signs(args.signs),
    }
    couplings = {}
    if args.j is not None:
        couplings["J"] = args.j
    if args.j_gem is not None:
        couplings["J_gem"] = args.j_gem
    if args.j_gauche is not None:
        couplings["J_gauche"] = args.j_gauche
    if args.j_anti is not None:
        couplings["J_anti"] = args.j_anti
    if couplings:
        overrides["couplings"] = couplings

    if args.config:
        cfg = load_config(args.config, overrides)
        stem = Path(args.config).stem
    else:
        cfg = config_from_overrides(overrides)
        stem = "scenario"
    return cfg, stem


def _split_list(text):
    if text is None:
        return None
    return [s.strip() for s in text.split(",") if s.strip()]


def _split_ints(text):
    if text is None:
        return None
    return [int(s) for s in _split_list(text)]


def _split_signs(text):
    if text is None:
        return None
    return [{"+": 1.0, "-": -1.0}.get(s, None) or float(s)
            for s in _split_list(text)]


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- subcommands --------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg, stem = _scenario_from_args(args)
    out = _outdir(args)
    for line in _run_simulate_job(cfg, stem, out):
        print(line)
    return 0


def _run_simulate_job(cfg: ScenarioConfig, stem: str, out: Path) -> list[str]:
    result = pipeline.run_simulate(cfg)
    lines = []
    for obs_id, traj in result.trajectories.items():
        path = out / f"{stem}.{obs_id}.traj.csv"
        path.write_text(format_trajectory_csv(traj), encoding="utf-8")
        lines.append(f"wrote {path}")
    for name, dev in result.conserved.items():
        lines.append(f"conserved {name}: max deviation {dev:.3e}")
    return lines


def cmd_spectrum(args) -> int:
    cfg, stem = _scenario_from_args(args)
    out = _outdir(args)
    for line in _run_spectrum_job(cfg, stem, out):
        print(line)
    return 0


def _run_spectrum_job(cfg: ScenarioConfig, stem: str, out: Path) -> list[str]:
    result = pipeline.run_spectrum(cfg)
    lines = []
    for obs_id, spec in result.spectra.items():
        spec_path = out / f"{stem}.{obs_id}.spec.csv"
        spec_path.write_text(spectra.format_spectrum_csv(spec),
                             encoding="utf-8")
        report = spectra.format_match_report(result.reports[obs_id],
                                             result.split_notes)
        report_path = out / f"{stem}.{obs_id}.report.txt"
        report_path.write_text(report, encoding="utf-8")
        lines += [f"wrote {spec_path}", f"wrote {report_path}"]
    return lines


def _analytic_params(args):
    if args.model == "xy":
        if args.j is None:
            raise ConfigError("couplings", "xy model needs --j")
        return XYParams(args.n, args.j)
    missing = [f for f, v in (("--j-gem", args.j_gem),
                              ("--j-gauche", args.j_gauche),
                              ("--j-anti", args.j_anti)) if v is None]
    if missing:
        raise ConfigError("couplings", f"aliphatic model needs {missing}")
    return AliphaticParams(args.n, args.j_gem, args.j_gauche, args.j_anti)


def cmd_analytic(args) -> int:
    params = _analytic_params(args)
    check_table_levels(args.n)
    out = _outdir(args)
    extra = []
    if args.model == "xy":
        table = analytic.xy_predicted_spectrum(params.n, params.j)
        stem = f"analytic-xy-n{params.n}"
    else:
        table = analytic.aliphatic_predicted_spectrum(params, args.order)
        stem = f"analytic-aliphatic-n{params.n}-order{args.order}"
        if args.order == 2:
            estimate = analytic.pt2_splitting_estimate(params.delta_j,
                                                       params.j_gem)
            extra.append(f"pt2 splitting estimate: {estimate:.4f} Hz")
            for (k1, l1), (k2, l2) in (((1, 2), (params.n - 1, params.n)),
                                       ((1, 3), (2, 4))):
                try:
                    split = abs(table.frequency(k1, l1) - table.frequency(k2, l2))
                except KeyError:
                    continue
                extra.append(f"exact nu_{k1}{l1}/nu_{k2}{l2} splitting: "
                             f"{split:.4f} Hz")
    path = out / f"{stem}.analytic.txt"
    path.write_text(analytic.format_transition_table(table, extra),
                    encoding="utf-8")
    print(f"wrote {path}")
    return 0


def cmd_blocks(args) -> int:
    params = _analytic_params(args)
    # the aliphatic dump also types every coupling of the full engine
    check_dimension(args.model, args.n, "full")
    out = _outdir(args)
    stem = f"blocks-{args.model}-n{params.n}"
    path = out / f"{stem}.blocks.txt"
    path.write_text(_blocks_text(params), encoding="utf-8")
    print(f"wrote {path}")
    return 0


def _blocks_text(params: XYParams | AliphaticParams) -> str:
    if isinstance(params, XYParams):
        h = build_xy(params)
        labels = product_labels("ab", params.n)
        decomp = extract_blocks(h, labels)
        return format_block_dump(decomp, f"xy chain n={params.n}, J={params.j} Hz")

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


def cmd_preset(args) -> int:
    jobs = presets.expand(args.name)
    out = _outdir(args)

    def run(job: presets.Job) -> list[str]:
        if job.kind == "simulate":
            return _run_simulate_job(job.config, job.stem, out)
        if job.kind == "spectrum":
            return _run_spectrum_job(job.config, job.stem, out)
        if job.kind == "blocks":
            path = out / f"{job.stem}.blocks.txt"
            path.write_text(_blocks_text(job.config), encoding="utf-8")
            return [f"wrote {path}"]
        if job.kind == "dss":
            report, residual, notes = pipeline.dss_additivity_report()
            path = out / f"{job.stem}.report.txt"
            path.write_text(spectra.format_match_report(report, notes),
                            encoding="utf-8")
            return [f"wrote {path}", notes[-1]]
        raise ValueError(f"unknown job kind {job.kind}")  # pragma: no cover

    with ThreadPoolExecutor(max_workers=max(args.threads, 1)) as pool:
        for lines in pool.map(run, jobs):
            for line in lines:
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
