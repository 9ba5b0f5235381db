"""Config validation and the command-line front end."""
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zqchain import analytic, cli, config, pipeline, presets
from zqchain.cli import main
from zqchain.config import (
    MAX_FFT_POINTS,
    MAX_STEPS,
    MAX_TABLE_LEVELS,
    ConfigError,
    ScenarioConfig,
    check_dimension,
    check_table_levels,
    config_from_overrides,
    load_config,
    validate,
)

FIG6C_YAML = """\
model: xy
n: 4
couplings: {J: 5.0}
initial: {flips: [1]}
observe: [1]
"""

ALIPHATIC_YAML = """\
model: aliphatic
n: 4
couplings: {J_gem: -14.0, J_gauche: 7.5, J_anti: 2.5}
initial:
  t0_sites: [1, 2, 3, 4]
  signs: [1, 1, 1, -1]
observe: [S0S0S0T0]
engine: restricted
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_xy_config(tmp_path):
    cfg = load_config(write(tmp_path, "fig6c.yaml", FIG6C_YAML))
    assert cfg.model == "xy"
    assert cfg.flips == (1,)
    assert cfg.dt == 0.005 and cfg.horizon == 20.0 and cfg.tau == 5.0
    assert cfg.zero_pad == 4
    assert cfg.observables() == [("site1", 1)]


def test_load_aliphatic_config(tmp_path):
    cfg = load_config(write(tmp_path, "a.yaml", ALIPHATIC_YAML))
    assert cfg.t0_sites == (1, 2, 3, 4)
    assert cfg.signs == (1.0, 1.0, 1.0, -1.0)
    obs_id, label = cfg.observables()[0]
    assert obs_id == "S0S0S0T0"
    assert cfg.aliphatic_params().delta_j == pytest.approx(5.0)


def test_overrides_beat_file_values(tmp_path):
    path = write(tmp_path, "fig6c.yaml", FIG6C_YAML)
    cfg = load_config(path, {"tau": 2.0, "observe": ["all"]})
    assert cfg.tau == 2.0
    assert len(cfg.observables()) == 4


def test_site_zero_rejected(tmp_path):
    text = FIG6C_YAML.replace("flips: [1]", "flips: [0]")
    path = write(tmp_path, "bad.yaml", text)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "flips" in str(err.value)
    assert "bad.yaml" in str(err.value)


def test_error_message_carries_line_number(tmp_path):
    text = FIG6C_YAML.replace("n: 4", "n: 1")
    path = write(tmp_path, "bad.yaml", text)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert ":2: n:" in str(err.value)


def test_unknown_field_rejected(tmp_path):
    path = write(tmp_path, "bad.yaml", FIG6C_YAML + "bogus: 1\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "bogus" in str(err.value)


def test_size_guards():
    with pytest.raises(ConfigError) as err:
        validate(ScenarioConfig(model="xy", n=13, couplings={"J": 5.0}))
    assert "4096" in str(err.value)
    with pytest.raises(ConfigError) as err:
        validate(ScenarioConfig(model="aliphatic", n=7, engine="full",
                                couplings={"J_gem": -14, "J_gauche": 7.5,
                                           "J_anti": 2.5},
                                t0_sites=(1,), signs=(1.0,)))
    assert "full-engine" in str(err.value)
    with pytest.raises(ConfigError) as err:
        validate(ScenarioConfig(model="aliphatic", n=15,
                                couplings={"J_gem": -14, "J_gauche": 7.5,
                                           "J_anti": 2.5},
                                t0_sites=(1,), signs=(1.0,)))
    assert "restricted-engine" in str(err.value)


XY_J5 = {"model": "xy", "n": 4, "couplings": {"J": 5.0}, "flips": (1,)}


@pytest.mark.parametrize("fields,field,message", [
    ({"couplings": {"J": float("nan")}}, "couplings", "finite"),
    ({"couplings": {"J": float("inf")}}, "couplings", "finite"),
    ({"horizon": float("inf")}, "horizon", "finite"),
    ({"dt": 1e-9, "horizon": 1e3}, "horizon",
     f"1e+12 steps exceeds the {MAX_STEPS}-step limit"),
    ({"dt": float("nan")}, "dt", "finite"),
    ({"observe": ()}, "observe", "names no observables"),
])
def test_validate_rejects_non_finite_and_unbounded_input(fields, field,
                                                         message):
    # validation only inspects fields: nothing of the run is allocated
    with pytest.raises(ConfigError) as err:
        validate(ScenarioConfig(**{**XY_J5, **fields}))
    assert err.value.field == field
    assert message in str(err.value)


def test_validate_rejects_non_finite_aliphatic_coupling():
    with pytest.raises(ConfigError) as err:
        validate(ScenarioConfig(model="aliphatic", n=3,
                                couplings={"J_gem": -14.0, "J_gauche": 7.5,
                                           "J_anti": float("-inf")},
                                t0_sites=(1,), signs=(1.0,)))
    assert err.value.field == "couplings" and "J_anti" in str(err.value)


def test_step_limit_is_inclusive_and_tau_may_be_infinite():
    cfg = validate(ScenarioConfig(**XY_J5, dt=0.001, horizon=MAX_STEPS * 0.001,
                                  tau=float("inf")))
    assert cfg.steps() == MAX_STEPS


def test_zero_pad_is_bounded_by_the_fft_limit():
    # validation only multiplies: no padded signal is allocated
    with pytest.raises(ConfigError) as err:
        validate(ScenarioConfig(**XY_J5, zero_pad=10 ** 9))
    assert err.value.field == "zero_pad"
    assert f"the {MAX_FFT_POINTS}-point FFT limit" in str(err.value)
    largest = MAX_FFT_POINTS // 4001  # the default 20 s / 5 ms grid
    assert validate(ScenarioConfig(**XY_J5, zero_pad=largest)).zero_pad == largest
    with pytest.raises(ConfigError, match="FFT limit"):
        validate(ScenarioConfig(**XY_J5, zero_pad=largest + 1))
    # every preset validates as it expands, and so do the CLI defaults
    for name in presets.PRESETS:
        presets.expand(name)
    config_from_overrides({"couplings": {"J": 5.0}, "flips": [1]})


def test_check_dimension_limits():
    for model, n, engine in (("xy", 12, "full"), ("aliphatic", 6, "full"),
                             ("aliphatic", 13, "restricted")):
        check_dimension(model, n, engine)
    for model, n, engine, message in (
            ("xy", 13, "restricted", "2^13 exceeds the 4096-dim full-matrix"),
            ("aliphatic", 7, "full", "4^7 exceeds the 4096-dim full-engine"),
            ("aliphatic", 14, "restricted",
             "2^14 exceeds the 8192-dim restricted-engine limit (n <= 13)")):
        with pytest.raises(ConfigError) as err:
            check_dimension(model, n, engine)
        assert message in str(err.value)


ALIPHATIC_FLAGS = ["--j-gem", "-14", "--j-gauche", "7.5", "--j-anti", "2.5"]


@pytest.fixture
def no_builds(monkeypatch):
    def refuse(*args):
        raise AssertionError("matrix built past the size guard")
    for name in ("build_xy", "build_aliphatic_full",
                 "build_aliphatic_restricted"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(analytic, "build_aliphatic_restricted", refuse)


def test_blocks_and_analytic_refuse_oversized_chains(tmp_path, capsys,
                                                     no_builds):
    for argv, message in (
            (["blocks", "--model", "xy", "--n", "13", "--j", "5"],
             "2^13 exceeds the 4096-dim full-matrix"),
            (["blocks", "--model", "aliphatic", "--n", "7", *ALIPHATIC_FLAGS],
             "4^7 exceeds the 4096-dim full-engine"),
            (["analytic", "--model", "aliphatic", "--n",
              str(MAX_TABLE_LEVELS + 1), "--order", "2", *ALIPHATIC_FLAGS],
             f"exceed the {MAX_TABLE_LEVELS}-level transition-table limit")):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["analytic", "blocks"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_analytic_and_blocks_refuse_non_finite_couplings(tmp_path, capsys,
                                                         no_builds, command,
                                                         bad):
    out = tmp_path / "out"
    chains = [["--model", "xy", f"--j={bad}"]]
    values = dict(zip(ALIPHATIC_FLAGS[::2], ALIPHATIC_FLAGS[1::2]))
    for flag in values:
        chains.append(["--model", "aliphatic",
                       *(f"{f}={bad if f == flag else v}"
                         for f, v in values.items())])
    for chain in chains:
        assert main([command, "--n", "3", *chain, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "couplings:" in err and "finite" in err
    assert not out.exists()


def test_analytic_and_blocks_check_the_chain_as_validate_does(tmp_path, capsys,
                                                              no_builds):
    out = tmp_path / "out"
    for argv, message in (
            (["--model", "xy", "--n", "4"],
             "couplings: xy model needs coupling J (Hz)"),
            (["--model", "aliphatic", "--n", "4", "--j-gem", "-14"],
             "couplings: aliphatic model needs ['J_gauche', 'J_anti'] (Hz)"),
            (["--model", "xy", "--n", "1", "--j", "5"],
             "n: chain length must be >= 2, got 1")):
        for command in ("analytic", "blocks"):
            assert main([command, *argv, "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
    assert not out.exists()


def test_blocks_command_writes_the_preset_files(tmp_path):
    assert main(["preset", "blocks-fig3", "--out", str(tmp_path / "preset")]) == 0
    for model, flags in (("xy", ["--j", "5"]), ("aliphatic", ALIPHATIC_FLAGS)):
        assert main(["blocks", "--model", model, "--n", "4", *flags,
                     "--out", str(tmp_path / "cli")]) == 0
        assert ((tmp_path / "cli" / f"blocks-{model}-n4.blocks.txt").read_bytes()
                == (tmp_path / "preset" / f"blocks-fig3-{model}.blocks.txt")
                .read_bytes())


def test_analytic_command_writes_the_pipeline_table(tmp_path):
    aliphatic = dict(zip(("J_gem", "J_gauche", "J_anti"), (-14.0, 7.5, 2.5)))
    for model, couplings, flags, order, stem in (
            ("xy", {"J": 5.0}, ["--j", "5"], 2, "analytic-xy-n5"),
            ("aliphatic", aliphatic, ALIPHATIC_FLAGS, 0,
             "analytic-aliphatic-n5-order0"),
            ("aliphatic", aliphatic, ALIPHATIC_FLAGS, 2,
             "analytic-aliphatic-n5-order2")):
        assert main(["analytic", "--model", model, "--n", "5", *flags,
                     "--order", str(order), "--out", str(tmp_path)]) == 0
        cfg = ScenarioConfig(model=model, n=5, couplings=couplings)
        table = pipeline.predicted_table(cfg, order)
        text = (tmp_path / f"{stem}.analytic.txt").read_text(encoding="utf-8")
        assert text.startswith(analytic.format_transition_table(table))


def test_cli_spectrum_refuses_an_empty_observe_list(tmp_path, capsys,
                                                    monkeypatch):
    def refuse(*args):
        raise AssertionError("built before the observe list was checked")
    monkeypatch.setattr(pipeline, "build_hamiltonian", refuse)
    out = tmp_path / "out"
    assert main(["spectrum", "--model", "xy", "--n", "3", "--j", "5",
                 "--flips", "1", "--observe", ",", "--out", str(out)]) == 2
    assert "observe: names no observables" in capsys.readouterr().err
    assert not out.exists()


def test_analytic_tables_pass_the_matrix_size_guards(tmp_path, no_builds):
    assert main(["analytic", "--model", "xy", "--n", "16", "--j", "5",
                 "--out", str(tmp_path)]) == 0
    assert main(["analytic", "--model", "aliphatic", "--n", "16",
                 "--order", "0", *ALIPHATIC_FLAGS, "--out", str(tmp_path)]) == 0
    assert main(["analytic", "--model", "aliphatic", "--n", "15",
                 "--order", "2", *ALIPHATIC_FLAGS, "--out", str(tmp_path)]) == 0


def test_analytic_order2_long_chain_needs_no_eigh(tmp_path, monkeypatch,
                                                  no_builds):
    def refuse(*args, **kwargs):
        raise AssertionError("eigh called for the order-2 table")
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert main(["analytic", "--model", "aliphatic", "--n", "200",
                 "--order", "2", *ALIPHATIC_FLAGS, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "analytic-aliphatic-n200-order2.analytic.txt").read_text()
    assert "nu_199200 = " in text


def test_table_level_bound_arithmetic():
    assert MAX_TABLE_LEVELS == 1000
    check_table_levels(1000)
    with pytest.raises(ConfigError) as err:
        check_table_levels(1001)
    assert ("1001 levels exceed the 1000-level transition-table limit"
            in str(err.value))


def test_observe_label_needs_matching_length():
    with pytest.raises(ConfigError) as err:
        validate(ScenarioConfig(model="aliphatic", n=4,
                                couplings={"J_gem": -14, "J_gauche": 7.5,
                                           "J_anti": 2.5},
                                t0_sites=(1,), signs=(1.0,),
                                observe=("S0T0",)))
    assert "observe" in str(err.value)


def test_config_from_overrides_minimal():
    cfg = config_from_overrides({"model": "xy", "n": 2,
                                 "couplings": {"J": 5.0}, "flips": [1],
                                 "observe": [1]})
    assert cfg.n == 2


def test_cli_simulate_writes_trajectories(tmp_path, capsys):
    rc = main(["simulate", "--model", "xy", "--n", "2", "--j", "5",
               "--flips", "1", "--observe", "1", "--horizon", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "conserved" in out
    path = tmp_path / "scenario.site1.traj.csv"
    assert path.exists()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t_seconds,value"
    assert len(lines) == 402  # 2 s at dt=0.005, plus t=0 and header
    # first zero crossing of the flip-flop at 1/(4J) = 0.05 s
    rows = [line.split(",") for line in lines[1:]]
    first_nonneg = next(float(t) for t, v in rows if float(v) >= 0)
    assert first_nonneg == pytest.approx(0.05, abs=0.005)


def test_cli_spectrum_fig6c(tmp_path):
    rc = main(["spectrum", "--model", "xy", "--n", "4", "--j", "5",
               "--flips", "1", "--observe", "1", "--out", str(tmp_path)])
    assert rc == 0
    report = (tmp_path / "scenario.site1.report.txt").read_text()
    assert report.count("matched") >= 4
    assert "suppressed" not in report
    assert "spurious" not in report
    spec_lines = (tmp_path / "scenario.site1.spec.csv").read_text().splitlines()
    assert spec_lines[0] == "freq_hz,magnitude"


def test_a_refused_call_leaves_the_parser_as_it_was(tmp_path, capsys):
    def fig6c(out):
        assert main(["preset", "fig6c", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        return stdout, {p.name: p.read_bytes() for p in out.iterdir()}

    first = fig6c(tmp_path / "a")
    with pytest.raises(SystemExit) as exc:  # argparse exits on a bad choice
        main(["preset", "no-such-preset"])
    assert exc.value.code == 2
    assert main(["spectrum", "--model", "xy", "--n", "4", "--j", "nan",
                 "--out", str(tmp_path / "c")]) == 2
    capsys.readouterr()
    assert fig6c(tmp_path / "b") == first
    assert len(first[1]) == 2


def test_cli_config_file_stem_used(tmp_path):
    path = write(tmp_path, "myrun.yaml", FIG6C_YAML)
    rc = main(["spectrum", "--config", path, "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "myrun.site1.spec.csv").exists()


def test_cli_invalid_config_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.yaml", FIG6C_YAML.replace("n: 4", "n: 0"))
    rc = main(["simulate", "--config", path, "--out", str(tmp_path)])
    assert rc != 0
    assert "n:" in capsys.readouterr().err


def test_cli_analytic_xy_n3(tmp_path):
    rc = main(["analytic", "--model", "xy", "--n", "3", "--j", "5",
               "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "analytic-xy-n3.analytic.txt").read_text()
    assert "nu_12 = 3.5355" in text
    assert "nu_23 = 3.5355" in text
    assert "nu_13 = 7.0711" in text


def test_cli_analytic_aliphatic_order2(tmp_path):
    rc = main(["analytic", "--model", "aliphatic", "--n", "4",
               "--j-gem", "-14", "--j-gauche", "7.5", "--j-anti", "2.5",
               "--order", "2", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "analytic-aliphatic-n4-order2.analytic.txt").read_text()
    assert "-0.4464" in text            # pt2 estimate
    assert "0.5909" in text             # exact splitting alongside it


def test_cli_blocks_xy(tmp_path):
    rc = main(["blocks", "--model", "xy", "--n", "4", "--j", "5",
               "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "blocks-xy-n4.blocks.txt").read_text()
    for k, size in ((0, 1), (1, 4), (2, 6), (3, 4), (4, 1)):
        assert f"block k={k}  size={size}" in text
    assert "inter-block couplings: 0" in text


def test_cli_blocks_aliphatic(tmp_path):
    rc = main(["blocks", "--model", "aliphatic", "--n", "2",
               "--j-gem", "-14", "--j-gauche", "7.5", "--j-anti", "2.5",
               "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "blocks-aliphatic-n2.blocks.txt").read_text()
    assert "nonzero off-diagonal couplings: 2" in text
    assert text.count("2.5000 Hz") >= 2
    assert "type-I" in text and "type-II" in text


def test_cli_preset_dss(tmp_path, capsys):
    rc = main(["preset", "dss-additivity", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "dss-additivity.report.txt").read_text()
    assert "additivity" in text
    assert "0.0000 Hz" in text


def test_cli_preset_fig6a_report_flags_splits(tmp_path):
    rc = main(["preset", "fig6a", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "fig6a.S0S0S0T0.report.txt").read_text()
    assert "nu_12/nu_34: split by 0.5909 Hz" in text
    assert "nu_13/nu_24: split by 0.5909 Hz" in text
    assert "nu_23: single line" in text
    assert "nu_14: single line" in text
    assert "pt2 splitting estimate (1/4 dJ^2/J_gem): -0.4464 Hz" in text


def test_cli_preset_stdout_does_not_depend_on_threads(tmp_path, capsys):
    outputs = []
    for threads in ("1", "4"):
        assert main(["preset", "fig7", "--threads", threads,
                     "--out", str(tmp_path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[0].endswith("fig7-n2-inv1.site1.spec.csv")


def test_cli_preset_fig7_grid_and_mirror_pairs(tmp_path):
    rc = main(["preset", "fig7", "--threads", "4", "--out", str(tmp_path)])
    assert rc == 0
    specs = sorted(tmp_path.glob("fig7-*.spec.csv"))
    assert len(specs) == 2 * (2 + 3 + 4 + 5)

    def magnitudes(name):
        rows = (tmp_path / name).read_text().strip().splitlines()[1:]
        return [float(r.split(",")[1]) for r in rows]

    for n in (2, 4):
        for site in range(1, n + 1):
            a = magnitudes(f"fig7-n{n}-inv1.site{site}.spec.csv")
            b = magnitudes(f"fig7-n{n}-inv{n}.site{n + 1 - site}.spec.csv")
            assert max(abs(x - y) for x, y in zip(a, b)) < 1e-8


def test_cli_preset_blocks(tmp_path):
    rc = main(["preset", "blocks-fig3", "--out", str(tmp_path)])
    assert rc == 0
    xy_text = (tmp_path / "blocks-fig3-xy.blocks.txt").read_text()
    assert "inter-block couplings: 0" in xy_text
    ali_text = (tmp_path / "blocks-fig3-aliphatic.blocks.txt").read_text()
    assert "inter-block couplings: 12" in ali_text
    assert "type-II" in ali_text
    assert "full singlet-triplet basis matrix (256 states)" in ali_text
    rc = main(["preset", "blocks-fig5", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "blocks-fig5-aliphatic.blocks.txt").exists()


def test_cli_spectrum_full_engine_matches_restricted(tmp_path):
    base = ["spectrum", "--model", "aliphatic", "--n", "2",
            "--j-gem", "-14", "--j-gauche", "7.5", "--j-anti", "2.5",
            "--t0-sites", "1,2", "--signs", "1,-1", "--observe", "T0S0"]
    for engine in ("restricted", "full"):
        rc = main(base + ["--engine", engine, "--out", str(tmp_path / engine)])
        assert rc == 0

    def magnitudes(engine):
        path = tmp_path / engine / "scenario.T0S0.spec.csv"
        rows = path.read_text().strip().splitlines()[1:]
        return [float(r.split(",")[1]) for r in rows]

    a, b = magnitudes("restricted"), magnitudes("full")
    assert max(abs(x - y) for x, y in zip(a, b)) < 1e-8


def test_cli_preset_fig1_output_count(tmp_path, capsys):
    rc = main(["preset", "fig1", "--out", str(tmp_path)])
    assert rc == 0
    files = sorted(tmp_path.glob("fig1.site*.traj.csv"))
    assert len(files) == 8
    out = capsys.readouterr().out
    # drift is stated against one tolerance, so these lines hold no roundoff
    assert out.splitlines()[-2:] == ["conserved <total_Iz>: drift <= 1e-12",
                                     "conserved <H>: drift <= 1e-12"]


def test_conserved_note_prints_the_drift_only_above_the_tolerance():
    assert cli.conserved_note("<H>", 1e-12) == "conserved <H>: drift <= 1e-12"
    assert (cli.conserved_note("<H>", 2.5e-12)
            == "conserved <H>: drift 2.500e-12 > 1e-12")
    assert cli.conserved_note("<H>", float("nan")).endswith("drift nan > 1e-12")


def test_cli_deterministic_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = main(["spectrum", "--model", "xy", "--n", "3", "--j", "5",
                   "--flips", "1", "--observe", "all", "--out", str(out)])
        assert rc == 0
    for name in ("scenario.site1.spec.csv", "scenario.site2.spec.csv",
                 "scenario.site3.spec.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_cli_unknown_preset(capsys):
    with pytest.raises(SystemExit):
        main(["preset", "nope"])


def test_python_m_zqchain_runs_from_a_source_checkout(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "zqchain", "preset", "fig6a", "--out",
         str(tmp_path)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "fig6a.S0S0S0T0.report.txt").is_file()
    assert "wrote" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["analytic", "--model", "aliphatic", "--n", "4", "--order", "2"],
    ["spectrum", "--model", "aliphatic", "--n", "3", "--t0-sites", "1",
     "--signs", "1", "--horizon", "1"]])
def test_a_command_that_fails_while_computing_makes_no_directory(tmp_path,
                                                                 capsys, argv):
    out = tmp_path / "zz" / "sub"
    assert main([*argv, "--j-gem", "0", "--j-gauche", "7.5", "--j-anti", "2.5",
                 "--out", str(out)]) == 2
    assert "j_gem must be nonzero" in capsys.readouterr().err
    assert not (tmp_path / "zz").exists()


@pytest.mark.parametrize("signs", [["--signs", "-1,1"], ["--signs=-1,1"],
                                   ["--signs", "-,+"], ["--signs=-,+"],
                                   ["--sign", "-1,1"], ["--s", "-,+"]])
def test_a_sign_list_may_start_with_a_dash(tmp_path, monkeypatch, signs):
    seen = []
    monkeypatch.setitem(cli.RUNNERS, "simulate",
                        lambda cfg, stem: seen.append(cfg) or ({}, []))
    assert main(["simulate", "--model", "aliphatic", "--n", "3",
                 *ALIPHATIC_FLAGS, "--t0-sites", "1,2", *signs,
                 "--out", str(tmp_path)]) == 0
    assert seen == [validate(ScenarioConfig(
        model="aliphatic", n=3, couplings={"J_gem": -14.0, "J_gauche": 7.5,
                                           "J_anti": 2.5},
        t0_sites=(1, 2), signs=(-1.0, 1.0)))]


def test_coerce_leaves_absent_fields_to_the_dataclass(tmp_path):
    assert config._coerce({}, None, None) == ScenarioConfig()
    assert set(config._CONVERT) == {
        f.name for f in dataclasses.fields(ScenarioConfig)}
    cfg = load_config(write(tmp_path, "chain.yaml", """\
model: aliphatic
n: 3
couplings: {J_gem: -14.0, J_gauche: 7.5, J_anti: 2.5}
initial: {t0_sites: [2], signs: [-1]}
"""))
    assert cfg == ScenarioConfig(
        model="aliphatic", n=3, couplings={"J_gem": -14.0, "J_gauche": 7.5,
                                           "J_anti": 2.5},
        t0_sites=(2,), signs=(-1.0,))


@pytest.mark.parametrize("text, message", [
    ("initial: 3\n", "initial: must be a mapping"),
    ("initial: {flips: [1], spin: 2}\n", "initial: unknown keys ['spin']"),
    ("n: three\n", "config: malformed value: invalid literal for int()")])
def test_coerce_errors_name_the_field(tmp_path, text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(write(tmp_path, "bad.yaml", text))


@pytest.mark.parametrize("old, new", [("n: 4\n", "n: 4.7\n"),
                                      ("flips: [1]", "flips: [1.9]"),
                                      ("observe: [1]\n",
                                       "observe: [1]\nzero_pad: 2.5\n")])
def test_an_integer_field_refuses_a_fraction(tmp_path, old, new):
    with pytest.raises(ConfigError,
                       match=re.escape("config: malformed value: ")):
        load_config(write(tmp_path, "bad.yaml", FIG6C_YAML.replace(old, new)))


def test_an_integer_flag_refuses_a_fraction(tmp_path, capsys):
    assert main(["simulate", "--model", "xy", "--n", "4", "--j", "5",
                 "--flips", "1.5", "--out", str(tmp_path)]) == 2
    assert "config: malformed value: " in capsys.readouterr().err


def test_integral_numbers_and_sign_symbols_convert():
    cfg = config._coerce({"n": 4.0, "zero_pad": "2", "t0_sites": ["1", 2.0],
                          "signs": ["+", "-"]}, None, None)
    assert (cfg.n, cfg.zero_pad, cfg.t0_sites, cfg.signs) == (
        4, 2, (1, 2), (1.0, -1.0))


ALIPHATIC_N3 = {"model": "aliphatic", "n": 3,
                "couplings": {"J_gem": -14.0, "J_gauche": 7.5, "J_anti": 2.5}}


@pytest.mark.parametrize("fields, field, message", [
    ({**XY_J5, "signs": (-1.0,)}, "signs", "only meaningful for the aliphatic"),
    ({**XY_J5, "engine": "full"}, "engine", "the xy model has one engine"),
    ({**XY_J5, "engine": "fast"}, "engine", "must be 'restricted' or 'full'"),
    ({**ALIPHATIC_N3, "t0_sites": (1,), "signs": (1.0,), "engine": "fast"},
     "engine", "must be 'restricted' or 'full'"),
    ({**XY_J5, "flips": (2, 2)}, "flips", "site 2 listed twice"),
    ({**ALIPHATIC_N3, "t0_sites": (1, 1), "signs": (1.0, -1.0)}, "t0_sites",
     "site 1 listed twice")])
def test_validate_refuses_inputs_the_model_would_ignore(fields, field, message):
    with pytest.raises(ConfigError) as err:
        validate(ScenarioConfig(**fields))
    assert err.value.field == field
    assert message in str(err.value)


def test_each_sign_goes_to_the_site_it_is_listed_with():
    def run(t0_sites, signs):
        cfg = validate(ScenarioConfig(**ALIPHATIC_N3, t0_sites=t0_sites,
                                      signs=signs, horizon=0.5))
        return pipeline.run_simulate(cfg).trajectories

    listed, ascending = run((3, 1), (-1.0, 1.0)), run((1, 3), (1.0, -1.0))
    assert listed.keys() == ascending.keys()
    for obs_id, traj in listed.items():
        assert np.array_equal(traj.values, ascending[obs_id].values)
