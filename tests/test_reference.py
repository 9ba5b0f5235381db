"""Committed reference outputs of the nine presets.

Every preset runs into a fresh directory. Its stdout, with that directory
written as OUT, and its text files must match ``tests/reference/`` byte
for byte. Its CSVs are committed as every EVERY-th row after the header,
and each regenerated CSV must match those rows within RTOL of the largest
|value| in each column of the committed file.

A change that alters an output on purpose regenerates the files with

    PYTHONPATH=src python tests/test_reference.py

and names each changed file, with its reason, in CHANGES.md.
"""
import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

from zqchain import cli, presets

REFERENCE = Path(__file__).resolve().parent / "reference"
EVERY = 50    # CSV rows kept: the header, then rows 0, EVERY, 2 EVERY, ...
RTOL = 1e-9   # of a column's largest |value|; the fig7 mirror gate's bound


def run_presets(out: Path) -> dict[str, bytes]:
    """name -> bytes of every preset output and stdout; CSVs decimated."""
    outputs = {}
    for name in sorted(presets.PRESETS):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["preset", name, "--out", str(out)]) == 0
        outputs[f"{name}.stdout"] = buf.getvalue().replace(str(out), "OUT").encode()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".csv":
            header, *rows = data.splitlines(keepends=True)
            data = header + b"".join(rows[::EVERY])
        outputs[path.name] = data
    return outputs


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    return run_presets(tmp_path_factory.mktemp("presets"))


def test_reference_names_every_output(regenerated):
    assert sorted(regenerated) == sorted(p.name for p in REFERENCE.iterdir())


def test_stdout_and_text_files_match_byte_for_byte(regenerated):
    differ = [name for name, data in regenerated.items()
              if not name.endswith(".csv")
              and (REFERENCE / name).read_bytes() != data]
    assert differ == []


def _rows(data: bytes) -> np.ndarray:
    return np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)


def test_csv_rows_match_within_tolerance(regenerated):
    differ = []
    for name, data in regenerated.items():
        if name.endswith(".csv"):
            ref = (REFERENCE / name).read_bytes()
            want, got = _rows(ref), _rows(data)
            if (ref.splitlines()[0] != data.splitlines()[0]
                    or want.shape != got.shape
                    or np.any(np.abs(got - want)
                              > RTOL * np.max(np.abs(want), axis=0))):
                differ.append(name)
    assert differ == []


def write_reference() -> None:
    """Replace the files under tests/reference/ with today's outputs."""
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_presets(Path(tmp))
    REFERENCE.mkdir(exist_ok=True)
    for old in REFERENCE.iterdir():
        old.unlink()
    for name, data in outputs.items():
        (REFERENCE / name).write_bytes(data)


if __name__ == "__main__":
    write_reference()
