"""Golden benchmark outputs: the exit code, standard output and standard
error of every case of every benchmark workload, at seeds 0, 1, 2 and 555,
recorded in ``workload_golden.json``.

The cases come from ``bench/workloads.build_round``, and each runs
``cli.main`` in-process on its scenario file.  The file's path is written
as ``{path}`` in the recorded output.  A change that alters any output on
purpose, or a change to the generators in ``bench/workloads.py``, rewrites
the file with ``PYTHONPATH=src python tests/test_workload_golden.py`` and
says why.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from zspersuasion.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "workload_golden.json"
SEEDS = (0, 1, 2, 555)

sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402


def _cases() -> dict:
    """Every case by its key, "workload seed index-name"."""
    return {
        f"{workload} {seed} {j:02d}-{case.name}": case
        for workload in workloads.WORKLOADS
        for seed in SEEDS
        for j, case in enumerate(workloads.build_round(workload, seed))
    }


CASES = _cases()


def _run(case, directory: Path) -> dict:
    """Exit code, standard output and standard error of the case's CLI
    call on its scenario, written to a file in ``directory``."""
    path = directory / "scenario.json"
    path.write_text(json.dumps(case.scenario, indent=1, sort_keys=True) + "\n")
    argv = [str(path) if t == "{path}" else t for t in case.argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "exit": code,
        "stdout": out.getvalue().replace(str(path), "{path}"),
        "stderr": err.getvalue().replace(str(path), "{path}"),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case(golden):
    assert len(CASES) == 132
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("key", CASES)
def test_output_unchanged(key, golden, tmp_path):
    assert _run(CASES[key], tmp_path) == golden[key]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {key: _run(case, Path(tmp)) for key, case in CASES.items()}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} cases to {GOLDEN}")
