"""Golden CLI outputs: the exit code and exact standard output of every
subcommand on every fixture, recorded in ``cli_golden.json``.

A change that alters any of them on purpose rewrites the file with
``PYTHONPATH=src python tests/test_cli_golden.py`` and says why.
"""

import contextlib
import io
import itertools
import json
import os
from pathlib import Path

import pytest

from zspersuasion.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"


def _commands() -> list[list[str]]:
    """validate, analyze, induce, construct, emit-plot and oracle scan on
    each fixture; construct --pool on every set of two or more states;
    exploit --set on every such set and verify, each under every profile."""
    out = []
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        fixture = f"fixtures/{path.name}"
        data = json.loads(path.read_text())
        n = data["states"]
        profiles = sorted(data.get("profiles", {}))
        out += [
            ["validate", fixture],
            ["analyze", fixture],
            ["induce", fixture],
            ["construct", fixture, "--fully-revealing"],
            ["emit-plot", fixture, "--points", "10"],
            ["oracle", "scan", fixture, "--belief-res", "4", "--mass-res", "4",
             "--max-support", "2"],
        ]
        for size in range(2, n + 1):
            for states in itertools.combinations(range(n), size):
                s = ",".join(map(str, states))
                out.append(["construct", fixture, "--pool", s])
                out += [["exploit", fixture, "--profile", p, "--set", s]
                        for p in profiles]
        out += [["verify", fixture, "--profile", p, "--grid", "5"]
                for p in profiles]
    return out


COMMANDS = _commands()


def _run(argv: list[str]) -> dict:
    """Exit code and standard output of one in-process CLI call; fixture
    paths are relative to the repository root."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout": stdout.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_command(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_unchanged(argv, golden, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert _run(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    os.chdir(ROOT)
    recorded = {" ".join(argv): _run(argv) for argv in COMMANDS}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} commands to {GOLDEN}")
