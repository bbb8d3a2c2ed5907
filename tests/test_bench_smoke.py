"""The benchmark's smoke run: the smallest case of every workload, once,
checked by the benchmark's own independent verdict checkers
(``python3 bench/run.py --smoke``, about a second)."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_workload_passes_its_checks():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [line["workload"] for line in lines] == [
        "analyze-ladder", "verify-grid", "exploit-interior", "oracle-scan",
    ]
    for line in lines:
        assert line["ok"] is True, line
        assert line["failures"] == [], line
