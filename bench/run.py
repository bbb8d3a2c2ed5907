"""Benchmark entry point: CLI verdicts timed in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Generates the workload's scenario files from the seed, times the set-up of
fresh workload processes, runs one workload process that repeats whole
rounds of ``zspersuasion.cli.main`` calls for S seconds, and prints one
JSON line last: {"correct", "attempted", "failed", "metrics"}.  With
``--trace 1`` the metrics are the per-layer ones of a traced run and the
spans go to bench/results/.  ``--smoke`` runs the smallest case of each
workload once and checks it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 5  # fresh processes whose set-up time is measured
WORKER_TIMEOUT_S = 170


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _worker(manifest: Path, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(manifest), *extra],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _prepare(workload: str, seed: int, smoke: bool, work: Path) -> Path:
    cases = workloads.build_round(workload, seed, smoke)
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps(workloads.write_round(cases, work)))
    return manifest


def _work_dir(workload: str) -> tempfile.TemporaryDirectory:
    """A scratch directory for generated scenario files, removed on exit."""
    (HERE / ".work").mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix=f"{workload}-", dir=HERE / ".work")


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    with _work_dir(workload) as work:
        manifest = _prepare(workload, seed, False, Path(work))
        if traced:
            results = HERE / "results"
            results.mkdir(exist_ok=True)
            spans = results / f"trace-{workload}-seed{seed}.json"
            run = _worker(manifest, "--seconds", str(seconds), "--trace", str(spans))
            setups = [run["setup_s"]]
        else:
            setups = [_worker(manifest, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES - 1)]
            run = _worker(manifest, "--seconds", str(seconds))
            setups.append(run["setup_s"])
    run["setups"] = setups
    return run


def report(workload: str, seed: int, traced: bool, run: dict) -> dict:
    failed = run["attempted"] - run["passed"]
    times = run["times"]
    info = {
        "workload": workload, "seed": seed, "traced": traced,
        "git_sha": _git_sha(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "rounds": run["rounds"],
        "cases": run["case_names"], "setups_s": run["setups"],
        "failures": run["failures"],
        "case_median_s": {
            name: statistics.median(times[j::len(run["case_names"])])
            for j, name in enumerate(run["case_names"])
        },
    }
    passed_per_s = run["passed"] / sum(times)
    if traced:
        info["layer_shares"] = run["layer_shares"]
        info["spans"] = run["spans"]
        info["traced_verdicts_per_s"] = passed_per_s
        metrics = {name: {"value": v, "unit": _unit(name)} for name, v in run["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(run["setups"]), "unit": "s"},
            "verdict_s_p50": {"value": statistics.median(times), "unit": "s"},
            "verdicts_per_s": {"value": passed_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps(info))
    # a failed check means a wrong verdict was printed; a nonzero exit or a
    # time-cap stop is a failed operation but no wrong output
    return {"correct": run["wrong"] == 0, "attempted": run["attempted"],
            "failed": failed, "metrics": metrics}


def _unit(metric: str) -> str:
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    return "count"


def smoke() -> int:
    """Smallest case of every workload, once each; 0 when all pass."""
    status = 0
    for workload in workloads.WORKLOADS:
        with _work_dir(workload) as work:
            manifest = _prepare(workload, 0, True, Path(work))
            start = time.perf_counter()
            run = _worker(manifest)
        ok = run["passed"] == run["attempted"]
        status |= not ok
        print(json.dumps({"workload": workload, "cases": run["case_names"], "ok": ok,
                          "failures": run["failures"],
                          "seconds": round(time.perf_counter() - start, 3)}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zspersuasion" / "cli.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'zspersuasion'} is missing", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(args.workload, args.seed, bool(args.trace), run)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
