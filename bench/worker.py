"""One workload process: set up, run whole rounds of CLI calls in-process,
check every output, and print one JSON result line.

    python3 bench/worker.py MANIFEST --seconds S [--trace SPANS_PATH] [--setup-only]

MANIFEST is the JSON list written by ``workloads.write_round``.  The
program is imported from ``src/`` of the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# a case still running after this long is stopped and counted as failed
OP_CAP_S = 60.0


class OperationTimeout(BaseException):
    """Raised by the alarm inside a runaway call; a BaseException so that no
    handler in the program swallows it."""


def _alarm(signum, frame):
    raise OperationTimeout()


def run_case(cli, argv: list[str]) -> tuple[float, int, str, str]:
    """One timed ``cli.main`` call under the time cap: (seconds, exit code,
    stdout, stderr); exit code -1 marks a call stopped by the cap."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except OperationTimeout:
        code = -1
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", help="write spans here and report per-layer metrics")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    cases = json.loads(Path(args.manifest).read_text())

    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    from zspersuasion import cli, scenario

    for case in cases:
        scenario.load_scenario(case["path"])
    setup_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported {cli.__file__}, not the checkout's src/", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    signal.signal(signal.SIGALRM, _alarm)
    scenarios = [json.loads(Path(c["path"]).read_text()) for c in cases]
    times, failures = [], []
    attempted = passed = wrong = rounds = 0
    loop_start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - loop_start < args.seconds:
        for case, sc in zip(cases, scenarios):
            if tracer is not None:
                tracer.begin_operation(attempted)
            elapsed, code, out, err = run_case(cli, case["argv"])
            if tracer is not None:
                tracer.end_operation()
            attempted += 1
            times.append(elapsed)
            if code != 0:
                failures.append(f"{case['name']}: exit {code} {err.strip()[:200]}")
                continue
            try:
                workloads.check(case["kind"], sc, json.loads(out))
            except (workloads.CheckFailed, KeyError, TypeError, ValueError) as exc:
                failures.append(f"{case['name']}: {type(exc).__name__}: {exc}")
                wrong += 1
                continue
            passed += 1
        rounds += 1

    result = {
        "setup_s": setup_s,
        "rounds": rounds,
        "attempted": attempted,
        "passed": passed,
        "wrong": wrong,
        "failures": failures[:20],
        "times": times,
        "case_names": [c["name"] for c in cases],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["per_layer"] = tracing.per_layer_metrics(tracer, rounds)
        result["layer_shares"] = tracing.layer_shares(tracer)
        result["spans"] = {"kept": len(tracer.span_start), "dropped": tracer.dropped}
        tracer.write_spans(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
