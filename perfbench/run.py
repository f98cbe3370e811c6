"""Layer-ledger benchmark: one command, three zero-latency workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-growing --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no timing shims;
``--trace 1`` reruns the workload with shims around each layer's entry
points and prints the per-layer metrics instead.  Either way the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; progress and per-metric
detail go to standard error.  The command exits non-zero when an
output check fails or when the program's sources are missing.

The program is imported from ``src/`` beside this directory; inputs
are generated here from ``--seed``; scratch stores live under
``.perfbench-work/`` in the working directory and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import sys
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
SOURCES = pathlib.Path.cwd() / "src"

WORKLOAD_NAMES = ("batch-growing", "serve-durable", "stream-deltas")

#: Python randomises string hashing per process, which reorders dicts and
#: sets and moves the program's timings by several per cent from one run
#: of the same code to the next; every run uses this hash seed instead.
HASH_SEED = "0"


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def end_to_end_metrics(outcome) -> Dict[str, dict]:
    """The catalogue's end-to-end metrics from one workload outcome."""
    from catalog import END_TO_END
    from measure import Timing, peak_rss_mb, wilson_upper

    values: Dict[str, float] = {
        "setup_s": statistics.median(outcome.setup_s),
        "jobs_per_s": outcome.jobs_per_s,
        "max_rate_rps": outcome.max_rate_rps,
        "peak_rss_mb": peak_rss_mb(),
        "failed_ratio": wilson_upper(outcome.failed, outcome.distinct_ops),
    }
    for family in ("job", "req", "enact", "delta"):
        timing = Timing.of(getattr(outcome, f"{family}_s"), outcome.tails[family])
        values[f"{family}_ms_p50"] = timing.p50_ms
        values[f"{family}_ms_tail"] = timing.tail_ms
        outcome.detail[f"{family}_ms_tail_at"] = f"p{timing.tail_pct:g} of {timing.count}"
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}


def per_layer_result(outcome) -> Dict[str, dict]:
    from catalog import PER_LAYER

    return {
        name: {"value": float(outcome.layers.get(name, 0.0)), "unit": unit}
        for name, unit, _ in PER_LAYER
    }


def run_workload(args: argparse.Namespace, workdir: pathlib.Path):
    from catalog import RUN_SECONDS
    from tracing import Tracer

    seconds = args.seconds if args.seconds is not None else RUN_SECONDS
    tracer = Tracer() if args.trace else None
    if args.workload == "batch-growing":
        import wl_batch

        size = wl_batch.SMOKE if args.smoke else wl_batch.FULL
        return wl_batch.run(args.seed, seconds, tracer, size)
    if args.workload == "serve-durable":
        import wl_serve

        size = wl_serve.SMOKE if args.smoke else wl_serve.FULL
        return wl_serve.run(args.seed, seconds, tracer, size, workdir)
    import wl_stream

    size = wl_stream.SMOKE if args.smoke else wl_stream.FULL
    return wl_stream.run(args.seed, seconds, tracer, size)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SOURCES}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    sys.path.insert(0, str(HERE))
    workdir = pathlib.Path.cwd() / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    try:
        outcome = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    metrics = per_layer_result(outcome) if args.trace else end_to_end_metrics(outcome)
    for key, value in sorted(outcome.detail.items()):
        print(f"detail {key}: {value}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    correct = outcome.mismatches == 0 and outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    if outcome.mismatches:
        print(f"error: {outcome.mismatches} output(s) differ from the oracle",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )
    sys.exit(main())
