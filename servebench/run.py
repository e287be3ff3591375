"""Serving benchmark for the repro query server.

Run from the root of a checkout::

    python3 servebench/run.py --workload steady --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``steady``, ``churn`` and ``cluster``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics: median and p90 tick latency (``tick_ms``,
``tick_tail_ms``; a tick is its churn plus one served round), stream cost
per query round over the leading checked ticks (``cost_per_eval``) and the
median set-up time (``setup_s``). Times are wall-clock, scaled to a
reference host speed (see ``workloads.REFERENCE_S``); the raw wall-clock
figures are printed above the result. ``--trace 1``
runs with the program's telemetry on, records spans around every call into
the system, reports per-layer metrics and writes the spans as JSONL to
``servebench/traces/`` (readable with ``python -m repro trace <file>``).

The package is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("steady", "churn", "cluster"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # needs the package on the path

    trace_path = HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    result = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), trace_path
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
