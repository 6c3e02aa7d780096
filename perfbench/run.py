"""The layer-ledger benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload clean-compute --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the same work untraced and then traced, and reports
the per-layer metrics (see ``perfbench/README.md``). The metric names
and units are those of ``BENCHMARK.json`` at the checkout root. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program under test is the ``repro`` package in ``src/`` of the
same checkout; nothing is installed. ``REPRO_*`` variables are removed
from the environment first, so every knob has its default value.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workload name -> module holding its ``run`` function.
WORKLOADS = {
    "clean-compute": "local",
    "taint-stream": "local",
    "served-mixed": "served",
    "trace-replay": "replay",
}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no repro package under {ROOT / 'src'}")
    if not spec_path.is_file():
        return _fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    module = importlib.import_module(WORKLOADS[args.workload])

    spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.npz"
    outcome = module.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        spans_path=spans_path if args.trace else None,
    )

    produced = outcome.per_layer if args.trace else outcome.end_to_end
    missing = [m["name"] for m in wanted if m["name"] not in produced]
    if missing and not args.trace:
        return _fail(f"workload did not measure: {', '.join(missing)}")
    # A layer this workload's path never enters reads 0 in a traced run.
    for name in missing:
        produced[name] = 0.0

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    for name, (value, unit) in sorted(outcome.report.items()):
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  error_rate = {outcome.error_rate:.6g} "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for what, count in sorted(outcome.failures.items()):
        print(f"  failed {count}x: {what}")
    if missing:
        print(f"  not on this workload's path (reported as 0): "
              f"{', '.join(missing)}")
    metrics = {
        m["name"]: {"value": produced[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
