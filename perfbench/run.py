"""convgen benchmark: cached-engine generation for the three model families.

    python3 perfbench/run.py --workload dilated-b1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Generation is closed loop: one client advances B sequences in lockstep and
each step's input is the previous step's output, so there is no arrival
schedule.  `--trace 0` reports the end-to-end metrics with tracing off;
`--trace 1` alternates untraced and traced blocks and reports the
per-layer metrics.  Every generated sequence is checked against a
full-sequence oracle either way.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With `--workload all` the metric names are prefixed by the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("dilated-b1", "dilated-b64", "strided-b1", "image2d-b16")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must be in [0, 2**63)")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def _report(name: str, res: dict) -> None:
    print(f"== {name}: {res['episodes']} episodes, {res['steps']} timed steps, "
          f"digest {res['digest']}")
    for key, (value, unit) in res["metrics"].items():
        print(f"  {key:<36} {value:>16.6g} {unit}")
    print("  -- printed only, not in the result line:")
    for key, (value, unit) in res["shown"].items():
        print(f"  {key:<36} {value:>16.6g} {unit}")
    print(f"  {res['failed']} of {res['attempted']} sequences failed")
    for note in res["notes"]:
        print(f"  FAILED: {note}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "convgen").is_dir():
        print(f"error: no convgen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one process, no extra threads: pin the BLAS pool before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from harness import run_workload
    from probe import machine_info

    info = machine_info()
    print("machine:", json.dumps(info))
    if info["blas_threads"] is not None and info["blas_threads"] > info["nproc"]:
        print("error: BLAS thread count exceeds nproc", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _report(name, results[name])
    prefix = len(names) > 1
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{name}.{key}" if prefix else key): {"value": value, "unit": unit}
            for name, r in results.items()
            for key, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
