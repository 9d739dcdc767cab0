"""Benchmark entry point.

    python3 perfbench/run.py --workload learn --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout (the directory holding
``src/repro``), imports the library from that source tree, and prints
a summary of the report followed by one JSON result line (the last line of
standard output).  ``--trace 1`` reports the per-layer metrics instead
of the end-to-end ones; ``--smoke`` shrinks every input to a toy size.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["learn", "pipeline", "sweep", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size inputs (seconds, for tests)")
    parser.add_argument("--setup-only", action="store_true", help="time set-up alone and exit")
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench-out"),
                        help="directory for the report and the span file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no library source under {ROOT}/src/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench.harness import run_workload, setup_only
    from perfbench.workloads import PAPER, SMOKE

    scale = SMOKE if args.smoke else PAPER
    if args.setup_only:
        print(json.dumps(setup_only(args.workload, args.seed, scale, _STARTED)))
        return 0
    report = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        root=ROOT, scale=scale, started=_STARTED, out_dir=args.out,
    )
    os.makedirs(args.out, exist_ok=True)
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(args.out, name), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    # the per-unit seconds and the probes are only in the report file
    brief = {k: v for k, v in report.items() if k not in ("result", "trace_detail", "unit_seconds", "probes")}
    print(json.dumps(brief, sort_keys=True))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
