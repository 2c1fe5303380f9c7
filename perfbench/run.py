"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload da-reads --seed 1 --seconds 10 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(every end-to-end metric with ``--trace 0``, every per-layer metric
with ``--trace 1``; see ``perfbench/README.md``).  A run that fails its
correctness gate prints no result and exits 1; a run that cannot find
the program's sources exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("da-reads", "sa-durable-writes", "offline-opt")
#: A run that has not finished by then is killed, so none outlives 180 s.
WATCHDOG_SECONDS = 175
#: Run-time files (sockets, WALs, span dumps), relative to the root.
WORK_BASE = os.path.join("perfbench", ".work")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> None:
    """Put the checkout's ``src`` first on the path, and refuse to run
    against any other copy of the program."""
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(
            f"perfbench: no program sources under {source}; run from a "
            "full checkout of the repository",
            file=sys.stderr,
        )
        raise SystemExit(2)
    for path in (source, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        raise SystemExit(2)


def execute(args: argparse.Namespace):
    """Run the workload; returns its :class:`RunResult`."""
    from perfbench import live, offline
    from perfbench.common import WorkDir
    from perfbench.metrics import END_TO_END, PER_LAYER

    work = WorkDir(WORK_BASE)
    try:
        if args.workload == "offline-opt":
            result = offline.run(args.seed, args.seconds, bool(args.trace), work)
        else:
            result = live.run(
                args.workload, args.seed, args.seconds, bool(args.trace), work
            )
        wanted = PER_LAYER if args.trace else END_TO_END
        for name, unit in wanted.items():
            if args.trace and name not in result.metrics:
                result.put(name, 0.0, unit)  # a layer this workload skips
        extra = set(result.metrics) ^ set(wanted)
        if extra:
            raise RuntimeError(f"metric set mismatch: {sorted(extra)}")
        if result.tracer is not None:
            path = os.path.join(
                work.traces(), f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
            )
            count = result.tracer.dump(path)
            result.note(f"spans: {count} written to {path}")
        return result
    finally:
        work.cleanup()


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    import_program()
    from perfbench.common import GateFailure

    try:
        result = execute(args)
    except GateFailure as failure:
        print(f"perfbench: correctness gate FAILED: {failure}", file=sys.stderr)
        return 1
    for line in result.notes:
        print(line)
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(result.metrics.items())
                },
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    signal.alarm(WATCHDOG_SECONDS)
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException:
        traceback.print_exc()
        sys.exit(1)
