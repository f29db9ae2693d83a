"""The repo's benchmark: four workloads on the paper's request path.

Driver mode (what ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload hot_open --seed 1 \\
        --seconds 12 --trace 0

runs one workload against two freshly spawned daemons and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` - every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.

Ledger mode (no ``--workload``) runs all four workloads, untraced then
traced, prints every metric by name with its unit and writes the full
record (environment, per-block samples, failures by kind) to ``--out``.
``--compare A.json B.json`` compares two such records.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")


def _import_repo() -> None:
    """The benchmark drives the program in ``src/``; without it there is
    nothing to measure, and the run must fail rather than print numbers."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"run.py: no program to benchmark: {SRC}/repro is missing")
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def _terminate(signum, frame) -> None:
    # Unwind through the Sandbox so daemons and scratch files go too.
    raise SystemExit(128 + signum)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="driver mode: run this workload only")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed part (default: spec.RUN_SECONDS)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="ledger mode: where to write the record")
    parser.add_argument("--only", action="append",
                        help="ledger mode: restrict to this workload (repeatable)")
    parser.add_argument("--layers-only", action="store_true",
                        help="run only the layers stage against fresh daemons")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from spec.py")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    _import_repo()
    import spec

    if args.seconds is None:
        args.seconds = float(spec.RUN_SECONDS)
    if args.write_manifest:
        with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(spec.manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.compare:
        import ledger
        return ledger.compare_files(*args.compare)

    signal.signal(signal.SIGTERM, _terminate)
    import ledger
    if args.workload:
        return ledger.driver_run(args)
    return ledger.full_run(args)


if __name__ == "__main__":
    sys.exit(main())
