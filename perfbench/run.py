"""Layered, drift-corrected benchmark of the ``repro`` library.

Run from the repository root::

    python3 perfbench/run.py --workload game-continuous --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``harness`` and ``layers``).  Progress and
diagnostics go to standard error; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The library
is imported from ``src/`` under the current directory, so the command fails
(exit code 2, no result) anywhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOAD_NAMES = ("game-continuous", "window-defense", "range-queries", "service-mixed")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {root}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # Experiments read REPRO_WORKERS; units run in this process so every
    # timing and span is seen here.
    os.environ.pop("REPRO_WORKERS", None)
    import harness

    result = harness.run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
