"""Run one povmcal benchmark workload and print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload fig2-averaging --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, with ``--trace 1`` one with the per-layer metrics.
``--workload all`` runs every workload in a process of its own.
``--smoke`` runs each workload at a reduced size in seconds.
Details (per-calibration times, checks, span tables) go to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("fig2-averaging", "fig4-ml", "qutrit-noisy-both")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def _run_all(argv) -> int:
    """Each workload in a process of its own; the last line maps workload to result."""
    results = {}
    for name in WORKLOAD_NAMES:
        child = list(argv)
        child[child.index("all")] = name
        proc = subprocess.run(
            [sys.executable, __file__] + child, capture_output=True, text=True, check=False
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(argv)

    if not (SRC / "povmcal" / "__init__.py").is_file():
        print(f"bench: no povmcal sources under {SRC}", file=sys.stderr)
        return 2
    # one process, at most one BLAS thread per available core
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))
    import povmcal

    if Path(povmcal.__file__).resolve().parent != (SRC / "povmcal").resolve():
        print(f"bench: povmcal imported from {povmcal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    result = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), smoke=args.smoke
    )
    for metric, entry in result["metrics"].items():
        print(f"{args.workload} {metric} {entry['value']:.6g} {entry['unit']}")
    print(
        f"{args.workload} correct={result['correct']} "
        f"attempted={result['attempted']} failed={result['failed']}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
