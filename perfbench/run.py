"""Layer-by-layer benchmark of the rlnd planning flows.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-study --seed 1 --seconds 30 --trace 0

The program under test is `src/rlnd` of that checkout, imported in-process.
One client runs one flow at a time (a closed loop): `rlnd.cli.main(argv)`
for `solve`, `pareto`, `scenario` and `robust`, and
`scenarios.calibrate_trip_factor` for calibration.  Every answer is checked
outside the timed phase (see `checker.py` and `workloads.py`).

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs each flow
twice in a row, once untraced and once with spans wrapped around each
layer's public functions at their import sites, and reports the per-layer
metrics of the traced runs and the tracing overhead of the pairs.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread per numeric library, set before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3
WORKLOADS = ("paper-study", "ladder-embedded", "ladder-highs")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it")
    return parser.parse_args(argv)


def _checkout() -> Path:
    root = Path.cwd()
    if not (root / "src" / "rlnd" / "__init__.py").is_file():
        raise SystemExit(f"error: {root} holds no src/rlnd package to benchmark; "
                         "run from the root of a checkout")
    return root


def _setup_subprocess(args: argparse.Namespace) -> float:
    """One set-up in a fresh interpreter, so imports are paid again."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    for name in THREAD_VARS:
        os.environ[name] = "1"
    root = _checkout()
    sys.path.insert(0, str(root / "src"))
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    started = time.perf_counter()
    try:
        import workloads  # noqa: E402 - imports numpy and rlnd, part of set-up

        bench = workloads.Bench(args.workload, args.seed, args.seconds, work, started)
        if args.setup_only:
            print(json.dumps({"setup_s": bench.setup_s}))
            return 0
        if args.trace:
            result = bench.run_traced(root / ".bench_out")
        else:
            setups = [bench.setup_s] + [_setup_subprocess(args)
                                        for _ in range(SETUP_REPEATS - 1)]
            result = bench.run()
            result.metrics["setup_s"] = (statistics.median(setups), "s")
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result.metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
            result.notes.append(f"setup runs at the reference speed: "
                                f"{', '.join(f'{s:.4f}' for s in setups)} s "
                                f"(this process: {bench.setup_raw_s:.4f} s as timed)")
        for line in result.notes:
            print(line)
        print(json.dumps({
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in result.metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
