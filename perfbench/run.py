"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload unf-dense --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced passes; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics, the
per-call layer breakdown and the tracing overhead, and writes every span to
``perfbench/out/``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every correctness check passed, 1 when one failed and 2 when ``src/repro``
is missing or the workload is unknown.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

# One BLAS thread, set before NumPy loads: the benchmark's load is this
# process's threads only (the client plus the server's connection thread,
# within the two cores it is sized for), and idle BLAS workers spinning on
# the other core would add CPU time to every measured call.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: glibc ``mallopt`` parameters and the values the benchmark runs under:
#: serve every block up to 32 MiB from the heap (``M_MMAP_THRESHOLD``) and
#: never hand freed heap back to the kernel (``M_TRIM_THRESHOLD``).  Under
#: glibc's adaptive defaults the solves' large temporaries are mapped fresh
#: and faulted in page by page on every call; on the 2-core VM the benchmark
#: was sized on that was 40% of cohort-mmap's solve CPU time, and its cost
#: swung by a factor of two between runs with the host's memory traffic.
MALLOPT = {-3: 32 << 20, -1: (1 << 31) - 1}


def fix_malloc() -> None:
    """Apply :data:`MALLOPT` where the C library is glibc (elsewhere: no-op)."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    for parameter, value in MALLOPT.items():
        libc.mallopt(ctypes.c_int(parameter), ctypes.c_int(value))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The benchmark measures the library of this checkout, never an
    # installed copy: without src/repro there is nothing to measure.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    fix_malloc()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, run_workload

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    outcome = run_workload(workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    for note in outcome.notes:
        print(note)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(outcome.result_line()))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
