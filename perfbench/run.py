"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload many_slides --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Lines before it
give the raw wall-clock figures and the operation counts.
"""

import ctypes
import os
import sys

# BLAS runs single-threaded: the program's own thread pool is the
# parallelism under test. Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ADDR_NO_RANDOMIZE = 0x0040000


def fix_layout():
    """Re-run this script once with a fixed memory layout and hash seed.

    Where shared libraries and the heap land moves this program's speed
    relative to the reference kernel by about 5% from one process to the
    next; the same layout in every run takes that out of the spread. Only
    this process is affected."""
    if os.environ.get("PERFBENCH_LAYOUT") == "fixed":
        return
    os.environ["PERFBENCH_LAYOUT"] = "fixed"
    os.environ["PYTHONHASHSEED"] = "0"
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality(libc.personality(0xFFFFFFFF) | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass   # not Linux: run with the layout the system gives
    os.execv(sys.executable, [sys.executable, *sys.argv])


import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK_ROOT = HERE / "work"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE.parent / "src"))
    import job   # imports slidessl; fails outside a full checkout

    if args.workload not in job.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(job.WORKLOADS)}")
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        result = job.run_job(job.WORKLOADS[args.workload], args.seed,
                             args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # another run may still use it
            WORK_ROOT.rmdir()

    for problem in result.problems:
        print(f"check failed: {problem}")
    for name, value in result.counts.items():
        print(f"count {name} {value}")
    for name, value in result.raw.items():
        print(f"raw {name} {value:.6g}")
    print(json.dumps({"correct": result.correct,
                      "attempted": result.attempted,
                      "failed": result.failed,
                      "metrics": result.metrics}))
    return 0


if __name__ == "__main__":
    fix_layout()
    sys.exit(main())
