"""Benchmark of the sugeo library: one workload per run.

    python3 perfbench/run.py --workload cvp [--seed 1] [--seconds 20] [--trace 0]

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics (small_s, large_s, setup_s,
peak_rss_mb); with ``--trace 1`` it holds the per-layer metrics of a traced
run instead.  Failed operations and wrong outputs are printed above it, one
line each, and everything is also written to perfbench/results/.
See perfbench/README.md for the workloads.
"""

import time

_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # One BLAS thread: the workloads are many small dense problems, and a
    # single thread keeps the timings steady on a shared machine.
    for var in THREAD_VARIABLES:
        os.environ[var] = "1"
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    if not os.path.isfile(os.path.join(src, "sugeo", "__init__.py")):
        print(f"error: no sugeo sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import sugeo

    if os.path.dirname(os.path.abspath(sugeo.__file__)) != os.path.join(src, "sugeo"):
        print(f"error: imported sugeo from {sugeo.__file__}, not from {src}", file=sys.stderr)
        return 2
    import harness

    import_s = time.perf_counter() - _START
    args = parse_args(argv, harness.workloads.WORKLOADS)
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
