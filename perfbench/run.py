"""Solver benchmark: seeded workloads, end-to-end metrics and a per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ref1d --seed 1 --seconds 25 --trace 0

The package is imported from the checkout's ``src`` directory; the benchmark
exits with code 2 when that source is missing.  One process, one thread: the
BLAS/OpenMP thread variables are pinned to 1 before numpy is imported.

``--trace 0`` repeats one measured iteration (a solve, then the workload's
bundle round trips: save, load, a-priori report) for ``--seconds`` and
prints the end-to-end metrics as medians over the iterations.  Times are
rescaled to the host's quiet-spell speed by a canary sampled during the run
(``hostspeed.py``); the raw wall-time medians are printed on an earlier line.
``setup_s`` is timed in five fresh interpreters.  ``--trace 1``
alternates an untraced iteration with a traced one for ``--seconds`` and
prints the per-layer metrics: the traced iteration wraps the module-level
names each layer looks up (see ``tracing.py``); its metrics cover one whole
iteration, the solve and the round trips.  Every result passes through
the correctness gate in ``workloads.py``; an operation that raises, does not
converge or fails a check counts in ``failed``.  The last line of standard
output is one JSON object; earlier lines give the environment and the sample
count of each metric.  Spans of traced iterations go to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# pinned before numpy is first imported, so BLAS starts single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "congestion_mfg" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    result = measure.execute(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), SRC
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
