#!/usr/bin/env python3
"""Benchmark of the tensormotion pipeline on seeded synthetic captures.

Run from the repository root:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0

Workloads: ``stream``, ``build`` and ``uncertainty`` (see bench.py and
README.md). With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` the layer
functions are wrapped and it holds the per-layer metrics instead, and
the spans are written to ``perfbench/out/``. The program is imported
from ``src/`` of the checkout the script sits in, with the numpy
warping backend and one BLAS thread.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("stream", "build", "uncertainty"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one BLAS thread and the numpy backend, fixed before numpy is imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["TENSORMOTION_BACKEND"] = "numpy"
    if not (SRC / "tensormotion" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    import bench
    import spans

    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    if args.trace:
        tracer.install()
    run = bench.Run(bench.WORKLOADS[args.workload], args.seed, args.seconds, tracer)
    run.measure()
    print("env " + json.dumps(bench.environment()))
    if args.trace:
        # the traced run's own times, for the tracing overhead only
        seen = run.end_to_end()
        print("traced " + json.dumps({k: seen[k][0] for k in ("update_p50_ms", "build_s")}))
        metrics, missing = run.per_layer()
        for name in missing + tracer.not_measured:
            print(f"not measured: {name}", file=sys.stderr)
        tracer.write(HERE / "out" / f"trace-{args.workload}-{args.seed}.json")
    else:
        metrics = run.end_to_end()
    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
