"""Benchmark of removal requests, their verification and the manifest.

    python3 bench/run.py --workload mixed_medium --seed 1 --seconds 25 --trace 0

One caller in a closed loop (loop.py) runs whole rounds: as many as fill
--seconds at the workload's nominal round length, and at least MIN_ROUNDS
rounds and MIN_SAMPLES requests. A round trains the workload's system, saves and reloads its
manifest MANIFEST_REPEATS times, then applies the workload's request stream
one request at a time: snapshot, apply_request, verify_exactness, then the
benchmark's own checks (see checks.py).

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics, end to end with --trace 0, per layer with --trace 1.
Details (every request, every failure message) go to
bench/results/<workload>-seed<seed>-trace<t>.json, spans of a traced run to
bench/results/<workload>-seed<seed>.spans.csv.
"""

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "purgekd" / "__init__.py").is_file():
        print(f"run.py: the purgekd sources are missing ({SRC}); run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    # One BLAS/OpenMP thread, set before numpy loads: at these shapes a
    # second thread costs CPU time without shortening wall time.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from loop import Run
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    run_dir = BENCH / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (run_dir / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(run_dir / "tmp")  # verify_exactness's scratch stores
    tracer = Tracer() if args.trace else None
    run = Run(workload, args.seed, run_dir, tracer)
    try:
        with tracer.patched() if tracer else contextlib.nullcontext():
            run.loop(args.seconds)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(run_dir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}"
    if tracer:
        tracer.write(results / f"{stem}.spans.csv")
        metrics = layer_metrics(tracer.spans, run.rounds)
    else:
        metrics = run.end_to_end()
    summary = {"correct": run.correct(), "attempted": len(run.records),
               "failed": len(run.failed()), "metrics": metrics}
    detail = dict(summary, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=run.rounds, problems=run.problems, requests=run.records,
                  samples=run.samples)
    (results / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted {summary['attempted']} failed {summary['failed']} "
          f"correct {summary['correct']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
