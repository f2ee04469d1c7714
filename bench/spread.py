"""Run two sets of benchmark runs and print each metric's spread.

    python3 bench/spread.py

Each set runs bench/run.py once per seed 1-10 on every workload of
BENCHMARK.json, for its run_seconds. For each metric the table gives, per
set, the median and the spread (the distance between the first and third
quartile of the runs, as a share of their median), then by how much the
second set's median is worse than the first set's, beside the bound in
BENCHMARK.json. It also prints the failed share of the requests of every
set, and the wall time of the runs.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2
SEEDS = range(1, 11)


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    for workload in [w["name"] for w in spec["workloads"]]:
        sets = [[run_once(workload, seed, spec["run_seconds"]) for seed in SEEDS]
                for _ in range(SETS)]
        print(f"\n{workload}: {SETS} sets of {len(SEEDS)} runs", flush=True)
        for i, runs in enumerate(sets, start=1):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            walls = [r["wall_s"] for r in runs]
            print(f"  set {i}: attempted {attempted} failed {failed} "
                  f"({failed / attempted:.4f}), all correct "
                  f"{all(r['correct'] for r in runs)}, run wall "
                  f"{min(walls):.1f}-{max(walls):.1f} s")
        print(f"  {'metric':36} {'unit':9}" + "".join(
            f" {'median' + str(i):>11} {'spread' + str(i):>8}"
            for i in range(1, SETS + 1)) + f" {'worse':>8} {'bound':>6}")
        for name, first in sets[0][0]["metrics"].items():
            row = f"  {name:36} {first['unit']:9}"
            medians = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                medians.append(statistics.median(values))
                row += f" {medians[-1]:11.5g} {spread(values):8.4f}"
            worse = (medians[-1] - medians[0]) / medians[0]
            if metrics[name]["better"] == "higher":
                worse = -worse
            row += f" {worse:+8.4f} {metrics[name]['bound']:>6}"
            print(row, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
