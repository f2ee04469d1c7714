"""Print one blake2b digest of everything a benchmark workload's run makes,
so two trees can be compared for byte-identical outputs.

    PYTHONPATH=src python3 tools/outputs_digest.py --workload all --seed 1 2

prints one ``workload seed digest`` line per pair of the given workloads
(``all`` for every one) and seeds. Each run trains the workload (from
bench/workloads.py, read as it is), saves and reloads it, then applies the
seed's request stream. The digest
covers every parameter and rng cursor, every soft-label chunk's ids and
bits, both plans' ``raw_slices()`` and each report without ``wall_time``,
taken after set-up, after the reload and after every request, then the
final ``store.log`` and ``system.json`` bytes. The final save compacts the
store, so that ``store.log`` is the live set: the latest generation of every
round checkpoint, no initial state. ``--points-per-class`` shrinks the data
for a quick run.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import workloads  # noqa: E402
from purgekd import CheckpointStore, apply_request, load_system, save_manifest  # noqa: E402


def _add_system(h, system) -> None:
    for role, states in (("teacher", system.teacher.members),
                         ("student", system.student.constituents)):
        h.update(role.encode())
        for state in states:
            h.update(state.params.tobytes())
            h.update(state.rng_cursor.to_bytes(8, "little"))
    for plan in (system.teacher.plan, system.student.plan):
        h.update(json.dumps(plan.raw_slices()).encode())
    for (k, l), chunk in sorted(system.student.soft_labels.items()):
        h.update(f"{k},{l}".encode())
        h.update(chunk.ids.tobytes())
        h.update(chunk.probs.tobytes())


def outputs_digest(workload: workloads.Workload, seed: int, work_dir: Path) -> str:
    """Digest of one run of workload at seed, written under work_dir."""
    h = hashlib.blake2b(digest_size=16)
    system = workload.build(seed, CheckpointStore(work_dir / "checkpoints"))
    _add_system(h, system)
    save_manifest(system, work_dir / "system.json", "checkpoints")
    system = load_system(work_dir / "system.json")
    _add_system(h, system)
    for request in workloads.request_stream(workload, system, seed):
        _, report = apply_request(system, request)
        doc = dataclasses.asdict(report)
        del doc["wall_time"]
        h.update(json.dumps(doc, sort_keys=True).encode())
        _add_system(h, system)
    save_manifest(system, work_dir / "system.json", "checkpoints")
    h.update((work_dir / "checkpoints" / "store.log").read_bytes())
    h.update((work_dir / "system.json").read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", required=True,
                        help=f"any of {sorted(workloads.WORKLOADS)}, or all")
    parser.add_argument("--seed", nargs="+", type=int, required=True)
    parser.add_argument("--points-per-class", type=int)
    args = parser.parse_args(argv)
    names = sorted(workloads.WORKLOADS) if args.workload == ["all"] else args.workload
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)} or all")
    for name in names:
        workload = workloads.WORKLOADS[name]
        if args.points_per_class is not None:
            workload = dataclasses.replace(workload, points_per_class=args.points_per_class)
        for seed in args.seed:
            with tempfile.TemporaryDirectory(prefix="outputs-digest-") as tmp:
                print(name, seed, outputs_digest(workload, seed, Path(tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
