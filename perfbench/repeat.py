"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/repeat.py --workload search-15 --seeds 1-5
    python3 perfbench/repeat.py --seeds 1-10 --record perfbench/baseline.json --commit <sha>

For every workload (default: all of BENCHMARK.json), runs
``perfbench/run.py`` once per seed with BENCHMARK.json's ``run_seconds``
and prints, per metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound.  ``--record`` adds one traced run per workload with the
default seed and writes the machine, the untraced medians with their
sample counts and the per-layer table to the given file.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int | None, seconds: int, trace: int) -> dict:
    """One run's result line; seed None means the benchmark's default seed."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        command += ["--seed", str(seed)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  seed {seed}: {result['failed']} of {result['attempted']} operations failed\n"
              f"{proc.stderr[-1000:]}", file=sys.stderr)
    return result


def summarise(values: list[float]) -> dict:
    q1, mid, q3 = quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else 0.0, "samples": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--record", type=Path, help="write the baseline record here")
    parser.add_argument("--commit", default="", help="program commit, for the record")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    record = {"machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                          "platform": platform.platform()},
              "commit": args.commit, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in names:
        results = [_run(workload, seed, spec["run_seconds"], 0)
                   for seed in _seeds(args.seeds)]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {len(results)} runs, {failed} of {attempted} operations failed")
        table = {}
        for name, first in results[0]["metrics"].items():
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = first["unit"]
            table[name] = stats
            bound = bounds.get(name)
            print(f"  {name:<32} median {stats['median']:<14.6g} q1 {stats['q1']:<12.6g} "
                  f"q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f}"
                  + (f"  (bound {bound}, target < {bound / 3:.4f})" if bound else ""))
        entry = record["workloads"][workload] = {
            "seeds": args.seeds, "attempted": attempted, "failed": failed,
            "end_to_end": table}
        if args.record:
            traced = _run(workload, None, spec["run_seconds"], 1)
            entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
            entry["per_layer_correct"] = traced["correct"]
    if args.record:
        args.record.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
