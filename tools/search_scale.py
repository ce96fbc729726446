"""Rediscovery at scale: time and measure ``search_convenient(n, r, limit=1)``
at the builtin r of each n.

    python3 tools/search_scale.py --label "packed pools"

Run from the root of a checkout.  Each run is one fresh interpreter that
imports ``dejean`` from ``--src`` (default: ``src/`` of this checkout), so
another checkout's program can be measured with the same script.  Per run
it records:

- ``wall_s`` and ``cpu_s``: the search's wall and CPU time
  (``time.process_time``) in that process; the CPU time is the steadier
  of the two on a shared host;
- ``leaves`` and ``pairs_tried``: read off the search's progress lines;
- ``peak_rss_mb``: ``ru_maxrss`` of the search process;
- the found morphism, whether it passes ``verify`` and whether it is the
  builtin one.

The runs are written to ``--out`` (default ``BENCH_search-scale.json``)
after each run, with the core count and the Python version.  A run
replaces the one in that file with the same label and n; the others are
kept, so one file compares two programs.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _one(n: int) -> dict:
    """Run one search in this process and describe it."""
    import resource

    from dejean.morphisms import builtin
    from dejean.search import search_convenient
    from dejean.verifier import verify

    target = builtin(n)
    r = len(target.image0)
    lines: list[str] = []
    start, start_cpu = time.perf_counter(), time.process_time()
    found = search_convenient(n, r, limit=1, progress=lines.append)
    wall, cpu = time.perf_counter() - start, time.process_time() - start_cpu
    last = next((line for line in reversed(lines) if line.startswith("verified")), "")
    leaves = re.search(r"after (\d+) words", last)
    pairs = re.search(r"(\d+) pairs tried", last)
    run = {
        "n": n, "r": r, "wall_s": round(wall, 2), "cpu_s": round(cpu, 2),
        "leaves": int(leaves.group(1)) if leaves else None,
        "pairs_tried": int(pairs.group(1)) if pairs else None,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "found": None, "verified": False, "is_builtin": False,
    }
    if found:
        h = found[0]
        run.update(found=[h.image0, h.image1], verified=verify(h).overall,
                   is_builtin=h == target)
    return run


def _measure(label: str, n: int, src: Path) -> dict:
    """Run one search in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, __file__, "--label", label, "--one", str(n)],
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"n={n} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(range(15, 27)))
    parser.add_argument("--label", required=True, help="names the program measured")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_search-scale.json")
    parser.add_argument("--one", type=int, metavar="N", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(_one(args.one)))
        return 0

    runs = json.loads(args.out.read_text())["runs"] if args.out.exists() else []
    for n in args.sizes:
        run = {"label": args.label, **_measure(args.label, n, args.src.resolve())}
        print(json.dumps({k: v for k, v in run.items() if k != "found"}), flush=True)
        runs = [old for old in runs if (old["label"], old["n"]) != (args.label, n)]
        runs.append(run)
        report = {
            "what": "search_convenient(n, builtin r, limit=1), one fresh process per run",
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "runs": sorted(runs, key=lambda run: (run["label"], run["n"])),
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
