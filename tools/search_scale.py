"""Rediscovery at scale: time and measure ``search_convenient(n, r, limit=1)``
at the builtin r of each n, serially and sharded over two worker processes.

    python3 tools/search_scale.py --label "packed pools"

Run from the root of a checkout.  Each run is one fresh interpreter that
imports ``dejean`` from ``--src`` (default: ``src/`` of this checkout), so
another checkout's program can be measured with the same script.  Per run
it records:

- ``wall_s``: the search's wall time in that process;
- ``leaves`` and ``pairs_tried``: read off the search's progress lines (a
  sharded search reports no leaf count, so ``leaves`` is null there);
- ``peak_rss_mb``: ``ru_maxrss`` of the search process;
- ``peak_rss_worker_mb``: the largest ``ru_maxrss`` among its worker
  processes (0 for a serial run);
- ``peak_rss_total_mb``: the largest sum of ``VmRSS`` over the search
  process and its workers, sampled from ``/proc`` every 20 ms (pages the
  workers share with the search process copy-on-write count in each);
- the found morphism, whether it passes ``verify`` and whether it is the
  builtin one.

The runs are written to ``--out`` (default ``BENCH_search-scale.json``)
after each run, with the core count and the Python version.  A run
replaces the one in that file with the same label, n and workers; the
others are kept, so one file compares two programs.
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
SAMPLE_S = 0.02
WORKERS = (1, 2)


def _one(n: int, workers: int) -> dict:
    """Run one search in this process and describe it."""
    import resource

    from dejean.morphisms import builtin
    from dejean.search import search_convenient
    from dejean.verifier import verify

    target = builtin(n)
    r = len(target.image0)
    lines: list[str] = []
    start = time.perf_counter()
    found = search_convenient(n, r, limit=1, workers=workers, progress=lines.append)
    wall = time.perf_counter() - start
    last = next((line for line in reversed(lines) if line.startswith("verified")), "")
    leaves = re.search(r"after (\d+) words", last)
    pairs = re.search(r"(\d+) pairs tried", last)
    run = {
        "n": n, "r": r, "workers": workers, "wall_s": round(wall, 2),
        "leaves": int(leaves.group(1)) if leaves else None,
        "pairs_tried": int(pairs.group(1)) if pairs else None,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "peak_rss_worker_mb": round(
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1),
        "found": None, "verified": False, "is_builtin": False,
    }
    if found:
        h = found[0]
        run.update(found=[h.image0, h.image1], verified=verify(h).overall,
                   is_builtin=h == target)
    return run


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                out.extend(int(c) for c in f.read().split())
    except OSError:
        pass
    return out


def _measure(label: str, n: int, workers: int, src: Path) -> dict:
    """Run one search in a fresh interpreter, sampling its process tree."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen([sys.executable, __file__, "--label", label,
                             "--one", str(n), str(workers)],
                            stdout=subprocess.PIPE, text=True, env=env)
    peak_kb = 0
    while proc.poll() is None:
        peak_kb = max(peak_kb, sum(_rss_kb(pid) for pid in [proc.pid, *_children(proc.pid)]))
        time.sleep(SAMPLE_S)
    out = proc.stdout.read()
    proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"n={n} workers={workers} exited {proc.returncode}")
    run = json.loads(out.strip().splitlines()[-1])
    run["peak_rss_total_mb"] = round(peak_kb / 1024, 1)
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[15, 16, 17, 18])
    parser.add_argument("--label", required=True, help="names the program measured")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_search-scale.json")
    parser.add_argument("--one", type=int, nargs=2, metavar=("N", "WORKERS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(_one(*args.one)))
        return 0

    runs = json.loads(args.out.read_text())["runs"] if args.out.exists() else []
    for n in args.sizes:
        for workers in WORKERS:
            run = {"label": args.label, **_measure(args.label, n, workers, args.src.resolve())}
            print(json.dumps({k: v for k, v in run.items() if k != "found"}), flush=True)
            runs = [old for old in runs
                    if (old["label"], old["n"], old["workers"]) != (args.label, n, workers)]
            runs.append(run)
            report = {
                "what": "search_convenient(n, builtin r, limit=1), one fresh process per run",
                "cores": os.cpu_count(),
                "python": platform.python_version(),
                "runs": sorted(runs, key=lambda run: (run["label"], run["n"], run["workers"])),
            }
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
