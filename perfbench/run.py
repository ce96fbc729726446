"""Benchmark of the dejean certificate and search; standard library only.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout, and the CLI is run from it as ``python -m dejean``.  Every
output is checked (see gate.py); an operation that raises or whose output
is wrong counts as failed.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, holding the
end-to-end metrics named in BENCHMARK.json with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  The lines before it print the same
metrics as a table, together with the names this benchmark's README gives
them per workload.

The workload's main step repeats until it has run for ``--seconds``, at
least once, and ``wall_ref_s`` is the median of its times at the
reference speed (speed.py); the wall times are printed next to it.  The
CLI runs once.  ``setup_s`` is the median, at the reference speed, of
seven fresh interpreters, each timed from spawn to the end of the
workload's set-up; three are started before the timed steps and four
after, so that the median spans the run.  A traced run first measures
untraced, then repeats the main step once with spans recorded (tracer.py)
and writes them to ``perfbench/out/``.
"""

import argparse
import json
import resource
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median

from speed import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="mutant seed (default: mutants.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print 'ready' and exit (times setup_s)")
    return parser.parse_args(argv)


def _repeat(step, budget: float, ops) -> list:
    """Timings of each repetition of step, until budget wall seconds are
    spent; at least one, and none after an operation has failed."""
    times = []
    while not times or (sum(t.wall for t in times) < budget and ops.failed == 0):
        times.append(step())
    return times


def _medians(times) -> tuple[float, float]:
    """Median wall seconds and median reference seconds."""
    return median(t.wall for t in times), median(t.ref for t in times)


def _setup_times(workload: str, seed: int, count: int) -> list:
    """Timings, from spawn to ready, of fresh interpreters that only set up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(count):
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            with Clock(probe=False) as clock:
                line = child.stdout.readline()
            child.stdout.read()
            try:
                child.wait(timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up of {workload} failed (exit code {child.returncode})")
        samples.append(clock.timing)
    return samples


def _per_layer(spans, work, overhead_ref, verify_wall, cli_wall) -> dict:
    """Per-layer metrics from the spans of one traced main step."""
    sel, m = spans.select, {}
    verify_spans = sel("verifier.verify")
    check_ms = defaultdict(int)
    for kept in spans.kept(verify_spans):
        for name, ms in kept["ms"].items():
            check_ms[name] += ms
    for name in ("kernel_free", "big_excess_free", "power_free", "markability_r"):
        m[f"verifier.{name}_ms"] = check_ms.pop(name, 0)
    m["verifier.other_checks_ms"] = sum(check_ms.values())
    kernel = sel("verifier.find_kernel_repetitions")
    m["verifier.kernel_scan_ms"] = 1000 * spans.own(kernel)
    m["verifier.kernel_occurrences"] = sum(spans.kept(kernel))

    excess = sel("words.find_repetitions_with_excess_at_least")
    power = sel("words.find_repetitions_exceeding")
    screens = sel("words.has_repetition_exceeding") + sel("words.has_repetition_with_excess_at_least")
    m["words.excess_scan_ms"] = 1000 * spans.total(excess)
    m["words.power_scan_ms"] = 1000 * spans.total(power)
    m["words.witnesses"] = sum(spans.kept(excess)) + sum(spans.kept(power))
    m["words.screen_scan_ms"] = 1000 * spans.total(screens)
    m["words.screen_scan_calls"] = len(screens)

    m["pansiot.decode_ms"] = 1000 * spans.total(sel("pansiot.decode"))
    m["perms.prefix_table_ms"] = 1000 * spans.total(sel("perms.PrefixPermutationTable"))
    closures = sel("morphisms.factor_closure")
    m["morphisms.probe_encoding_ms"] = 1000 * spans.total(sel("verifier.probe_encoding"))
    m["morphisms.factor_closure_ms"] = 1000 * spans.total(closures)
    m["morphisms.factor_closure_calls"] = len(closures)
    mark = sel("markability.check_all_length_r_factors_markable")
    m["markability.check_ms"] = 1000 * spans.own(mark)
    m["markability.factors"] = sum(k[0] for k in spans.kept(mark))
    m["markability.failures"] = sum(k[1] for k in spans.kept(mark))

    walk = sel("search._walk")
    walk_self = spans.own(sel("search.search_convenient")) + spans.own(walk)
    leaves = sum(spans.kept(walk))
    pairs = sel("search._screen_pair")
    verified = sel("verifier.verify", within="search.search_convenient")
    m["search.walk_self_s"] = walk_self
    m["search.leaves"] = leaves
    m["search.leaves_per_s"] = leaves / walk_self if walk_self else 0
    m["search.pairs_tried"] = len(pairs)
    m["search.pairs_to_factor_set"] = len(sel("morphisms.factor_closure", parent="search._screen_pair"))
    m["search.pairs_to_power_screen"] = len(sel("words.has_repetition_exceeding",
                                                parent="search._screen_pair"))
    m["search.pairs_verified"] = len(verified)
    m["search.screen_s"] = spans.total(pairs)
    m["search.verify_s"] = spans.total(verified)
    passes = sum(1 for kept in spans.kept(verified) if kept["overall"])
    m["search.verify_yield"] = passes / len(verified) if verified else 0

    m["cli.wall_s"] = cli_wall
    m["cli.checks_ms_sum"] = sum(c["ms"] for r in work.cli_reports for c in r["checks"])
    m["cli.workers"] = work.cli_workers
    m["cli.pool_efficiency"] = verify_wall / (cli_wall * work.cli_workers)
    m["trace.overhead_s"] = overhead_ref
    return m


def _print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<32} {value:>16.6f} {unit:<6} {note}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "dejean" / "__init__.py").is_file():
        print(f"error: no dejean package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import mutants
    import workloads
    from tracer import Spans, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = mutants.DEFAULT_SEED if args.seed is None else args.seed
    OUT_DIR.mkdir(exist_ok=True)
    make = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        make(ROOT, seed, OUT_DIR)
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    setup = _setup_times(args.workload, seed, SETUP_SAMPLES // 2)
    work = make(ROOT, seed, OUT_DIR)
    ops = workloads.Ops()
    main_times = _repeat(lambda: work.main(ops), args.seconds, ops)
    verify_wall = (main_times[-1] if work.main_metric == "verify_wall_s"
                   else work.verify_all(ops)).wall
    cli_wall = work.cli(ops).wall
    setup += _setup_times(args.workload, seed, SETUP_SAMPLES - len(setup))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wall, wall_ref = _medians(main_times)
    named = {
        "setup_s": (_medians(setup)[1], f"at reference speed, median of {len(setup)} "
                                        "fresh interpreters"),
        "wall_ref_s": (wall_ref, f"{work.main_metric} at reference speed, "
                                 f"median of {len(main_times)}"),
        "peak_rss_mb": (peak_rss_mb, "peak resident memory of this process"),
    }
    section = "end_to_end"
    if args.trace:
        section = "per_layer"
        gaps_before = len(ops.probe_gaps)
        with Tracer() as tracer:
            traced = work.main(ops)
        spans = Spans(tracer.spans, ops.probe_gaps[gaps_before:])
        layer = _per_layer(spans, work, traced.ref - wall_ref, verify_wall, cli_wall)
        named = {name: (value, "") for name, value in layer.items()}
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{seed}.json"
        trace_path.write_text(json.dumps({"spans": tracer.spans, "by_name": spans.by_name()}),
                              encoding="utf-8")

    metrics = {}
    rows = []
    for entry in spec[section]:
        value, note = named[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        rows.append((entry["name"], value, entry["unit"], note))
    if not args.trace:
        extra = [("setup_wall_s", _medians(setup)[0], "s", "wall time, median"),
                 (work.main_metric, wall, "s", f"wall time, median of {len(main_times)}")]
        if work.main_metric != "verify_wall_s":
            extra.append(("verify_wall_s", verify_wall, "s", "the found morphism, in-process"))
        extra.append(("cli_wall_s", cli_wall, "s",
                      "python -m dejean " + " ".join(work.cli_args[:2])))
        rows[2:2] = extra
    rows.append(("error_rate", ops.failed / ops.attempted, "share",
                 f"{ops.failed} of {ops.attempted} operations failed"))
    _print_table(f"{args.workload} seed={seed} seconds={args.seconds:g} trace={args.trace}", rows)
    for problem in ops.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
