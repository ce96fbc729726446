"""The three workloads: set-up, timed steps and output checks.

verify-all   serial in-process ``verify(n)`` of the twelve builtin
             morphisms, n = 15..26, then one ``dejean verify all --json``
             subprocess.  The certificate itself: the ``words`` scans do
             >= 90% of the work and ``search`` does none, so bounded scans
             and pool-versus-serial show here.
verify-mutants
             fourteen seeded mutants of builtin morphisms at n = 15..20
             (see mutants.py), handed over as stanza text through
             ``parse_morphism_file`` and verified serially in-process, then
             through ``dejean verify all --json --morphism-file``.  The same
             scans on their failure path, and the case where a bounded scan
             must fall back because its premise failed.
search-15    serial ``search_convenient(15, 56, limit=1)``, what
             ``dejean search 15`` runs; the returned morphism is then
             verified in-process and through ``dejean verify 15 --json
             --morphism-file``.  Exercises the walk, pairing and screening,
             and barely the decisive scans.

verify-all and search-15 are deterministic; ``--seed`` only changes the
mutants of verify-mutants.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from dejean import BUILTIN_SIZES, builtin, emit_morphism_file, parse_morphism_file
from dejean import search, verifier

import gate
import mutants
from speed import Clock, Timing

SEARCH_N, SEARCH_LENGTH = 15, 56
CLI_TIMEOUT_S = 150


class Ops:
    """Operations attempted and failed in one run, and what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.probe_gaps: list[tuple[float, float]] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:3])

    def timed(self, label: str, call, check, in_process: bool = True):
        """Run and time one operation; check(result) lists what is wrong
        with its output.  Returns (result or None, Timing).  The speed
        probe runs inside in-process operations; its intervals are kept in
        ``probe_gaps``, so that spans can leave them out."""
        problems = None
        with Clock(probe=in_process, gaps=self.probe_gaps) as clock:
            try:
                result = call()
            except Exception as exc:  # any error is a failed operation, not a crash
                result, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        self.record(label, check(result) if problems is None else problems)
        return result, clock.timing


class Workload:
    """Morphisms verified in-process and through the CLI, with their checks.

    Subclasses set ``morphisms`` (or produce them in ``main``), the CLI
    arguments, and ``check_report``.
    """

    name = ""
    main_metric = "verify_wall_s"

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.root = root
        self.morphisms = []
        self.cli_args: list[str] = []
        self.reports: list[dict] = []
        self.cli_reports: list[dict] = []

    def check_report(self, k: int, report: dict) -> list[str]:
        return []

    def check_cli(self, lines: list[dict]) -> list[str]:
        """CLI reports must equal the in-process ones apart from ms."""
        if None in self.reports:
            return ["no in-process report to compare with"]
        return gate.compare_reports(lines, [gate.without_ms(r) for r in self.reports])

    def verify_all(self, ops: Ops) -> Timing:
        """Verify every morphism once, serially in-process."""
        total = Timing()
        self.reports = []
        for k, h in enumerate(self.morphisms):
            report, timing = ops.timed(
                f"verify #{k} n={h.n}", lambda: verifier.verify(h).to_json(),
                lambda report: self.check_report(k, report))
            self.reports.append(report)
            total += timing
        return total

    def main(self, ops: Ops) -> Timing:
        return self.verify_all(ops)

    def cli(self, ops: Ops) -> Timing:
        """One ``python -m dejean`` subprocess, from spawn to exit."""
        env = dict(os.environ)
        env.pop("DEJEAN_MORPHISMS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        command = [sys.executable, "-m", "dejean", *self.cli_args]

        def call():
            return subprocess.run(command, env=env, cwd=self.root, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)

        def check(proc):
            want = 0 if all(r and r["overall"] for r in self.reports) else 1
            if proc.returncode != want:
                return [f"exit code {proc.returncode}, expected {want}: {proc.stderr[-300:]}"]
            try:
                lines = [json.loads(line) for line in proc.stdout.splitlines()]
            except json.JSONDecodeError as exc:
                return [f"unreadable output: {exc}"]
            self.cli_reports = lines
            return self.check_cli(lines)

        self.cli_reports = []
        return ops.timed("cli " + " ".join(self.cli_args), call, check, in_process=False)[1]

    @property
    def cli_workers(self) -> int:
        """Worker processes the CLI's pool uses for these morphisms."""
        return max(1, min(len(self.morphisms), os.cpu_count() or 1))


class VerifyAll(Workload):
    name = "verify-all"

    def __init__(self, root, seed, out_dir):
        super().__init__(root, seed, out_dir)
        self.morphisms = [builtin(n) for n in BUILTIN_SIZES]
        self.expected = gate.load_expected("verify-all.jsonl")
        self.cli_args = ["verify", "all", "--json"]

    def check_report(self, k, report):
        problems = [] if report["overall"] else ["overall is false"]
        return problems + gate.compare_reports([report], [self.expected[k]])

    def check_cli(self, lines):
        return gate.compare_reports(lines, self.expected)


class VerifyMutants(Workload):
    name = "verify-mutants"

    def __init__(self, root, seed, out_dir):
        super().__init__(root, seed, out_dir)
        self.mutants = mutants.generate(seed)
        text = mutants.stanza_text(self.mutants)
        self.morphisms = parse_morphism_file(text)
        path = out_dir / f"mutants-seed{seed}.txt"
        path.write_text(text, encoding="utf-8")
        self.cli_args = ["verify", "all", "--json", "--morphism-file", str(path)]
        self.expected = gate.load_expected(f"verify-mutants-seed{seed}.jsonl")

    def check_report(self, k, report):
        m, h = self.mutants[k], self.morphisms[k]
        if (h.n, h.image0, h.image1) != (m.n, m.image0, m.image1):
            return ["the stanza text parsed to another morphism"]
        problems = gate.recheck_witnesses(m.n, m.image0, m.image1, report)
        if m.kind.startswith("window"):
            passed = [c["name"] for c in report["checks"]
                      if c["pass"] and c["name"] in gate.REPETITION_CHECKS]
            problems += [f"{name} passes on a window of 2n equal bits" for name in passed]
        if self.expected is not None:
            problems += gate.compare_reports([report], [self.expected[k]])
        return problems


class Search15(Workload):
    name = "search-15"
    main_metric = "search_wall_s"

    def __init__(self, root, seed, out_dir):
        super().__init__(root, seed, out_dir)
        self.path = out_dir / f"found-{SEARCH_N}.txt"
        self.cli_args = ["verify", str(SEARCH_N), "--json", "--morphism-file", str(self.path)]

    def check_report(self, k, report):
        return [] if report["overall"] else ["the found morphism fails verification"]

    def main(self, ops) -> Timing:
        def check(found):
            if len(found) != 1 or found[0].n != SEARCH_N or found[0].r != SEARCH_LENGTH:
                return [f"expected one morphism for n={SEARCH_N}, got {found!r}"]
            return []

        found, timing = ops.timed(
            f"search n={SEARCH_N}",
            lambda: search.search_convenient(SEARCH_N, SEARCH_LENGTH, limit=1), check)
        if found:
            self.morphisms = found[:1]
            self.path.write_text(emit_morphism_file(self.morphisms), encoding="utf-8")
        return timing


WORKLOADS = {w.name: w for w in (VerifyAll, VerifyMutants, Search15)}
