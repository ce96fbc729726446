"""End-to-end verification for one alphabet size.

Eight checks make up a report: structural facts about the two images, the
simultaneous-conjugacy condition on their permutation images, the length-2
factor universe, 2-markability of all image-length factors, the bound
arithmetic, kernel-freeness of the doubled probe encoding, and the two
decisive repetition searches on its decoding.  All eight always run; a
failing check never short-circuits the rest.

The ordered table ``_CHECKS`` of (name, body) is the only list of the
checks: ``CHECK_NAMES``, :func:`verify`, :func:`run_check` and the
``check_*`` shortcuts all read it.  Each body takes a ``_Probe``, which
builds the probe encoding and then one ``PrefixPermutationTable`` on first
use: the decoding, and the ids of its decoder states read off its windows.
So one verification decodes the probe encoding once.

The three repetition checks read the decoder-state ids.  Window k of
length n-1 of the decoding is decoder state k, so two equal ids q apart
start a run of period q and excess >= n-1, and the bits between them map
to the identity.  ``big_excess_free`` reports those runs without a scan.
``power_free`` scans periods up to n^2-3n+1 (``Bounds.short_bound``) and
takes the longer periods from the runs, with no premise.  ``kernel_free``
scans periods up to 9n^2-6n+1 (``Bounds.kernel_bound``), which the
``markability_r`` and ``iteration_bound`` checks confine kernel
repetitions below, and is skipped while the ids are distinct.  Without
``max_period``, :func:`find_kernel_repetitions` scans every period
(``dejean kernel-scan``).
"""

import json
import time
from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction
from itertools import islice

from .markability import check_all_length_r_factors_markable
from .morphisms import UniformMorphism, builtin, factor_closure, iteration_bound
from .pansiot import canonical_prefix, decode
from .perms import (PrefixPermutationTable, find_conjugator, step0, step1,
                    word_permutation)
# find_repetitions_with_excess_at_least is not called here; perfbench/tracer.py
# wraps it under this module, so it stays importable.
from .words import (RepetitionOccurrence, SigmaWord, find_repetitions_exceeding,
                    find_repetitions_with_excess_at_least, maximal_extension)


@dataclass(frozen=True)
class Bounds:
    """Derived constants for one alphabet size.

    ``kernel_bound`` = 9n^2-6n+1 bounds the period of a kernel repetition
    once ``markability_r`` and ``iteration_bound`` hold.  ``short_bound`` =
    n^2-3n+1 bounds the period of a repetition above n/(n-1) with excess
    e <= n-2: it forces q < e(n-1) <= (n-1)(n-2).  ``threshold`` is n/(n-1).
    """

    kernel_bound: int
    short_bound: int
    threshold: Fraction


def compute_bounds(n: int) -> Bounds:
    """Bounds for alphabet size n: 9n^2-6n+1, n^2-3n+1, and n/(n-1).

    The kernel bound is re-derived as 4n + (n-1)(9n-1) to guard the
    arithmetic against transcription slips.
    """
    if n < 2:
        raise ValueError(f"alphabet size must be >= 2, got {n}")
    kernel_bound = 9 * n * n - 6 * n + 1
    if kernel_bound != 4 * n + (n - 1) * (9 * n - 1):
        raise RuntimeError(f"kernel bound derivation mismatch at n={n}")
    return Bounds(kernel_bound, n * n - 3 * n + 1, Fraction(n, n - 1))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str
    ms: int


@dataclass(frozen=True)
class VerificationReport:
    n: int
    r: int
    checks: tuple[CheckResult, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "overall": self.overall,
            "checks": [
                {"name": c.name, "pass": c.passed, "witness": c.witness, "ms": c.ms}
                for c in self.checks
            ],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=False)

    def render_text(self) -> str:
        bounds = compute_bounds(self.n)
        lines = [
            f"verification n={self.n} r={self.r}",
            f"  kernel scan period bound {bounds.kernel_bound} = 9n^2-6n+1; the iteration_bound and",
            f"  markability_r checks are what confine kernel repetitions below it",
            f"  power scan periods <= {bounds.short_bound} = n^2-3n+1; longer periods read off"
            f" equal decoder states",
        ]
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name:<20} {c.witness} ({c.ms} ms)")
        lines.append(f"  overall: {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines)


def _as_morphism(source) -> UniformMorphism:
    if isinstance(source, UniformMorphism):
        return source
    return builtin(source)


def probe_encoding(source) -> str:
    """The doubled image of 0110: every factor the checks need lives here."""
    h = _as_morphism(source)
    return h.apply(h.apply("0110"))


def probe_word(source) -> SigmaWord:
    """Decoding of the doubled probe image over the canonical prefix.

    Its length is 4r^2 + n - 1; the two decisive searches run on it.
    """
    h = _as_morphism(source)
    return decode(probe_encoding(h), canonical_prefix(h.n))


def _collision_runs(w, keys, span: int,
                    max_period: int | None = None) -> list[RepetitionOccurrence]:
    """The maximal runs of ``w`` through equal keys, once each, sorted by
    (start, period).  keys[a] == keys[b] for a < b must make w[a:b+span] a
    factor of period b - a; it is extended to its maximal run.  Periods
    above ``max_period`` (when given) are skipped."""
    buckets: dict = {}
    slots = []
    for a, key in enumerate(keys):
        positions = buckets.setdefault(key, [])
        positions.append(a)
        slots.append((positions, len(positions)))
    occs = []
    # Left to right, every later pair of a period-q run lies inside the run
    # its first pair extended to, so one extension per run suffices.
    covered: dict[int, int] = {}
    for a, (positions, later) in enumerate(slots):
        for b in islice(positions, later, None):
            q = b - a
            if max_period is not None and q > max_period:
                break
            if a + q + span <= covered.get(q, -1):
                continue
            start, end = maximal_extension(w, a, b + span, q)
            occs.append(RepetitionOccurrence(start, q, end - start))
            covered[q] = end
    occs.sort(key=lambda occ: (occ.start, occ.period))
    return occs


def find_kernel_repetitions(bits: str, n: int, max_period: int | None = None,
                            ids: list[int] | None = None) -> list[RepetitionOccurrence]:
    """Occurrences u = b[i:j] with a period q < j-i whose period word maps to
    the identity permutation, maximal, deduplicated by (start, period) and
    sorted.  A kernel repetition of period q starts at some a with
    b[a] == b[a+q] and equal prefix-permutation ids at a and a+q, so equal
    keys (id, letter) are read off.  ``max_period`` caps the period;
    ``ids``, when given, must be ``PrefixPermutationTable(bits, n).ids``.
    """
    if ids is None:
        ids = PrefixPermutationTable(bits, n).ids
    return _collision_runs(bits, zip(ids, bits), 1, max_period)


def _power_runs(v: SigmaWord, n: int, runs: list[RepetitionOccurrence]) -> list[RepetitionOccurrence]:
    """Every maximal repetition of v above n/(n-1), given ``runs``, all of
    excess >= n-1.  Periods up to n^2-3n+1 are scanned; a longer period
    exceeds n/(n-1) only with excess >= q//(n-1)+1 >= n-1, so is in ``runs``."""
    bound = compute_bounds(n).short_bound
    occs = find_repetitions_exceeding(v, n, n - 1, bound)
    occs += [o for o in runs if o.period > bound and (n - 1) * o.length > n * o.period]
    occs.sort(key=lambda occ: (occ.start, occ.period))
    return occs


class _Probe:
    """The morphism under test and what its checks read, each built on
    first use: the probe encoding, its table (the decoding and the
    decoder-state ids), their distinctness, and the runs they give."""

    def __init__(self, h: UniformMorphism):
        self.h = h

    @cached_property
    def bits(self) -> str:
        return probe_encoding(self.h)

    @cached_property
    def table(self) -> PrefixPermutationTable:
        return PrefixPermutationTable(self.bits, self.h.n)

    @cached_property
    def states_distinct(self) -> bool:
        """No two decoder states are equal, so the decoding has no repetition
        with excess >= n-1 and the probe encoding no kernel repetition."""
        ids = self.table.ids
        return len(set(ids)) == len(ids)

    @cached_property
    def runs(self) -> list[RepetitionOccurrence]:
        """Every maximal run of the decoding with excess >= n-1."""
        if self.states_distinct:
            return []
        return _collision_runs(self.table.word, self.table.ids, self.h.n - 1)


def _check_structure(p: _Probe) -> tuple[bool, str]:
    h = p.h
    problems = []
    if h.image0[-1] == h.image1[-1]:
        problems.append(f"last letters agree ({h.image0[-1]})")
    if "011" not in h.image0:
        problems.append("011 does not occur in image0")
    if "110" not in h.image1:
        problems.append("110 does not occur in image1")
    if h.r > 4 * h.n:
        problems.append(f"r={h.r} exceeds 4n={4 * h.n}")
    if problems:
        return False, "; ".join(problems)
    return True, f"r={h.r}, last letters {h.image0[-1]}/{h.image1[-1]}, 011 in h(0), 110 in h(1)"


def _check_algebraic(p: _Probe) -> tuple[bool, str]:
    h = p.h
    a0 = word_permutation(h.image0, h.n)
    a1 = word_permutation(h.image1, h.n)
    tau = find_conjugator(a0, a1, h.n)
    if tau is None:
        return False, (f"no simultaneous conjugator; image cycle types "
                       f"{a0.cycle_type()} and {a1.cycle_type()}")
    if tau * a0 * tau.inverse() != step0(h.n) or tau * a1 * tau.inverse() != step1(h.n):
        return False, f"conjugator {tau.one_line()} fails re-verification"
    return True, f"conjugator {tau.one_line()}"


def _check_factor_set_2(p: _Probe) -> tuple[bool, str]:
    members = factor_closure(p.h, 2).members
    expected = {"01", "10", "11"}
    if members != expected:
        return False, f"length-2 factors {sorted(members)} != {sorted(expected)}"
    return True, "length-2 factors {01, 10, 11}"


def _check_markability(p: _Probe) -> tuple[bool, str]:
    report = check_all_length_r_factors_markable(p.h)
    return report.passed, report.describe()


def _check_iteration_bound(p: _Probe) -> tuple[bool, str]:
    bounds = compute_bounds(p.h.n)
    value = iteration_bound(bounds.kernel_bound, p.h.r)
    ok = value == 2 and bounds.short_bound < bounds.kernel_bound
    return ok, (f"I({bounds.kernel_bound}, {p.h.r}) = {value}; "
                f"short bound {bounds.short_bound} < {bounds.kernel_bound}")


def _check_kernel(p: _Probe) -> tuple[bool, str]:
    bound = compute_bounds(p.h.n).kernel_bound
    # bits[a:a+q] maps to the identity iff ids[a] == ids[a+q], so distinct
    # states leave no kernel repetition at any period.
    occs = [] if p.states_distinct else find_kernel_repetitions(p.bits, p.h.n, bound, p.table.ids)
    if occs:
        return False, (f"{len(occs)} kernel repetitions (periods <= {bound}); "
                       f"first: {occs[0].describe()}")
    return True, f"no kernel repetitions in {len(p.bits)} letters (periods <= {bound})"


def _check_big_excess(p: _Probe) -> tuple[bool, str]:
    n, v, occs = p.h.n, p.table.word, p.runs
    if occs:
        return False, f"{len(occs)} repetitions with excess >= {n - 1}; first: {occs[0].describe()}"
    return True, f"no repetition with excess >= {n - 1} in {len(v)} letters"


def _check_power(p: _Probe) -> tuple[bool, str]:
    n, v = p.h.n, p.table.word
    occs = _power_runs(v, n, p.runs)
    if occs:
        return False, (f"{len(occs)} repetitions above {n}/{n - 1}; "
                       f"first: {occs[0].describe()}")
    return True, f"no repetition above {n}/{n - 1} in {len(v)} letters"


# The eight checks in report order; the only list of them.
_CHECKS = (
    ("structure", _check_structure),
    ("algebraic_condition", _check_algebraic),
    ("factor_set_2", _check_factor_set_2),
    ("markability_r", _check_markability),
    ("iteration_bound", _check_iteration_bound),
    ("kernel_free", _check_kernel),
    ("big_excess_free", _check_big_excess),
    ("power_free", _check_power),
)
CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def _run(name: str, body, probe: _Probe) -> CheckResult:
    started = time.perf_counter()
    try:
        passed, witness = body(probe)
    except ValueError as exc:  # a failing construction is report content
        passed, witness = False, f"error: {exc}"
    return CheckResult(name, passed, witness, int((time.perf_counter() - started) * 1000))


def run_check(name: str, source) -> CheckResult:
    """Run one check of the suite alone, with the verdict and witness that
    :func:`verify` reports under that name."""
    body = dict(_CHECKS).get(name)
    if body is None:
        raise ValueError(f"unknown check name {name!r}; expected one of {', '.join(CHECK_NAMES)}")
    return _run(name, body, _Probe(_as_morphism(source)))


# check_<name>(source) is run_check("<name>", source).
check_iteration_bound = partial(run_check, "iteration_bound")
check_kernel_free = partial(run_check, "kernel_free")
check_big_excess_free = partial(run_check, "big_excess_free")
check_power_free = partial(run_check, "power_free")


def verify(source) -> VerificationReport:
    """Run the full check suite for a builtin alphabet size or a supplied
    morphism.  Every check runs; a failing one never short-circuits the rest.
    """
    probe = _Probe(_as_morphism(source))
    checks = tuple(_run(name, body, probe) for name, body in _CHECKS)
    return VerificationReport(probe.h.n, probe.h.r, checks)
