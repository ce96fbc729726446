"""End-to-end verification for one alphabet size.

Eight checks make up a report: structural facts about the two images, the
simultaneous-conjugacy condition on their permutation images, the length-2
factor universe, 2-markability of all image-length factors, the bound
arithmetic, kernel-freeness of the doubled probe encoding, and the two
decisive repetition searches on its decoding.  All eight always run; a
failing check never short-circuits the rest.

The ordered table ``_CHECKS`` of (name, body) is the only list of the
checks: ``CHECK_NAMES``, :func:`verify` and :func:`run_check` all read
it.  Each body takes a ``_Probe``.  The probe encoding is h(u) for
u = h(0110): 4r blocks of r bits, each h(0) or h(1).  On first use the
probe decodes it block by block, one image per step (``pansiot``), and
builds one ``PrefixPermutationTable`` of that decoding: the classes of its
equal decoder states, read off its windows, and the repeat fact.  So one
verification decodes the probe encoding once, and the 4r^2-bit string
h(u) is never built.

The three repetition checks read one list: the maximal runs of the decoding
with excess >= n-1.  Window k of length n-1 of the decoding is decoder state
k, so two positions q apart in one class start such a run of period q, and
the bits between them map to the identity.  Two equal windows preceded by
equal letters are preceded by equal windows, so the classes are complete: a
run extends left past a pair of one class exactly onto another such pair,
and only the pair at the run's start, at position 0 or after unequal
letters, is extended: one pair per run.  No class, no run.
``big_excess_free`` reports the runs without a scan.  ``power_free`` bounds
the periods it scans by n^2-3n+1 (``Bounds.short_bound``) and takes the
longer periods from the runs.  The table proves that no factor of the
decoding longer than its ``repeat`` < n-1 letters occurs twice (or else
``repeat`` = n-1).  A period q above n/(n-1) needs an e-letter factor twice
with e > q/(n-1), so the bound is repeat(n-1)-1 when that is lower.  The
decoder commutes with relabelling the alphabet, so the decoding of k
consecutive blocks is the decoding of h(x), x a k-letter factor of u,
relabelled by the decoder state at its first block, and a relabelling keeps
every repetition.  So ``power_free`` decides its verdict on the few
distinct k-factors x of u, for the least k whose blocks hold every
repetition of a period within the bound, instead of on the probe word.
Only a failing morphism scans the probe word, to write its count and
first witness.
``kernel_free`` keeps the runs with excess >= n, each n-1 letters shorter: a
kernel repetition of the bits with period q and excess e is exactly a
maximal run of the decoding with period q and excess e+n-1, with the same
start.  A letter is fixed by the window before it and the bit between, and a
bit by that window and letter.  So equal windows at a and a+q (an identity
period word) and e equal bit pairs give a run of excess e+n-1, such a run
gives those e pairs, and maximality carries over both ways.  It reads
periods up to 9n^2-6n+1 when ``markability_r`` and ``iteration_bound`` pass
(``Bounds.kernel_bound``), and every period when either fails.
"""

import json
import time
from dataclasses import dataclass
from functools import cached_property

from .markability import check_all_length_r_factors_markable
from .morphisms import UniformMorphism, builtin, factor_closure, iteration_bound
# decode and find_repetitions_with_excess_at_least are not called here;
# perfbench/tracer.py wraps them under this module, so they stay importable.
from .pansiot import decode, decode_letters
from .perms import PrefixPermutationTable, find_conjugator, step0, step1, word_permutation
from .words import (RepetitionOccurrence, SigmaWord, _agreement, find_repetitions_exceeding,
                    find_repetitions_with_excess_at_least, has_repetition_exceeding)


@dataclass(frozen=True)
class Bounds:
    """Derived constants for one alphabet size.

    ``kernel_bound`` = 9n^2-6n+1 bounds the period of a kernel repetition
    once ``markability_r`` and ``iteration_bound`` hold.  ``short_bound`` =
    n^2-3n+1 bounds the period of a repetition above n/(n-1) with excess
    e <= n-2: it forces q < e(n-1) <= (n-1)(n-2).  Where no factor longer
    than l < n-1 letters occurs twice, e <= l and the same bound becomes
    l(n-1)-1; ``power_free`` takes it only on that premise.
    """

    kernel_bound: int
    short_bound: int


def compute_bounds(n: int) -> Bounds:
    """Bounds for alphabet size n: 9n^2-6n+1 and n^2-3n+1.

    The kernel bound is re-derived as 4n + (n-1)(9n-1) to guard the
    arithmetic against transcription slips.
    """
    if n < 2:
        raise ValueError(f"alphabet size must be >= 2, got {n}")
    kernel_bound = 9 * n * n - 6 * n + 1
    if kernel_bound != 4 * n + (n - 1) * (9 * n - 1):
        raise RuntimeError(f"kernel bound derivation mismatch at n={n}")
    return Bounds(kernel_bound, n * n - 3 * n + 1)


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
            f"  power scan periods <= {bounds.short_bound} = n^2-3n+1, or l(n-1)-1 when no factor",
            f"  longer than l < n-1 letters occurs twice; longer periods read off equal decoder states",
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
    """Decoding of the doubled probe image over the canonical prefix, read
    block by block as the verifier reads it (:func:`_decode_image`).

    Its length is 4r^2 + n - 1; the two decisive searches run on it.
    """
    h = _as_morphism(source)
    return SigmaWord(h.n, tuple(_decode_image(h, h.apply("0110"))))


def _decode_image(h: UniformMorphism, x: str) -> bytes:
    """The letters of the decoding of h(x) over ``canonical_prefix(n)``,
    one image of h per step: the probe word for x = h(0110), a block
    window's decoding for a factor x of it."""
    return decode_letters(x, h.n, (h.image0, h.image1))


def _collision_runs(w, classes, span: int, max_period: int | None = None,
                    trim: int = 0) -> list[RepetitionOccurrence]:
    """The maximal runs of ``w`` through two positions of a class, once
    each, sorted by (start, period).  Periods above ``max_period`` (when
    given) are skipped.  Each run is reported ``trim`` letters shorter, and
    only when that leaves it some excess.  A pair is extended and built only
    when its first max(span, trim+1) letters agree, one slice compare; any
    other pair is checked against the first premise below on span letters
    and dropped.  Only classed positions are visited.

    Two premises, both enforced (ValueError): positions a < b of one class
    must make w[a:b+span] a factor of period b - a, and the classes must be
    complete: two positions of a class after equal letters must follow two
    positions of one class.  The run through such a pair extends left
    exactly when w[a-1] == w[b-1], and then, by completeness, (a-1, b-1) is
    again a pair of one class.  So each run holds exactly one pair at its
    start, the pair with a == 0 or w[a-1] != w[b-1], and only that pair is
    extended: each class is split by the letter before each position (none
    before 0), and a position pairs only with earlier ones of the other
    groups."""
    L, head = len(w), max(span, trim + 1)
    index = {k: i for i, c in enumerate(classes) for k in c}
    found = []  # (start, period, length): (start, period) is unique
    for c in classes:
        # letter before -> the class's positions so far; 0 has no letter before
        groups: dict = {}
        for b in c:
            before = w[b - 1] if b else None
            group = groups.setdefault(before, [])
            # An unclassed position shares no class: the defaults never match.
            if group and index.get(group[0] - 1, -1) != index.get(b - 1, -2):
                raise ValueError(f"positions {group[0]} and {b} of a class after equal letters"
                                 f" follow no common class: the classes are not complete")
            group.append(b)
            for letter, positions in groups.items():
                if letter == before:
                    continue
                for a in reversed(positions):
                    q = b - a
                    if max_period is not None and q > max_period:
                        break
                    if w[a:a + head] != w[b:b + head]:
                        # A mismatch within span letters breaks the premise;
                        # past them, the run has too little excess to keep.
                        if w[a:a + span] != w[b:b + span]:
                            raise ValueError(f"equal keys at {a} and {b} do not start a"
                                             f" factor of period {q}")
                        continue
                    found.append((a, q, q + _agreement(w, b, a, L - b) - trim))
    found.sort()
    return [RepetitionOccurrence(*t) for t in found]


def _kernel_runs(runs, n: int, max_period: int | None = None) -> list[RepetitionOccurrence]:
    """The kernel repetitions that ``runs`` of the decoding give, up to ``max_period``."""
    return [RepetitionOccurrence(o.start, o.period, o.length - n + 1) for o in runs
            if o.excess >= n and (max_period is None or o.period <= max_period)]


def find_kernel_repetitions(bits: str, n: int, max_period: int | None = None) -> list[RepetitionOccurrence]:
    """Occurrences u = b[i:j] with a period q < j-i whose period word maps to
    the identity permutation, maximal, deduplicated by (start, period) and
    sorted, read off the runs of the decoding, n-1 letters shorter: only
    runs with excess >= n give one.  ``max_period`` caps the period and cuts
    the collision scan there (``dejean kernel-scan``)."""
    table = PrefixPermutationTable(decode_letters(bits, n), n)
    return _collision_runs(table.word, table.classes, n - 1, max_period, trim=n - 1)


def _power_bound(n: int, repeat: int) -> int:
    """The longest period ``power_free`` scans: min(n^2-3n+1, repeat(n-1)-1)."""
    return min(compute_bounds(n).short_bound, repeat * (n - 1) - 1)


def _power_runs(v: SigmaWord, n: int, runs: list[RepetitionOccurrence],
                repeat: int) -> list[RepetitionOccurrence]:
    """Every maximal repetition of v above n/(n-1), given ``runs``, all of
    excess >= n-1, and ``repeat`` as ``PrefixPermutationTable.repeat``
    proves it of v: no factor longer than ``repeat`` < n-1 letters occurs
    twice, or else ``repeat`` = n-1.  A period q exceeds n/(n-1) only with
    excess >= q//(n-1)+1, so periods up to min(n^2-3n+1, repeat(n-1)-1) are
    scanned: a longer one needs excess >= n-1, in ``runs``, or > ``repeat``.

    This list rests on the repeat premise alone.  ``power_free`` decides
    whether it is empty on the block windows (:func:`_window_verdict`),
    which rests also on the relabelling premise, that the decoding of each
    window relabelled by its first decoder state is the probe word there,
    and enforces it; the list is built only on failure, for the count and
    the first witness."""
    bound = _power_bound(n, repeat)
    occs = find_repetitions_exceeding(v, n, n - 1, bound)
    occs += [o for o in runs if o.period > bound and (n - 1) * o.length > n * o.period]
    occs.sort(key=lambda occ: (occ.start, occ.period))
    return occs


class _Probe:
    """The morphism under test and what its checks read, each built on
    first use: the blocks u = h(0110) of the probe encoding h(u), its
    table (the decoding of h(u), block by block; the classes of equal
    decoder states and the repeat fact), the runs they give, and the
    verdicts of the checks run on it.  The probe encoding itself, 4r^2
    bits, is never built."""

    def __init__(self, h: UniformMorphism):
        self.h = h
        self.verdicts: dict[str, bool] = {}

    def passes(self, name: str) -> bool:
        """The verdict of the named check, which runs on first ask only."""
        if name not in self.verdicts:
            _run(name, dict(_CHECKS)[name], self)
        return self.verdicts[name]

    @cached_property
    def blocks(self) -> str:
        """u = h(0110): block j of the probe encoding h(u) is h(u[j])."""
        return self.h.apply("0110")

    @cached_property
    def table(self) -> PrefixPermutationTable:
        return PrefixPermutationTable(_decode_image(self.h, self.blocks), self.h.n)

    @cached_property
    def runs(self) -> list[RepetitionOccurrence]:
        """Every maximal run of the decoding with excess >= n-1."""
        return _collision_runs(self.table.word, self.table.classes, self.h.n - 1)


def _window_verdict(p: _Probe) -> bool:
    """True exactly when the probe word has no repetition above n/(n-1)
    (:func:`_power_runs` is empty), decided on its distinct block windows.

    Let b be the bound of :func:`_power_runs`.  A repetition above n/(n-1)
    of period above b is, on the repeat premise, one of the runs, which are
    checked first.  One of period q <= b holds a factor of q + q//(n-1) + 1
    <= L = b + b//(n-1) + 1 letters with that period, and every factor of
    at most L letters lies in word[jr:(j+k)r+n-1], the letters of blocks
    j..j+k-1 and the n-1 before them, for k = ceil((L-n)/r) + 1 blocks (at
    least 1, at most all 4r) and some 0 <= j <= 4r-k.  The decoder commutes
    with relabelling the alphabet, so that factor is the decoding of h(x),
    x = u[j:j+k], relabelled by decoder state jr, and a relabelling keeps
    every repetition.  So each distinct k-factor x of u is decoded once and
    scanned up to period b, stopping at the first repetition found.

    The relabelling premise is enforced (ValueError): at the first
    occurrence j of each x, the decoding of h(x) relabelled by decoder
    state jr must equal the table's word from jr on."""
    h, table = p.h, p.table
    n, r, u, word = h.n, h.r, p.blocks, table.word
    bound = _power_bound(n, table.repeat)
    if any(o.period > bound and (n - 1) * o.length > n * o.period for o in p.runs):
        return False
    span = bound + bound // (n - 1) + 1
    k = min(max(1 - (n - span) // r, 1), len(u))
    seen = set()
    for j in range(len(u) - k + 1):
        x = u[j:j + k]
        if x in seen:
            continue
        seen.add(x)
        letters = _decode_image(h, x)
        window = word[j * r:j * r + n - 1]
        # canonical letter c -> the state's c-th letter: its window, then the missing one
        relabel = bytes((0, *window, n * (n + 1) // 2 - sum(window))).ljust(256, b"\0")
        if letters.translate(relabel) != word[j * r:j * r + len(letters)]:
            raise ValueError(f"the decoding of h(x) for the block window x = u[{j}:{j + k}],"
                             f" relabelled by decoder state {j * r}, differs from the probe word")
        if has_repetition_exceeding(letters, n, n - 1, bound):
            return False
    return True


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
    scope = f"periods <= {bound}"
    # The bound holds only under its premise; without it, read every period.
    if p.runs and not (p.passes("markability_r") and p.passes("iteration_bound")):
        bound, scope = None, "all periods: markability_r or iteration_bound failed"
    occs = _kernel_runs(p.runs, p.h.n, bound)
    if occs:
        return False, f"{len(occs)} kernel repetitions ({scope}); first: {occs[0].describe()}"
    return True, f"no kernel repetitions in {p.h.r * len(p.blocks)} letters ({scope})"


def _check_big_excess(p: _Probe) -> tuple[bool, str]:
    n, v, occs = p.h.n, p.table.word, p.runs
    if occs:
        return False, f"{len(occs)} repetitions with excess >= {n - 1}; first: {occs[0].describe()}"
    return True, f"no repetition with excess >= {n - 1} in {len(v)} letters"


def _check_power(p: _Probe) -> tuple[bool, str]:
    n, v = p.h.n, p.table.word
    if _window_verdict(p):
        return True, f"no repetition above {n}/{n - 1} in {len(v)} letters"
    occs = _power_runs(v, n, p.runs, p.table.repeat)
    if not occs:
        raise ValueError("a block window holds a repetition above n/(n-1) that the probe word lacks")
    return False, f"{len(occs)} repetitions above {n}/{n - 1}; first: {occs[0].describe()}"


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
    probe.verdicts[name] = passed
    return CheckResult(name, passed, witness, int((time.perf_counter() - started) * 1000))


def run_check(name: str, source) -> CheckResult:
    """Run one check of the suite alone, with the verdict and witness that
    :func:`verify` reports under that name."""
    body = dict(_CHECKS).get(name)
    if body is None:
        raise ValueError(f"unknown check name {name!r}; expected one of {', '.join(CHECK_NAMES)}")
    return _run(name, body, _Probe(_as_morphism(source)))


def verify(source) -> VerificationReport:
    """Run the full check suite for a builtin alphabet size or a supplied
    morphism.  Every check runs; a failing one never short-circuits the rest.
    """
    probe = _Probe(_as_morphism(source))
    checks = tuple(_run(name, body, probe) for name, body in _CHECKS)
    return VerificationReport(probe.h.n, probe.h.r, checks)
