"""2-markability of binary factors relative to a uniform morphism.

An occurrence of v at position p inside the image h(u) sits at the phase
h(u)[b : p], where b is the last image-block boundary at or before p.  The
word v is 2-markable when all of its occurrences inside images of length-2
factors of the limit word share one phase word.  For factors of the image
length r this pins occurrences to block boundaries, which is what the
repetition bounds rely on.
"""

from dataclasses import dataclass

from .morphisms import FactorSet, UniformMorphism, factor_closure


@dataclass(frozen=True)
class PhaseConflict:
    """Two occurrences of the same factor with different phase words.
    Each side is (source word u, occurrence position, phase word)."""

    first: tuple[str, int, str]
    second: tuple[str, int, str]

    def describe(self) -> str:
        (u1, p1, x1), (u2, p2, x2) = self.first, self.second
        return (f"phase {x1!r} at position {p1} of image({u1}) vs "
                f"phase {x2!r} at position {p2} of image({u2})")


def _phase_conflicts(h: UniformMorphism, U: FactorSet, k: int) -> dict[str, PhaseConflict]:
    """Each length-k factor of the images h(u), u in U, that occurs at two
    phase words, with its first occurrence and the first later one, in
    (u, position) order, whose phase word differs.  One pass reads every
    position of each image."""
    r = h.r
    first: dict[str, tuple[str, int, str]] = {}
    conflicts: dict[str, PhaseConflict] = {}
    for u in U:
        image = h.apply(u)
        for p in range(len(image) - k + 1):
            v = image[p:p + k]
            occurrence = (u, p, image[p - p % r:p])
            seen = first.setdefault(v, occurrence)
            if seen[2] != occurrence[2] and v not in conflicts:
                conflicts[v] = PhaseConflict(seen, occurrence)
    return conflicts


@dataclass(frozen=True)
class MarkabilityReport:
    """Outcome of the batch check over every length-r factor of h(0110)."""

    factor_count: int
    failures: tuple[tuple[str, PhaseConflict], ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        if self.passed:
            return f"{self.factor_count} factors checked, all 2-markable"
        v, conflict = self.failures[0]
        return (f"{len(self.failures)} of {self.factor_count} factors not 2-markable; "
                f"first: {v} with {conflict.describe()}")


def check_all_length_r_factors_markable(h: UniformMorphism) -> MarkabilityReport:
    """2-markability of every length-r factor of h(0110).

    The images of 0110 cover the images of all length-2 factors of the limit
    word, so these are all length-r factors that occur at all.  Failures are
    listed in lexicographic factor order.
    """
    return _markability_report(h, factor_closure(h, 2))


def _markability_report(h: UniformMorphism, U: FactorSet) -> MarkabilityReport:
    """:func:`check_all_length_r_factors_markable` given U, the length-2
    factors of the limit word, which ``verify`` computes once."""
    r = h.r
    probe = h.apply("0110")
    factors = sorted({probe[i : i + r] for i in range(len(probe) - r + 1)})
    conflicts = _phase_conflicts(h, U, r)
    failures = tuple((v, conflicts[v]) for v in factors if v in conflicts)
    return MarkabilityReport(len(factors), failures)
