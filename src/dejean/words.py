"""Finite words, periods, and exact fractional repetition search.

Binary words are plain ``str`` over ``"01"``; words over a numbered alphabet
{1, ..., n} are :class:`SigmaWord` (any sequence of ints is also accepted by
the scanning functions).  Every exponent comparison in this module is an
integer cross-multiplication; no floating point is used anywhere.

All repetition scans (``max_exponent`` and the ``find_``/``has_`` forms for
an exponent threshold or a minimum excess) are calls into one generator of
maximal runs, ``_runs``, which takes the least excess a run of each period
must reach.  On long words it skips a period unless the bitmask of matching
positions holds a long enough run.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

# Words at least this long get the bitmask fast path in the period scans;
# on shorter words building the masks costs more than it saves.  Tests
# lower it to exercise both paths on the same inputs.
_MASK_MIN_LENGTH = 2048


@dataclass(frozen=True)
class SigmaWord:
    """Word over the alphabet {1, ..., n}.

    ``n`` is the alphabet size; ``letters`` holds values in 1..n.  The word
    is "window distinct" when every factor of length n-1 consists of n-1
    distinct letters, which is the precondition for Pansiot encoding.
    """

    n: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.n}")
        if self.letters and not 1 <= min(self.letters) <= max(self.letters) <= self.n:
            k, c = next((k, c) for k, c in enumerate(self.letters) if not 1 <= c <= self.n)
            raise ValueError(f"letter {c!r} at position {k} outside 1..{self.n}")

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return SigmaWord(self.n, self.letters[k])
        return self.letters[k]

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def window_violation(self) -> int | None:
        """Index of the first window of length n-1 holding a repeated letter.

        Returns None when the word is window distinct.
        """
        width = self.n - 1
        last = {}
        for k, c in enumerate(self.letters):
            prev = last.get(c)
            if prev is not None and k - prev < width:
                return max(0, k - width + 1)
            last[c] = k
        return None

    @property
    def is_window_distinct(self) -> bool:
        return self.window_violation() is None

    def text(self) -> str:
        """Serialize: plain digits for n <= 9, dot-separated decimals above."""
        if self.n <= 9:
            return "".join(str(c) for c in self.letters)
        return ".".join(str(c) for c in self.letters)

    @classmethod
    def from_text(cls, text: str, n: int) -> "SigmaWord":
        """Parse the :meth:`text` format; also accepts space separation."""
        text = text.strip()
        if not text:
            return cls(n, ())
        if "." in text or " " in text or "\t" in text:
            parts = text.replace(".", " ").split()
        else:
            parts = list(text)
        try:
            letters = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"malformed word {text!r}: {exc}") from None
        return cls(n, letters)


@dataclass(frozen=True)
class RepetitionOccurrence:
    """A factor w[start : start+length] carrying period ``period``.

    The exponent is the exact rational length/period.  The excess
    (length - period) is required to be positive unless the occurrence is
    explicitly flagged as an exact period boundary.
    """

    start: int
    period: int
    length: int
    exact_boundary: bool = False

    def __post_init__(self) -> None:
        if self.start < 0 or self.period < 1:
            raise ValueError(f"bad occurrence ({self.start}, {self.period}, {self.length})")
        if self.length <= self.period and not self.exact_boundary:
            raise ValueError(f"empty excess: length {self.length} <= period {self.period}")

    @property
    def end(self) -> int:
        return self.start + self.length

    @property
    def excess(self) -> int:
        return self.length - self.period

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.length, self.period)

    def describe(self) -> str:
        return f"start={self.start} period={self.period} length={self.length} exponent={self.exponent}"


def _symbols(w) -> Sequence:
    """Normalize a word argument to an indexable symbol sequence."""
    if isinstance(w, SigmaWord):
        return w.letters
    if isinstance(w, (str, tuple, list)):
        return w
    return tuple(w)


def has_period(w, i: int, j: int, q: int) -> bool:
    """True when w[k] == w[k+q] for every i <= k < j-q.

    Vacuously true when j - i <= q.  Raises on indices outside the word or
    a non-positive period.
    """
    sym = _symbols(w)
    if not 0 <= i <= j <= len(sym):
        raise IndexError(f"interval [{i}, {j}) outside word of length {len(sym)}")
    if q < 1:
        raise ValueError(f"period must be >= 1, got {q}")
    return all(sym[k] == sym[k + q] for k in range(i, j - q))


def maximal_extension(w, i: int, j: int, q: int) -> tuple[int, int]:
    """Largest interval [i', j') containing [i, j) that still has period q.

    The input interval must have period q.  Extension is rightward first,
    then leftward; a boundary position is absorbed whenever the periodicity
    constraint it introduces holds (or is vacuous).
    """
    sym = _symbols(w)
    if not has_period(sym, i, j, q):
        raise ValueError(f"interval [{i}, {j}) does not have period {q}")
    L = len(sym)
    while j < L:
        if j - q >= i and sym[j - q] != sym[j]:
            break
        j += 1
    while i > 0:
        if i - 1 + q < j and sym[i - 1] != sym[i - 1 + q]:
            break
        i -= 1
    return i, j


def _period_match_runs(sym: Sequence, q: int) -> Iterator[tuple[int, int]]:
    """Maximal intervals [i, j) of period q with j - i > q, left to right."""
    limit = len(sym) - q
    k = 0
    while k < limit:
        if sym[k] == sym[k + q]:
            start = k
            k += 1
            while k < limit and sym[k] == sym[k + q]:
                k += 1
            yield start, k + q
        else:
            k += 1


def _letter_masks(sym: Sequence) -> list[int]:
    """One bitmask per letter; bit k set iff sym[k] is that letter."""
    L = len(sym)
    size = (L + 7) // 8
    packed: dict = {}
    for k, c in enumerate(sym):
        ba = packed.get(c)
        if ba is None:
            ba = packed[c] = bytearray(size)
        ba[k >> 3] |= 1 << (k & 7)
    return [int.from_bytes(ba, "little") for ba in packed.values()]


def _match_mask(masks: list[int], q: int) -> int:
    """Bit k set iff positions k and k+q hold the same letter."""
    m = 0
    for pm in masks:
        m |= pm & (pm >> q)
    return m


def _has_run(mask: int, t: int) -> bool:
    """True when the mask contains t consecutive set bits."""
    s = 1
    while s < t and mask:
        shift = min(s, t - s)
        mask &= mask >> shift
        s += shift
    return mask != 0


def _runs(w, min_run: Callable[[int], int],
          max_period: int | None = None) -> Iterator[tuple[int, int, int]]:
    """Maximal period-q intervals [i, j) whose excess j - i - q reaches
    min_run(q), as (i, j, q) by increasing period, then left to right.

    ``min_run`` must not decrease with q, so the scan stops at the first
    period where even the whole word falls short.  It is read again after
    each yield, so a caller may raise it as results arrive.  Periods above
    ``max_period`` (when given) are not scanned.  Long words first test
    each period's match mask for a long enough run of matches.
    """
    sym = _symbols(w)
    L = len(sym)
    masks = _letter_masks(sym) if L >= _MASK_MIN_LENGTH else None
    last = L if max_period is None else min(L, max_period + 1)
    for q in range(1, last):
        need = min_run(q)
        if L - q < need:
            break
        if masks is not None and not _has_run(_match_mask(masks, q), need):
            continue
        for i, j in _period_match_runs(sym, q):
            if j - i - q >= need:
                yield i, j, q
                need = min_run(q)


def _exceeding(num: int, den: int) -> Callable[[int], int]:
    """Excess rule for exponents above num/den: den*length > num*period
    holds exactly when the excess is at least (num-den)*period//den + 1."""
    if den < 1 or num < den:
        raise ValueError(f"threshold {num}/{den} must be a rational >= 1")
    return lambda q: (num - den) * q // den + 1


def _at_least(min_excess: int) -> Callable[[int], int]:
    """Excess rule for a fixed minimum excess."""
    if min_excess < 1:
        raise ValueError(f"min_excess must be >= 1, got {min_excess}")
    return lambda q: min_excess


def _occurrences(runs: Iterator[tuple[int, int, int]]) -> list[RepetitionOccurrence]:
    """The runs as occurrences sorted by (start, period)."""
    out = [RepetitionOccurrence(i, q, j - i) for i, j, q in runs]
    out.sort(key=lambda occ: (occ.start, occ.period))
    return out


def max_exponent(w) -> tuple[Fraction, RepetitionOccurrence | None]:
    """Largest exact exponent length/period over factors with period < length.

    Returns the exponent with a witness occurrence attaining it (maximal, with
    the smallest period and then the smallest start among maxima).  A word in
    which no letter recurs at any distance has no such factor; the result is
    then (1, None).
    """
    sym = _symbols(w)
    if not sym:
        raise ValueError("empty word")
    best_num, best_den, best = 1, 1, None

    def beats_best(q: int) -> int:
        return (best_num - best_den) * q // best_den + 1

    for i, j, q in _runs(sym, beats_best):
        best_num, best_den, best = j - i, q, RepetitionOccurrence(i, q, j - i)
    return Fraction(best_num, best_den), best


def find_repetitions_exceeding(w, num: int, den: int,
                               max_period: int | None = None) -> list[RepetitionOccurrence]:
    """All maximal occurrences with exponent strictly above num/den.

    Occurrences are maximal period-q intervals, deduplicated by construction
    and sorted by (start, period).  The list is empty exactly when the word
    is (num/den)+-power free.  Comparison is den*length > num*period.
    ``max_period`` keeps only the periods up to it, and skips scanning the
    rest; without it every period is scanned.
    """
    return _occurrences(_runs(w, _exceeding(num, den), max_period))


def has_repetition_exceeding(w, num: int, den: int) -> bool:
    """Early-exit form of :func:`find_repetitions_exceeding` emptiness."""
    return next(_runs(w, _exceeding(num, den)), None) is not None


def find_repetitions_with_excess_at_least(w, min_excess: int) -> list[RepetitionOccurrence]:
    """All maximal occurrences whose excess (length - period) reaches min_excess."""
    return _occurrences(_runs(w, _at_least(min_excess)))


def has_repetition_with_excess_at_least(w, min_excess: int) -> bool:
    """Early-exit form of :func:`find_repetitions_with_excess_at_least` emptiness."""
    return next(_runs(w, _at_least(min_excess)), None) is not None


def check_binary(bits: str) -> str:
    """``bits`` itself once every symbol is 0 or 1; whitespace is a bad symbol."""
    if bits.count("0") + bits.count("1") != len(bits):
        k, ch = next((k, ch) for k, ch in enumerate(bits) if ch not in "01")
        raise ValueError(f"non-binary symbol {ch!r} at position {k}")
    return bits


def parse_binary(text: str) -> str:
    """Validate a binary word given as a string of 0s and 1s, ignoring
    surrounding whitespace."""
    return check_binary(text.strip())
