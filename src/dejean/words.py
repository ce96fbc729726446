"""Finite words, periods, and exact fractional repetition search.

Binary words are plain ``str`` over ``"01"``; words over a numbered alphabet
{1, ..., n} are :class:`SigmaWord` (any sequence of ints, ``bytes`` too, is
also accepted by the scanning functions).  Every exponent comparison in this
module is an integer cross-multiplication; no floating point is used anywhere.

All repetition scans (``max_exponent`` and the ``find_``/``has_`` forms for
an exponent threshold or a minimum excess) are calls into one generator of
maximal runs, ``_runs``, which takes the least excess a run of each period
must reach.  It reads each period's runs off the bitmask of matching
positions, which is read off the word's bit planes (bit i of each
symbol's number), a few operations per plane, and a few more per run.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence


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

    def text(self) -> str:
        """Serialize: plain digits for n <= 9, dot-separated decimals above."""
        if self.n <= 9:
            return "".join(str(c) for c in self.letters)
        return ".".join(str(c) for c in self.letters)

    @classmethod
    def from_text(cls, text: str, n: int) -> "SigmaWord":
        """Parse the :meth:`text` format; also accepts space separation."""
        return cls(n, parse_symbols(text))


def parse_symbols(text: str, digits: bool = True) -> tuple[int, ...] | str:
    """The symbols of a word's text, stripped.  Dotted or spaced decimals
    ("1.2.13.4", "1 2 13 4") give one int per field; other text gives one
    int per character when ``digits``, else is returned as it is.  A field
    that is empty (a dot at either end of it) or not a run of ASCII digits
    (no sign, no "_") raises ValueError naming its index."""
    text = text.strip()
    if "." in text or " " in text or "\t" in text:
        fields = [f for chunk in text.split() for f in chunk.split(".")]
    elif digits:
        fields = list(text)
    else:
        return text
    for k, field in enumerate(fields):
        if not field:
            raise ValueError(f"empty field at index {k} in word {text!r}")
        if not (field.isascii() and field.isdigit()):
            raise ValueError(f"malformed field {field!r} at index {k} in word {text!r}")
        fields[k] = int(field)
    return tuple(fields)


@dataclass(frozen=True)
class RepetitionOccurrence:
    """A factor w[start : start+length] carrying period ``period``.

    The exponent is the exact rational length/period.  The excess
    (length - period) is required to be positive.
    """

    start: int
    period: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.period < 1:
            raise ValueError(f"bad occurrence ({self.start}, {self.period}, {self.length})")
        if self.length <= self.period:
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
    if isinstance(w, (str, bytes, tuple, list)):
        return w
    return tuple(w)


def _agreement(sym: Sequence, a: int, b: int, limit: int) -> int:
    """The largest m <= limit with sym[a+k] == sym[b+k] for 0 <= k < m.
    Slices of 1, 2, 4, ... letters are compared until one differs, then
    halved down to the first mismatch; the caller keeps every slice inside
    the word."""
    m, step = 0, 1
    while True:
        step = min(step, limit - m)
        if not step:
            return m
        if sym[a + m:a + m + step] != sym[b + m:b + m + step]:
            break
        m += step
        step *= 2
    # The next ``step`` letters hold a mismatch; keep halving them.
    while step > 1:
        half = step // 2
        if sym[a + m:a + m + half] == sym[b + m:b + m + half]:
            m += half
            step -= half
        else:
            step = half
    return m


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


# _PLANE_DIGITS[i] translates a code byte to "1" if its bit i is set, else "0".
_PLANE_DIGITS = [bytes(b"01"[c >> i & 1] for c in range(256)) for i in range(8)]


def _bit_planes(sym: Sequence) -> tuple[int, list[int]] | None:
    """(full, planes): the L low bits of ``full`` set, and bit k of planes[i]
    set iff bit i of the number of sym[k] is, the distinct symbols numbered
    from 0 (ceil(log2 k) planes for k of them, none for an empty word);
    None above 256 symbols.  A ``bytes`` word is renumbered by one ``translate``."""
    codes = {c: i for i, c in enumerate(dict.fromkeys(sym))}
    if len(codes) > 256:
        return None
    buf = (sym.translate(bytes.maketrans(bytes(codes), bytes(range(len(codes)))))
           if isinstance(sym, bytes) else bytes(map(codes.__getitem__, sym)))[::-1]
    planes = [int(buf.translate(_PLANE_DIGITS[i]), 2)
              for i in range(max(len(codes) - 1, 0).bit_length())]
    return (1 << len(sym)) - 1, planes


def _match_mask(full: int, planes: list[int], q: int) -> int:
    """Bit k set iff positions k and k+q hold the same letter: every plane
    agrees there."""
    diff = 0
    for p in planes:
        diff |= p ^ (p >> q)
    return (full >> q) & ~diff


def _long_matches(mask: int, t: int) -> int:
    """Bit k set iff bits k..k+t-1 of the mask are all set: the mask
    AND-shifted onto itself, by doubling shifts."""
    s = 1
    while s < t and mask:
        shift = min(s, t - s)
        mask &= mask >> shift
        s += shift
    return mask


def _mask_runs(mask: int, long: int, q: int) -> Iterator[tuple[int, int]]:
    """The maximal intervals [i, j) of period q with excess j - i - q >= t,
    left to right, read off the match mask of period q and its
    :func:`_long_matches` for t: a run of set bits [i, e) is the interval
    [i, e + q).  The bits of ``long`` that follow a clear bit of the mask
    start the long enough runs, and each run ends at the first clear bit
    past its start."""
    starts = long & ~(mask << 1)
    while starts:
        low = starts & -starts
        starts ^= low
        i = low.bit_length() - 1
        run = mask >> i
        yield i, i + (run ^ (run + 1)).bit_length() - 1 + q


def _runs(w, min_run: Callable[[int], int],
          max_period: int | None = None) -> Iterator[tuple[int, int, int]]:
    """Maximal period-q intervals [i, j) whose excess j - i - q reaches
    min_run(q), as (i, j, q) by increasing period, then left to right.

    ``min_run`` must not decrease with q, so the scan stops at the first
    period where even the whole word falls short.  It is read again after
    each yield, so a caller may raise it as results arrive.  Periods above
    ``max_period`` (when given) are not scanned.  A word of at most 256
    distinct symbols reads each period's runs off its match mask, from its
    bit planes (:func:`_mask_runs`), so a period costs a few operations on
    whole masks and a few more per run it yields; above 256 symbols the
    plain per-period scan, :func:`_period_match_runs`, runs alone.
    """
    sym = _symbols(w)
    L = len(sym)
    sliced = _bit_planes(sym)
    last = L if max_period is None else min(L, max_period + 1)
    for q in range(1, last):
        need = min_run(q)
        if L - q < need:
            break
        if sliced is None:
            runs = _period_match_runs(sym, q)
        else:
            mask = _match_mask(*sliced, q)
            long = _long_matches(mask, need)
            if not long:
                continue
            runs = _mask_runs(mask, long, q)
        for i, j in runs:
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
