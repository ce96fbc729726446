"""Permutations of {1..n} and the bit homomorphism into the symmetric group.

The two generators are the images of the codeword bits: bit 0 maps to the
(n-1)-cycle fixing n, bit 1 to the full n-cycle.  Composition is left
multiplication, (f * g)(i) = f(g(i)), and a word maps to the left-to-right
product of its letters' generators, so word_permutation(u + v) equals
word_permutation(u) * word_permutation(v).  This orientation is the one
under which the codeword of a window-distinct word starting 1 2 ... n-1
maps i to the i-th entry of (last n-1 letters, missing letter); the
property suite pins it.  ``word_permutation`` and ``is_kernel_word`` read
that state off the decoder one bit per step, and ``PrefixPermutationTable``,
given the decoding of a word, groups its equal prefix permutations into
classes of equal windows of the decoding.  The table hashes every key of
the decoding once, into one dict, and compares whole windows only where
keys repeat; neither composes a generator.  The decoding is ``bytes``, one
byte a letter, so all three take n <= 255, as the decoder does.

Simultaneous conjugacy onto (step0, step1) is defined once, by the splice
lists of ``h0_splices`` and ``h1_splices``: ``find_conjugator`` and the
search's pairing both read them.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from operator import sub

from .pansiot import end_state
from .words import _agreement


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..n}; ``images[i-1]`` is the image of point i."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n == 0 or sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """(self * other)(i) = self(other(i))."""
        return Permutation(_compose(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation(_inverse(self.images))

    def cycle_type(self) -> tuple[int, ...]:
        """Sorted multiset of cycle lengths; sums to the degree."""
        return _cycle_type(self.images)

    def one_line(self) -> str:
        """Report form: the image sequence, e.g. ``(2 3 1)``."""
        return "(" + " ".join(str(v) for v in self.images) + ")"


def _compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(f[g[i] - 1] for i in range(len(f)))


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def _cycle_from(p, start: int) -> list[int]:
    """The cycle through start of p (images of 1..n, tuple or bytes)."""
    cyc = [start]
    point = p[start - 1]
    while point != start:
        cyc.append(point)
        point = p[point - 1]
    return cyc


def _cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    seen, lengths = set(), []
    for i in range(1, len(p) + 1):
        if i not in seen:
            cyc = _cycle_from(p, i)
            seen.update(cyc)
            lengths.append(len(cyc))
    return tuple(sorted(lengths))


@lru_cache(maxsize=None)
def _step_images(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if n < 2:
        raise ValueError(f"degree must be >= 2, got {n}")
    s0 = tuple(list(range(2, n)) + [1, n])
    s1 = tuple(list(range(2, n + 1)) + [1])
    return s0, s1


def step0(n: int) -> Permutation:
    """Image of bit 0: 1->2, ..., n-2 -> n-1, n-1 -> 1, and n fixed."""
    return Permutation(_step_images(n)[0])


def step1(n: int) -> Permutation:
    """Image of bit 1: the n-cycle 1 -> 2 -> ... -> n -> 1."""
    return Permutation(_step_images(n)[1])


def word_permutation(bits: str, n: int) -> Permutation:
    """Homomorphic image of a binary word.  By the module identity it is the
    decoder state the word leads to from 1 2 ... n-1, which
    :func:`pansiot.end_state` reads one bit per step; no generator is
    composed."""
    return Permutation(end_state(bits, n))


def is_kernel_word(bits: str, n: int) -> bool:
    """True when the word maps to the identity."""
    return end_state(bits, n) == tuple(range(1, n + 1))


def find_conjugator(a0: Permutation, a1: Permutation, n: int) -> Permutation | None:
    """A single t with t*a0*t^-1 = step0(n) and t*a1*t^-1 = step1(n), or None.

    Any such t must map the cycle of a1 onto the cycle of step1, so it is one
    of the n alignments of :func:`h0_splices`, and alignment t satisfies the
    a0 equation exactly when its splice is a0.  The least such alignment is
    returned; its image of 1 is t + 1, so it is the lexicographically least
    conjugator.
    """
    if a0.degree != n or a1.degree != n:
        raise ValueError("degree mismatch")
    if n < 2:
        raise ValueError(f"degree must be >= 2, got {n}")
    cyc = _cycle_from(a1.images, 1)
    splices = h0_splices(a1.images) if len(cyc) == n else []
    if a0.images not in splices:
        return None
    t = splices.index(a0.images)
    tau = [0] * n
    for k, x in enumerate(cyc):
        tau[x - 1] = (t + k) % n + 1
    return Permutation(tuple(tau))


@lru_cache(maxsize=None)
def _swap_tables(n: int) -> list[list[bytes]]:
    """tables[u][v], for 1 <= u, v <= n: the ``bytes.translate`` table
    that exchanges the values u and v."""
    return [[bytes.maketrans(bytes((u, v)), bytes((v, u))) for v in range(n + 1)]
            for u in range(n + 1)]


def h0_splices(a1):
    """Permutations a0 for which some single tau conjugates (a0, a1) onto
    (step0, step1), for an n-cycle a1 given as a pool key (``bytes``) or a
    tuple of images; each a0 has the type of a1.

    tau ranges over the n alignments of a1's cycle cyc from 1 onto step1's,
    alignment t being tau(cyc[k]) = (t + k) % n + 1; the list follows t
    from 0.  step0 is step1 with n cut out of its cycle, so each a0 is a1
    with the point x = tau^-1(n) cut out: x becomes fixed and a1^-1(x)
    maps to a1(x).  In the image list that exchanges the values x and a1(x).
    """
    cyc = reversed(_cycle_from(a1, 1))
    if isinstance(a1, bytes):
        swaps = _swap_tables(len(a1))
        return [a1.translate(swaps[x][a1[x - 1]]) for x in cyc]
    return [tuple(v if y == x else x if y == v else y for y in a1)
            for x in cyc for v in (a1[x - 1],)]


def h1_splices(a0: bytes) -> list[bytes]:
    """Mirror image of :func:`h0_splices` for a0 of cycle type (n-1, 1),
    given as ``bytes``: tau aligns a0's long cycle onto step0's and sends
    its fixed point to n, so each alignment inserts the fixed point f after
    one point y of the long cycle, which exchanges the values f and a0(y)."""
    cyc = _cycle_from(a0, 2 if a0[0] == 1 else 1)
    n = len(a0)
    fix = n * (n + 1) // 2 - sum(cyc)
    swaps = _swap_tables(n)[fix]
    return [a0.translate(swaps[a0[y - 1]]) for y in reversed(cyc)]


def _missing(present, total: int) -> list[int]:
    """The positions of range(total) that ``present`` (distinct, inside the
    range) lacks, in order.  Below the i-th smallest present position p
    (from 0) lie p - i missing ones; that count never falls and grows
    exactly across a gap, so one bisection over it finds each gap."""
    held = [-1, *sorted(present), total]
    behind = list(map(sub, held, range(-1, len(held) - 1)))
    missing, i = [], 0
    while (i := bisect_right(behind, behind[i])) < len(held):
        missing += range(held[i - 1] + 1, held[i])
    return missing


class PrefixPermutationTable:
    """Classes of equal decoder states of a binary word and the repeat fact
    of its decoding, read off the decoding.

    ``word``, the table's one input, is the decoding of some ``bits`` over
    ``canonical_prefix(n)`` as :func:`pansiot.decode_letters` gives it, of
    len(bits) + n-1 letters.  Its window word[k:k+n-1] is decoder state k:
    with the missing letter it is the image of the length-k prefix (the
    module identity), and the window alone fixes the missing letter.
    ``classes`` lists, each ascending, the positions 0..len(bits) of every
    window that occurs there twice or more, one list per window, so two
    states are equal iff they share a class, and the factor bits[i:j] maps
    to the identity iff i == j or i and j share one.

    ``repeat`` is n-1 when a window repeats, else the length of the longest
    factor of the decoding that occurs twice when that is g or more, else
    g-1.  So no factor longer than ``repeat`` < n-1 letters occurs twice,
    and ``repeat`` < n-1 exactly when ``classes`` is empty.

    Every g-letter factor of the decoding (g is the most of 1, 2, 4 or 8
    letters, one byte each, within n-1 letters), at each of its
    len(word)-g+1 positions, is keyed by the int of its bytes; the first
    len(bits)+1 keys start the windows.  One pass, lane by lane off
    ``memoryview`` casts, maps each key to one of its positions, so the
    keys all differ exactly when the dict holds every position, and then
    no class is built.  Otherwise each key still holds exactly one
    position, so the positions that no key holds (``_missing``) are
    exactly the other occurrences of repeated keys; each finds its held
    partner through its key.  Only windows at those starts are compared:
    the ones before len(bits)+1 are grouped by their windows into the
    classes, and when no class forms, the starts are sorted by their
    windows: the longest common prefix of any two lies between neighbours.
    """

    def __init__(self, word: bytes, n: int):
        self.word = word
        g = max(s for s in (1, 2, 4, 8) if s < n)
        width, count, total = n - 1, len(word) - n + 2, len(word) - g + 1
        # Lane s, the word shifted by s letters, holds the keys of positions
        # s, s+g, ...
        lanes = [memoryview(word)[s:s + len(range(s, total, g)) * g]
                 .cast({1: "B", 2: "H", 4: "I", 8: "Q"}[g]) for s in range(g)]
        last: dict[int, int] = {}
        for s, lane in enumerate(lanes):
            last.update(zip(lane, range(s, total, g)))
        self.classes: list[list[int]] = []
        self.repeat = g - 1
        if len(last) < total:
            # Each key holds one of its positions, so the positions missing
            # from the held ones are the other occurrences of repeated keys.
            others = _missing(last.values(), total)
            keys = [0] * total
            for s, lane in enumerate(lanes):
                keys[s::g] = lane.tolist()
            partners = set(map(last.__getitem__, map(keys.__getitem__, others)))
            starts = sorted([*others, *partners])
            del others, keys, last, partners  # before the windows and the sort below
            windows: dict[bytes, list[int]] = {}
            for k in starts[:bisect_left(starts, count)]:
                windows.setdefault(word[k:k + width], []).append(k)
            self.classes = [c for c in windows.values() if len(c) > 1]
            if self.classes:
                self.repeat = n - 1
            else:
                starts.sort(key=lambda k: word[k:k + width])
                self.repeat = max(_agreement(word, a, b, len(word) - max(a, b))
                                  for a, b in zip(starts, starts[1:]))
