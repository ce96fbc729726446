"""Permutations of {1..n} and the bit homomorphism into the symmetric group.

A permutation is ``bytes``, one byte a point: ``p[i-1]`` is the image of
point i, so n <= 255, as the decoder takes.  The two generators are the
images of the codeword bits: bit 0 maps to the (n-1)-cycle fixing n,
1 -> 2 -> ... -> n-1 -> 1, and bit 1 to the full n-cycle
1 -> 2 -> ... -> n -> 1.  Composition is left multiplication,
(f g)(i) = f(g(i)), and a word maps to the left-to-right product of its
letters' generators, so the image of u + v maps i to
word_permutation(u)[word_permutation(v)[i-1] - 1].  This orientation is
the one under which the codeword of a window-distinct word starting
1 2 ... n-1 maps i to the i-th entry of (last n-1 letters, missing
letter); the property suite pins it.  ``word_permutation`` and
``is_kernel_word`` read that state off the decoder one bit per step, and
``PrefixPermutationTable``, given the decoding of a word, groups its equal
prefix permutations into classes of equal windows of the decoding.  The
table hashes every key of the decoding once, into one dict, and compares
whole windows only where keys repeat; neither composes a generator.  The
decoding is ``bytes``, one byte a letter, so all three take n <= 255, as
the decoder does.

Simultaneous conjugacy onto the images of bits 0 and 1 is defined once, by
the splice lists of ``h0_splices`` and ``h1_splices``: ``find_conjugator``
and the search's pairing both read them.
"""

from bisect import bisect_left, bisect_right
from functools import lru_cache
from operator import sub

from .pansiot import decode_letters
from .words import _agreement


def _cycle_from(p: bytes, start: int) -> list[int]:
    """The cycle through start of p."""
    cyc = [start]
    point = p[start - 1]
    while point != start:
        cyc.append(point)
        point = p[point - 1]
    return cyc


def _cycle_type(p: bytes) -> tuple[int, ...]:
    """Sorted multiset of the cycle lengths of p; sums to the degree."""
    seen, lengths = set(), []
    for i in range(1, len(p) + 1):
        if i not in seen:
            cyc = _cycle_from(p, i)
            seen.update(cyc)
            lengths.append(len(cyc))
    return tuple(sorted(lengths))


def conjugate(t: bytes, a: bytes) -> bytes:
    """t a t^-1, which maps t(i) to t(a(i)): a with its points relabelled by t."""
    out = bytearray(len(t))
    for x, y in zip(t, a):
        out[x - 1] = t[y - 1]
    return bytes(out)


def word_permutation(bits: str, n: int) -> bytes:
    """Homomorphic image of a binary word.  By the module identity it is the
    decoder state the word leads to from ``canonical_prefix(n)``: the last
    n-1 letters of ``decode_letters``, then the missing letter.  The decoder
    reads it one bit per step; no generator is composed."""
    window = decode_letters(bits, n)[1 - n:]
    return window + bytes((n * (n + 1) // 2 - sum(window),))


def is_kernel_word(bits: str, n: int) -> bool:
    """True when the word maps to the identity."""
    return word_permutation(bits, n) == bytes(range(1, n + 1))


def find_conjugator(a0: bytes, a1: bytes, n: int) -> bytes | None:
    """A single t with t a0 t^-1 and t a1 t^-1 the images of bits 0 and 1,
    or None.

    Any such t must map the cycle of a1 onto the cycle of the image of 1,
    so it is one of the n alignments of :func:`h0_splices`, and alignment t
    satisfies the a0 equation exactly when its splice is a0.  The least
    such alignment is returned; its image of 1 is t + 1, so it is the
    lexicographically least conjugator.  A degree outside 2..255, or an
    argument that is not the ``bytes`` of a permutation of 1..n, raises
    ``ValueError``.
    """
    if n < 2:
        raise ValueError(f"degree must be >= 2, got {n}")
    if n > 255:  # one byte a point
        raise ValueError(f"alphabet size must be <= 255, got {n}")
    for name, a in (("a0", a0), ("a1", a1)):
        if len(a) != n:
            raise ValueError(f"{name} has {len(a)} points, not n = {n}")
        if type(a) is not bytes or sorted(a) != list(range(1, n + 1)):
            raise ValueError(f"{name} is not the bytes of a permutation of 1..{n}: {a!r}")
    cyc = _cycle_from(a1, 1)
    splices = h0_splices(a1) if len(cyc) == n else []
    if a0 not in splices:
        return None
    t = splices.index(a0)
    tau = bytearray(n)
    for k, x in enumerate(cyc):
        tau[x - 1] = (t + k) % n + 1
    return bytes(tau)


@lru_cache(maxsize=None)
def _swap_tables(n: int) -> list[list[bytes]]:
    """tables[u][v], for 1 <= u, v <= n: the ``bytes.translate`` table
    that exchanges the values u and v."""
    return [[bytes.maketrans(bytes((u, v)), bytes((v, u))) for v in range(n + 1)]
            for u in range(n + 1)]


def h0_splices(a1: bytes) -> list[bytes]:
    """Permutations a0 for which some single tau conjugates (a0, a1) onto
    the images of bits 0 and 1, for an n-cycle a1; each a0 has the type of
    a1.

    tau ranges over the n alignments of a1's cycle cyc from 1 onto the
    image of 1, alignment t being tau(cyc[k]) = (t + k) % n + 1; the list
    follows t from 0.  The image of 0 is the image of 1 with n cut out of
    its cycle, so each a0 is a1 with the point x = tau^-1(n) cut out: x
    becomes fixed and a1^-1(x) maps to a1(x).  In the image list that
    exchanges the values x and a1(x).
    """
    swaps = _swap_tables(len(a1))
    return [a1.translate(swaps[x][a1[x - 1]]) for x in reversed(_cycle_from(a1, 1))]


def h1_splices(a0: bytes) -> list[bytes]:
    """Mirror image of :func:`h0_splices` for a0 of cycle type (n-1, 1):
    tau aligns a0's long cycle onto that of the image of 0 and sends
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
