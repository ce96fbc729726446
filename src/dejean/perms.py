"""Permutations of {1..n} and the bit homomorphism into the symmetric group.

The two generators are the images of the codeword bits: bit 0 maps to the
(n-1)-cycle fixing n, bit 1 to the full n-cycle.  Composition is left
multiplication, (f * g)(i) = f(g(i)), and a word maps to the left-to-right
product of its letters' generators, so word_permutation(u + v) equals
word_permutation(u) * word_permutation(v).  This orientation is the one
under which the codeword of a window-distinct word starting 1 2 ... n-1
maps i to the i-th entry of (last n-1 letters, missing letter); the
property suite pins it.  ``PrefixPermutationTable`` rests on that identity:
it names each prefix permutation of a word by the first position of an
equal window of its decoding, told apart by int keys read in bulk (whole
windows only where keys repeat), and composes nothing.
"""

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import eq, ne

from .pansiot import canonical_prefix, decode
from .words import check_binary


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


def _word_images(bits: str, n: int) -> tuple[int, ...]:
    s0, s1 = _step_images(n)
    p = tuple(range(1, n + 1))
    for ch in check_binary(bits):
        p = _compose(p, s1 if ch == "1" else s0)
    return p


def word_permutation(bits: str, n: int) -> Permutation:
    """Homomorphic image of a binary word."""
    return Permutation(_word_images(bits, n))


def is_kernel_word(bits: str, n: int) -> bool:
    """True when the word maps to the identity."""
    return _word_images(bits, n) == tuple(range(1, n + 1))


def find_conjugator(a0: Permutation, a1: Permutation, n: int) -> Permutation | None:
    """A single t with t*a0*t^-1 = step0(n) and t*a1*t^-1 = step1(n), or None.

    Any such t must map the cycle of a1 onto the cycle of step1, so only the
    n rotations of that alignment are candidates; each is filtered by the a0
    equation.  When several survive, the lexicographically least image
    sequence is returned.
    """
    if a0.degree != n or a1.degree != n:
        raise ValueError("degree mismatch")
    s0, _ = _step_images(n)
    best = min((tau for tau in _conjugators_onto_full_cycle(a1.images, n)
                if all(tau[a0.images[x - 1] - 1] == s0[tau[x - 1] - 1] for x in range(1, n + 1))),
               default=None)
    return None if best is None else Permutation(best)


def _conjugators_onto_full_cycle(a1: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """All t with t*a1*t^-1 = step1(n); empty unless a1 is an n-cycle."""
    cyc = _cycle_from(a1, 1)
    if len(cyc) != n:
        return []
    out = []
    for t in range(1, n + 1):
        tau = [0] * n
        for k, e in enumerate(cyc):
            tau[e - 1] = (t - 1 + k) % n + 1
        out.append(tuple(tau))
    return out


class PrefixPermutationTable:
    """Decoder-state ids of a binary word, read off its decoding.

    ``word`` is the decoding of ``bits`` over ``canonical_prefix(n)``.  Its
    window word[k:k+n-1] is decoder state k: with the missing letter it is
    the image of the length-k prefix (the module identity), and the window
    alone fixes the missing letter.  ``ids[k]`` is the first position of a
    window equal to window k, so equal ids mark equal prefix permutations
    and the factor bits[i:j] maps to the identity iff ids[i] == ids[j].
    ``distinct`` holds when ids[k] == k throughout.  Each window is keyed by
    the int of its first 1, 2, 4 or 8 bytes in the packed decoding.
    """

    def __init__(self, bits: str, n: int):
        self.bits = check_binary(bits)
        self.n = n
        self.word = decode(bits, canonical_prefix(n))
        packed = array("I", self.word.letters) if n > 255 else bytes(self.word.letters)
        buf, step = bytes(packed), memoryview(packed).itemsize
        width, count = step * (n - 1), len(bits) + 1
        size = max(s for s in (1, 2, 4, 8) if s <= width)
        # The view shifted by s bytes holds the keys of positions
        # s/step, (s+size)/step, ...
        keys, stride = [0] * count, size // step
        for s in range(0, size, step):
            lane = len(range(s // step, count, stride))
            view = memoryview(buf)[s:s + lane * size].cast({1: "B", 2: "H", 4: "I", 8: "Q"}[size])
            keys[s // step::stride] = view.tolist()
        self.ids = ids = list(range(count))
        self.distinct = len(set(keys)) == count
        if not self.distinct:
            # The first position of each key, then of each window among
            # those that share a key but differ past it.
            first = dict(zip(reversed(keys), reversed(ids)))
            self.ids = ids = list(map(first.__getitem__, keys))
            windows: dict[bytes, int] = {}
            for k in compress(range(count), map(ne, ids, range(count))):
                window = buf[k * step:k * step + width]
                if window != buf[ids[k] * step:ids[k] * step + width]:
                    ids[k] = windows.setdefault(window, k)
            self.distinct = all(map(eq, ids, range(count)))
