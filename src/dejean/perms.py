"""Permutations of {1..n} and the bit homomorphism into the symmetric group.

The two generators are the images of the codeword bits: bit 0 maps to the
(n-1)-cycle fixing n, bit 1 to the full n-cycle.  Composition is left
multiplication, (f * g)(i) = f(g(i)), and a word maps to the left-to-right
product of its letters' generators, so word_permutation(u + v) equals
word_permutation(u) * word_permutation(v).  This orientation is the one
under which the codeword of a window-distinct word starting 1 2 ... n-1
maps i to the i-th entry of (last n-1 letters, missing letter); the
property suite pins it.  ``PrefixPermutationTable`` rests on that identity:
it numbers the prefix permutations of a word by the windows of its
decoding and composes nothing.
"""

from array import array
from dataclasses import dataclass
from functools import lru_cache

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


def _cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    n = len(p)
    seen = [False] * (n + 1)
    lengths = []
    for i in range(1, n + 1):
        if not seen[i]:
            c = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j - 1]
                c += 1
            lengths.append(c)
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
    candidates = _conjugators_onto_full_cycle(a1.images, n)
    best = None
    for tau in candidates:
        if all(tau[a0.images[x - 1] - 1] == s0[tau[x - 1] - 1] for x in range(1, n + 1)):
            if best is None or tau < best:
                best = tau
    return None if best is None else Permutation(best)


def _conjugators_onto_full_cycle(a1: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """All t with t*a1*t^-1 = step1(n); empty unless a1 is an n-cycle."""
    cyc = [1]
    while True:
        nxt = a1[cyc[-1] - 1]
        if nxt == 1:
            break
        cyc.append(nxt)
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
    alone fixes the missing letter.  ``ids[k]`` numbers that window in order
    of first appearance, so equal ids mark equal prefix permutations and
    the factor bits[i:j] maps to the identity iff ids[i] == ids[j].
    """

    def __init__(self, bits: str, n: int):
        self.bits = check_binary(bits)
        self.n = n
        self.word = decode(bits, canonical_prefix(n))
        # Equal fixed-width slices of the packed letters are equal windows.
        packed = array("I", self.word.letters)
        buf, step, intern = packed.tobytes(), packed.itemsize, {}
        width = step * (n - 1)
        self.ids = [intern.setdefault(buf[k:k + width], len(intern))
                    for k in range(0, step * (len(bits) + 1), step)]
