"""Backtracking search over legal Pansiot encodings and rediscovery of
convenient morphisms.

A binary word is legal when its decoding over the canonical prefix stays
below the repetition threshold n/(n-1).  The walk is one loop over an
explicit stack, so no recursion limit bounds its depth; it tests legality
inline as each letter is placed, and never tests a 0 after a 0, which is
always illegal.
At a leaf, the permutation image of the code word is read off the decoder
state (the identity the ``perms`` docstring states) and classified by
cycle type, (n-1,1) for h(0) and (n,) for h(1), before any string is
built.  Only candidates that the end-bit rule (:class:`_Pairing`) admits
are pooled; a 0...1 leaf is dropped before it is classified.  Candidates
are pooled packed, each as the ``int`` of its r bits under its last bit
and its permutation image as ``bytes``, and paired through the
simultaneous-conjugacy condition by splicing cycles
(:func:`perms.h0_splices`); a pair is written out as two bit strings
only when it is screened.  Each pair is screened by the suite's own
``structure``, ``iteration_bound`` and ``factor_set_2`` checks, then by a
power scan of the decoding of the probe encoding's first 4r bits, a prefix
of the probe word; a pair is returned once the full verification suite
passes.
"""

from typing import Callable, Iterable

from .morphisms import UniformMorphism
from .pansiot import decode_letters
from .perms import h0_splices, h1_splices, word_permutation
from .verifier import run_check, verify
from .words import has_repetition_exceeding
# Not called here; perfbench/tracer.py wraps these names under this module,
# so they stay importable.
from .markability import check_all_length_r_factors_markable
from .morphisms import factor_closure
from .verifier import find_kernel_repetitions, probe_encoding, probe_word
from .words import has_repetition_with_excess_at_least


def _walk(n: int, length: int, on_leaf, depth_counts=None) -> int:
    """Depth-first traversal of legal encodings of the given length.

    ``on_leaf(bits, sigma)`` receives the bit list and the permutation
    image of the word; returning False aborts the walk.  ``depth_counts[d]``,
    when given, accumulates the number of legal words of each length
    d <= length.  Returns leaves visited.

    After a 0 the walk tries only the 1 child: bits 00 are never legal.
    Only that illegal child goes untested, so the leaves and
    ``depth_counts`` are those of the full test.
    """
    if n < 2:
        raise ValueError(f"alphabet size must be >= 2, got {n}")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    nm1 = n - 1
    w = list(range(1, n))
    # after[a][x]: the positions j > 0 of letter x with letter a at j - 1.
    after = [[[a] if x == a + 1 and 0 < a < n - 1 else [] for x in range(n + 1)]
             for a in range(n + 1)]
    bits: list[str] = []
    missing = n
    if depth_counts is not None:
        depth_counts[0] += 1

    # The path in bits is the whole stack: b is the next bit to try below
    # it (2 when both are done), M = len(w) is where its letter goes, and
    # backing out of a 1 restores the missing letter it consumed.
    leaves = 0
    M = nm1
    b = 0
    while True:
        if b == 2:
            if M == nm1:
                return leaves
            M -= 1
            x = w.pop()
            after[w[M - 1]][x].pop()
            if bits.pop() == "1":
                missing = x
                continue
            b = 1
        oldest = w[M - nm1]
        x = missing if b else oldest
        # Legality: x at position M must not end a repetition of exponent
        # above n/(n-1).  At period q = M - j, for an earlier occurrence j
        # of x, the shortest such run has L + 1 letters, with L = q // nm1,
        # so it exists exactly when the L letters before j and before M
        # agree.  Only a letter absent from the last nm1 - 1 positions is
        # placed, so L >= 1 and the letters before j and M are compared
        # first, by looking only at the occurrences of x after the same letter.
        last = w[M - 1]
        for j in after[last][x]:
            L = (M - j) // nm1
            if L <= j and w[j - L:j] == w[M - L:M]:
                break
        else:
            d = M - nm1 + 1
            if depth_counts is not None:
                depth_counts[d] += 1
            if d < length:
                w.append(x)
                after[last][x].append(M)
                M += 1
                bits.append("1" if b else "0")
                if b:
                    missing = oldest
                    b = 0
                else:
                    # A 0 copies the letter nm1 back.  Two in a row end a
                    # run of period nm1 and length n + 1, whose exponent
                    # (n+1)/(n-1) is above the threshold, so the test above
                    # would always reject the 0 child: try only the 1.
                    b = 1
                continue
            leaves += 1
            if on_leaf is not None:
                bits.append("1" if b else "0")
                sig = tuple(w[M - nm1 + 1:]) + (x, oldest if b else missing)
                stop = on_leaf(bits, sig) is False
                bits.pop()
                if stop:
                    return leaves
        b += 1


def enumerate_legal(n: int, length: int, visitor: Callable[[str], object] | None = None) -> int:
    """Visit every legal encoding of the exact length in lexicographic order.

    The visitor receives the word as a string; returning False stops the
    enumeration early.  Returns the number of words visited.  Pruning is by
    the incremental suffix check, so a pruned prefix has no legal extension
    and every visited leaf decodes to a threshold-free word.
    """
    if visitor is None:
        return _walk(n, length, None)
    return _walk(n, length, lambda bits, sig: visitor("".join(bits)))


def legal_length_counts(n: int, max_length: int) -> list[int]:
    """counts[d] = number of legal encodings of length exactly d, for
    0 <= d <= max_length, measured in a single traversal (legality is
    closed under prefixes)."""
    if max_length < 0:
        raise ValueError(f"max_length must be >= 0, got {max_length}")
    counts = [0] * (max(max_length, 1) + 1)
    _walk(n, len(counts) - 1, None, depth_counts=counts)
    return counts[:max_length + 1]


def _classify(sig: tuple, n: int) -> str:
    """"h0" for a permutation image of cycle type (n-1, 1), "h1" for an
    n-cycle, else "neither".

    Only one cycle is followed: the one through 1, or through 2 when 1 is
    fixed.  A cycle of n-1 points leaves one point, which must be fixed.
    """
    start = 2 if sig[0] == 1 else 1
    length = 1
    point = sig[start - 1]
    while point != start:
        length += 1
        point = sig[point - 1]
    if length == n:
        return "h1"
    if length == n - 1:
        return "h0"
    return "neither"


def classify_candidate(bits: str, n: int) -> str:
    """Candidate role of a binary word, by the cycle type of its
    permutation image: "h0", "h1" or "neither"."""
    return _classify(word_permutation(bits, n).images, n)


def _screen_pair(n: int, h0: str, h1: str) -> str | None:
    """The first of the suite's cheap checks the pair fails, else
    "power_free" when the decoding of h(h0[:4]) has a repetition above
    n/(n-1), else None.  h(h0[:4]) is a prefix of the probe encoding
    h(h(0110)), so its decoding is a prefix of the probe word.  Only an
    accelerator: :func:`verify` alone decides what the search returns."""
    h = UniformMorphism(n, h0, h1)
    for name in ("structure", "iteration_bound", "factor_set_2"):
        if not run_check(name, h).passed:
            return name
    head = decode_letters(h.apply(h0[:4]), n)
    if has_repetition_exceeding(head, n, n - 1):
        return "power_free"
    return None


def _packed(bits, sig) -> tuple[int, bytes]:
    """A candidate as the pools hold it (:class:`_Pairing`): the ``int`` of
    its bits (a list of "0"/"1") and its permutation image as
    ``bytes``."""
    return int("".join(bits), 2), bytes(sig)


class _Pairing:
    """Candidate pools keyed by last bit and permutation image, with
    conjugacy-compatible lookups, pairing each new candidate against earlier
    opposite candidates in discovery order.

    End bits.  A pair can pass ``structure`` and ``factor_set_2`` only if
    h1[0] = 1, h0[-1] != h1[-1], and h0[0] = 1 when h1[-1] = 0: the last
    letters differ (``structure``), and none of h0[-1]h1[0], h1[-1]h0[0]
    and h1[-1]h1[0], which the limit word's factors 01, 10 and 11 put
    across image boundaries, may be 00 (``factor_set_2``).  So an h1 is
    admitted only when it starts with 1, an h0 unless it is 0...1, and a
    candidate is paired only against the opposite pool of the other last
    bit.  The pairs are those of the unfiltered pairing, in the same order,
    less pairs that fail either check; the screen still runs both checks.

    The pools are packed: a candidate is the ``int`` of its r bits, a key
    is the permutation image as ``bytes`` (one byte per point), and each
    key holds a tuple of candidates in discovery order.  Most keys hold
    one candidate, so a tuple grown by concatenation costs less than a
    list's spare room.  A pair is written out as two r-bit strings only
    when it is yielded.
    """

    def __init__(self, r: int):
        self.fmt = f"0{r}b"
        self.top = r - 1  # value >> top is a candidate's first bit
        # one pool per last bit
        self.h0_by_perm: tuple[dict[bytes, tuple[int, ...]], ...] = ({}, {})
        self.h1_by_perm: tuple[dict[bytes, tuple[int, ...]], ...] = ({}, {})
        self.pairs_tried = 0

    def pool_sizes(self) -> tuple[int, int]:
        """Admitted h0 and h1 candidates."""
        return tuple(sum(len(v) for pool in pools for v in pool.values())
                     for pools in (self.h0_by_perm, self.h1_by_perm))

    def add(self, value: int, key: bytes, kind: str) -> Iterable[tuple[str, str]]:
        """Register a candidate (the ``int`` of its bits, its permutation
        image as ``bytes``) of the given kind (:func:`_classify`; a
        "neither", and a candidate its end bits exclude, is ignored); yield
        (h0, h1) bit-string pairs passing the conjugacy condition and the
        end-bit rule, oldest opposite candidate first.  A candidate added
        twice pairs twice: the caller adds each value once."""
        first, last = value >> self.top, value & 1
        if kind == "h1" and first:
            partners = self.h0_by_perm[1 - last]
            for a0 in h0_splices(key):
                for other in partners.get(a0, ()):
                    yield self._pair(other, value)
            pool = self.h1_by_perm[last]
            pool[key] = pool.get(key, ()) + (value,)
        elif kind == "h0" and (first or not last):
            partners = self.h1_by_perm[1 - last]
            for a1 in h1_splices(key):
                for other in partners.get(a1, ()):
                    yield self._pair(value, other)
            pool = self.h0_by_perm[last]
            pool[key] = pool.get(key, ()) + (value,)

    def _pair(self, h0: int, h1: int) -> tuple[str, str]:
        self.pairs_tried += 1
        return format(h0, self.fmt), format(h1, self.fmt)


def search_convenient(n: int, length: int, limit: int = 1, *,
                      progress: Callable[[str], object] | None = None) -> list[UniformMorphism]:
    """Search for up to ``limit`` morphisms that pass full verification.

    Candidates come from the legal-encoding enumeration; each conjugacy-
    compatible pair is screened and then verified with the complete
    suite.  Leaves are paired in lexicographic order, so runs are
    reproducible.  Returns verified morphisms, sorted by image pair when
    the enumeration was exhausted (discovery order when cut off by limit).
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if n > 255:
        raise ValueError(f"alphabet size must be <= 255, got {n}: "
                         f"the pools key a permutation by one byte per point")
    pairing = _Pairing(length)
    found: list[UniformMorphism] = []
    leaves = 0

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    def consider(pair: tuple[str, str]) -> bool:
        """Screen and verify one pair; True once the limit is reached."""
        h0, h1 = pair
        why = _screen_pair(n, h0, h1)
        if why is not None:
            return False
        candidate = UniformMorphism(n, h0, h1)
        report = verify(candidate)
        if report.overall:
            found.append(candidate)
            note(f"verified pair #{len(found)} after {leaves} words, {pairing.pairs_tried} pairs tried")
            return len(found) >= limit
        return False

    def on_leaf(bits, sig):
        nonlocal leaves
        leaves += 1
        if leaves % 200_000 == 0:
            p0, p1 = pairing.pool_sizes()
            note(f"{leaves} words visited, pools h0={p0} h1={p1}, "
                 f"{pairing.pairs_tried} pairs tried")
        if bits[0] == "0" and bits[-1] == "1":
            return None  # the end-bit rule (_Pairing) admits no 0...1
        kind = _classify(sig, n)
        if kind != "neither":
            for pair in pairing.add(*_packed(bits, sig), kind):
                if consider(pair):
                    return False
        return None

    _walk(n, length, on_leaf)
    if len(found) < limit:
        # exhausted: no leaf reached the limit
        found.sort(key=lambda h: (h.image0, h.image1))
    return found
