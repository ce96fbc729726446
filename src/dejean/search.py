"""Backtracking search over legal Pansiot encodings and rediscovery of
convenient morphisms.

A binary word is legal when its decoding over the canonical prefix stays
below the repetition threshold n/(n-1).  The walk is one loop over an
explicit stack, so no recursion limit bounds its depth.  It places each
letter into one preallocated decoding and each bit into one preallocated
code buffer of digits, tests legality inline, and never tests a 0 after a
0, which is always illegal.  At a leaf the search reads the permutation
image of the code word off the decoder state (the identity the ``perms``
docstring states), but only for a leaf that might be pooled: a 0-led leaf
is pooled only as an h(0) ending in 0 (the end-bit rule of
:class:`_Pairing`), so a 0...1 leaf, and a 0...0 leaf whose image has the
sign of an n-cycle, is dropped unread.  The image is classified by cycle
type, (n-1,1) for h(0) and (n,) for h(1).  Candidates are pooled packed,
each as the ``int`` of its r bits under its last bit and its permutation
image as ``bytes``, and paired through the simultaneous-conjugacy
condition by splicing cycles (:func:`perms.h0_splices`), against the
opposite pool when it is not empty; a pair is written out as two bit
strings only when it is screened.

The search walks the 1-led words first, then the 0-led ones, each part
in lexicographic order.  A 0-led leaf can only be an h(0) ending in 0 and
every h(1) is 1-led, so the 1-led part alone forms every pair whose h(0)
starts with 1, and most of the walk's leaves are 0-led (354,362 of the
first 417,793 at n = 15).  Each pair is still formed once, when its later
member arrives, so an exhaustive run forms the same pairs as one walk in
lexicographic order.  Once the 1-led part is over no h(1) can arrive, so
the pools that only an h(1) reads are dropped, and a 0-led h(0) pairs
against the h(1) ending in 1 without being pooled.

Each pair is screened by the suite's own ``structure``,
``iteration_bound`` and ``factor_set_2`` checks, then by a power scan of
the decoding of the probe encoding's first 4r bits, a prefix of the probe
word; a pair is returned once the full verification suite passes.
"""

from typing import Callable, Iterable

from .morphisms import UniformMorphism
from .pansiot import decode_letters
from .perms import h0_splices, h1_splices
from .verifier import run_check, verify
from .words import has_repetition_exceeding
# Not called here; perfbench/tracer.py wraps these names under this module,
# so they stay importable.
from .markability import check_all_length_r_factors_markable
from .morphisms import factor_closure
from .verifier import find_kernel_repetitions, probe_encoding, probe_word
from .words import has_repetition_with_excess_at_least


def _walk(n: int, length: int, on_leaf, depth_counts=None, *, first=None) -> int:
    """Depth-first traversal of legal encodings of the given length, in
    lexicographic order.

    ``on_leaf(code, w, end)`` receives the walk's own buffers: the code
    word as a ``bytearray`` of ASCII digits, and the decoding w, in which
    w[end - n:end] is the permutation image of the code word (its last
    n - 1 letters, then the missing letter).  Both are overwritten once the
    callback returns.  Returning False aborts the walk.
    ``depth_counts[d]``, when given, accumulates the number of legal words
    of each length d <= length.  ``first``, when given, restricts the walk
    to the words that start with that bit, and the empty word is not
    counted.  Returns leaves visited.

    After a 0 the walk tries only the 1 child: bits 00 are never legal.
    Only that illegal child goes untested, so the leaves and
    ``depth_counts`` are those of the full test.
    """
    if n < 2:
        raise ValueError(f"alphabet size must be >= 2, got {n}")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    nm1 = n - 1
    twice = 2 * nm1
    leaf = nm1 + length - 1  # where a letter completes a leaf
    w = list(range(1, n)) + [0] * (length + 1)
    code = bytearray(length)
    # after[a][x]: the positions j > 0 of letter x with letter a at j - 1.
    after = [[[a] if x == a + 1 and 0 < a < n - 1 else [] for x in range(n + 1)]
             for a in range(n + 1)]
    missing = n
    if depth_counts is not None and first is None:
        depth_counts[0] += 1
    # The root's 0 child is always legal (its run has exponent exactly
    # n/(n-1)).  A walk restricted to the first bit 0 ends after it: when it
    # backs out to M = nm1, or at once when that child is a leaf.
    stop = nm1 if first == 0 else -1

    # The path in w[nm1:M] is the whole stack, and code[d] is its bit d as a
    # digit: b is the next bit to try below it (2 when both are done), and M
    # is where its letter goes.
    leaves = 0
    M = nm1
    b = first or 0
    while True:
        if b == 2:
            if M == nm1:
                return leaves
            M -= 1
            x = w[M]
            after[w[M - 1]][x].pop()
            if x != w[M - nm1]:
                # A 1 placed the missing letter, never the one nm1 back;
                # backing out of it restores the missing letter.
                missing = x
                continue
            if M == stop:
                return leaves
            b = 1
        oldest = w[M - nm1]
        x = missing if b else oldest
        # Legality: x at position M must not end a repetition of exponent
        # above n/(n-1).  At period q = M - j, for an earlier occurrence j
        # of x, the shortest such run has L + 1 letters, with L = q // nm1,
        # so it exists exactly when the L letters before j and before M
        # agree.  Only a letter absent from the last nm1 - 1 positions is
        # placed, so L >= 1, and only the occurrences of x after the same
        # letter are looked at: for L = 1 that is the whole test.  Equal
        # letters are at least nm1 apart, so only the latest occurrence
        # can have q < 2 * nm1, that is L = 1.
        last = w[M - 1]
        js = after[last][x]
        if not js or js[-1] <= M - twice:
            for j in js:
                L = (M - j) // nm1
                if (L <= j and w[j - 2] == w[M - 2]
                        and (L == 2 or w[j - L:j - 2] == w[M - L:M - 2])):
                    break
            else:
                code[M - nm1] = 48 + b
                if depth_counts is not None:
                    depth_counts[M - nm1 + 1] += 1
                if M < leaf:
                    w[M] = x
                    js.append(M)
                    M += 1
                    if b:
                        missing = oldest
                    # A 0 copies the letter nm1 back.  Two in a row end a
                    # run of period nm1 and length n + 1, whose exponent
                    # (n+1)/(n-1) is above the threshold, so the test above
                    # would always reject the 0 child: after a 0, try only
                    # the 1.
                    b ^= 1
                    continue
                leaves += 1
                if on_leaf is not None:
                    w[M] = x
                    w[M + 1] = oldest if b else missing
                    if on_leaf(code, w, M + 2) is False:
                        return leaves
                if M == stop:  # length 1: the leaf is the root's 0 child
                    return leaves
        b += 1


def enumerate_legal(n: int, length: int, visitor: Callable[[str], object] | None = None) -> int:
    """Visit every legal encoding of the exact length in lexicographic order.

    The visitor receives the word as a string; returning False stops the
    enumeration early.  Returns the number of words visited.  Pruning is by
    the incremental suffix check, so a pruned prefix has no legal extension
    and every visited leaf decodes to a threshold-free word.
    """
    on_leaf = None if visitor is None else lambda code, w, end: visitor(code.decode())
    return _walk(n, length, on_leaf)


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
    head = decode_letters(h0[:4], n, (h0, h1))
    if has_repetition_exceeding(head, n, n - 1):
        return "power_free"
    return None


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
        self.h1_closed = False

    def pool_sizes(self) -> tuple[int, int]:
        """Pooled h0 and h1 candidates: every admitted one until
        :meth:`close_h1`, then the h1 ending in 1."""
        return tuple(sum(len(v) for pool in pools for v in pool.values())
                     for pools in (self.h0_by_perm, self.h1_by_perm))

    def close_h1(self) -> None:
        """No h1 arrives from now on (the search's 1-led pass is over): drop
        the pools only a later h1 could pair with, both h0 pools and the h1
        pool ending in 0, which no 0-led h0 reads, and pool no further h0.
        An h0 still pairs against the h1 pool ending in 1."""
        for pool in (*self.h0_by_perm, self.h1_by_perm[0]):
            pool.clear()
        self.h1_closed = True

    def add(self, value: int, key: bytes, kind: str) -> Iterable[tuple[str, str]]:
        """Register a candidate (the ``int`` of its bits, its permutation
        image as ``bytes``) of the given kind (:func:`_classify`; a
        "neither", and a candidate its end bits exclude, is ignored); yield
        (h0, h1) bit-string pairs passing the conjugacy condition and the
        end-bit rule, oldest opposite candidate first.  A candidate added
        twice pairs twice: the caller adds each value once."""
        first, last = value >> self.top, value & 1
        if kind == "h1" and first:
            if self.h1_closed:
                raise RuntimeError("an h1 added after close_h1() would miss its pairs")
            partners = self.h0_by_perm[1 - last]
            for a0 in h0_splices(key) if partners else ():
                for other in partners.get(a0, ()):
                    yield self._pair(other, value)
            pool = self.h1_by_perm[last]
            pool[key] = pool.get(key, ()) + (value,)
        elif kind == "h0" and (first or not last):
            partners = self.h1_by_perm[1 - last]
            for a1 in h1_splices(key) if partners else ():
                for other in partners.get(a1, ()):
                    yield self._pair(value, other)
            if not self.h1_closed:
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
    suite.  Leaves are pooled as they are walked, the 1-led ones first,
    then the 0-led ones, each part in lexicographic order, so runs are
    reproducible.  Returns verified morphisms, sorted by image pair when
    the enumeration was exhausted (discovery order when cut off by limit).
    Images longer than 4n fail ``structure``, so such a length returns []
    without a walk.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if n > 255:
        raise ValueError(f"alphabet size must be <= 255, got {n}: "
                         f"the pools key a permutation by one byte per point")
    if n >= 2 and length > 4 * n:
        return []  # `structure` fails every pair of images longer than 4n
    pairing = _Pairing(length)
    found: list[UniformMorphism] = []
    leaves = 0

    note = progress if progress is not None else (lambda msg: None)

    def on_leaf(code, w, end):
        nonlocal leaves
        leaves += 1
        if leaves % 200_000 == 0:
            p0, p1 = pairing.pool_sizes()
            note(f"{leaves} words visited, pools h0={p0} h1={p1}, "
                 f"{pairing.pairs_tried} pairs tried")
        # The end-bit rule (_Pairing) pools a 0-led leaf only as an h0 ending
        # in 0.  So a 0...1 leaf goes, and so does a 0...0 leaf of z zeros and
        # o ones unless its sign (-1)^(z(n-2) + o(n-1)) is an h0's, (-1)^n:
        # unless o + n(length + 1) is even.
        if code[0] == 48 and (code[-1] == 49 or (code.count(49) + n * (length + 1)) % 2):
            return None
        sig = w[end - n:end]
        kind = _classify(sig, n)
        if kind == "neither":
            return None
        for h0, h1 in pairing.add(int(code, 2), bytes(sig), kind):
            if _screen_pair(n, h0, h1) is not None:
                continue
            candidate = UniformMorphism(n, h0, h1)
            if verify(candidate).overall:
                found.append(candidate)
                note(f"verified pair #{len(found)} after {leaves} words, "
                     f"{pairing.pairs_tried} pairs tried")
                if len(found) >= limit:
                    return False
        return None

    _walk(n, length, on_leaf, first=1)
    if len(found) < limit:
        pairing.close_h1()  # every h1 is 1-led
        _walk(n, length, on_leaf, first=0)
    if len(found) < limit:
        # exhausted: no leaf reached the limit
        found.sort(key=lambda h: (h.image0, h.image1))
    return found
