"""Backtracking search over legal Pansiot encodings and rediscovery of
convenient morphisms.

A binary word is legal when its decoding over the canonical prefix stays
below the repetition threshold n/(n-1).  The walk is one loop over an
explicit stack, so no recursion limit bounds its depth; it tests legality
inline as each letter is placed and replays a fixed prefix as forced bits.
At a leaf, the permutation image of the code word is read off the decoder
state (the identity the ``perms`` docstring states) and classified by
cycle type, (n-1,1) for h(0) and (n,) for h(1), before any string is
built.  Candidates are pooled and paired through the simultaneous-
conjugacy condition by splicing cycles (:func:`_compatible_h0_images`).
Each pair is screened by the suite's own ``structure``,
``iteration_bound`` and ``factor_set_2`` checks, then by a power scan of
the decoding of the probe encoding's first 4r bits, a prefix of the probe
word; a pair is returned once the full verification suite passes.
"""

from typing import Callable, Iterable

from .morphisms import UniformMorphism
from .pansiot import canonical_prefix, decode
from .perms import word_permutation
from .verifier import run_check, verify
from .words import has_repetition_exceeding
# Not called here; perfbench/tracer.py wraps these names under this module,
# so they stay importable.
from .markability import check_all_length_r_factors_markable
from .morphisms import factor_closure
from .verifier import find_kernel_repetitions, probe_encoding, probe_word
from .words import has_repetition_with_excess_at_least


def _walk(n: int, length: int, on_leaf, prefix: str = "", depth_counts=None) -> int:
    """Depth-first traversal of legal encodings of the given length.

    ``on_leaf(bits, sigma)`` receives the bit list and the permutation
    image of the word; returning False aborts the walk.  ``prefix`` fixes
    the leading bits: below its length only the prefix's bit is tried, so
    an illegal prefix visits nothing.  ``depth_counts[d]``, when given,
    accumulates the number of legal words of each length d <= length that
    extend the prefix or are prefixes of it.  Returns leaves visited.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if len(prefix) > length:
        raise ValueError(f"prefix of length {len(prefix)} is longer than {length}")
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
    # backing out of a 1 restores the missing letter it consumed.  Below
    # the prefix's length, that is while M < fence, only the prefix's bit
    # is tried, and the walk ends when it backs out to such a position.
    forced = [int(bit) for bit in prefix]
    base = len(forced)
    fence = nm1 + base
    leaves = 0
    M = nm1
    b = forced[0] if base else 0
    while True:
        if b == 2:
            if M <= fence:
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
                b = forced[d] if d < base else 0
                continue
            leaves += 1
            if on_leaf is not None:
                bits.append("1" if b else "0")
                sig = tuple(w[M - nm1 + 1:]) + (x, oldest if b else missing)
                stop = on_leaf(bits, sig) is False
                bits.pop()
                if stop:
                    return leaves
        b = b + 1 if M >= fence else 2


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
    counts = [0] * (max_length + 1)
    _walk(n, max_length, None, depth_counts=counts)
    return counts


def _cycle_from(p: tuple, start: int) -> list[int]:
    """The cycle of p through start, read from start."""
    cyc = [start]
    point = p[start - 1]
    while point != start:
        cyc.append(point)
        point = p[point - 1]
    return cyc


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


def _compatible_h0_images(a1: tuple, n: int) -> list[tuple]:
    """Permutations a0 for which some single tau conjugates (a0, a1) onto
    (step0, step1), for an n-cycle a1.

    tau ranges over the n alignments of a1's cycle onto step1's.  step0 is
    step1 with n cut out of its cycle, so each a0 is a1 with the point
    x = tau^-1(n) cut out: x becomes fixed and a1^-1(x) maps to a1(x).
    The list follows the alignments in the order of
    ``perms.find_conjugator``.
    """
    cyc = _cycle_from(a1, 1)
    out = []
    for k in range(n - 1, -1, -1):
        x = cyc[k]
        img = list(a1)
        img[cyc[k - 1] - 1] = a1[x - 1]
        img[x - 1] = x
        out.append(tuple(img))
    return out


def _compatible_h1_images(a0: tuple, n: int) -> list[tuple]:
    """Mirror image of :func:`_compatible_h0_images` for a0 of cycle type
    (n-1, 1): tau aligns a0's long cycle onto step0's and sends its fixed
    point to n, so each alignment inserts the fixed point after one point
    of the long cycle."""
    cyc = _cycle_from(a0, 2 if a0[0] == 1 else 1)
    fix = n * (n + 1) // 2 - sum(cyc)
    out = []
    for y in reversed(cyc):
        img = list(a0)
        img[fix - 1] = a0[y - 1]
        img[y - 1] = fix
        out.append(tuple(img))
    return out


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
    head = decode(h.apply(h0[:4]), canonical_prefix(n))
    if has_repetition_exceeding(head, n, n - 1):
        return "power_free"
    return None


class _Pairing:
    """Candidate pools keyed by permutation image, with conjugacy-compatible
    lookups, pairing each new candidate against earlier opposite candidates
    in discovery order."""

    def __init__(self, n: int):
        self.n = n
        self.h0_by_perm: dict[tuple, list[str]] = {}
        self.h1_by_perm: dict[tuple, list[str]] = {}
        self.seen: set[tuple[str, str]] = set()
        self.pairs_tried = 0

    def pool_sizes(self) -> tuple[int, int]:
        return (sum(len(v) for v in self.h0_by_perm.values()),
                sum(len(v) for v in self.h1_by_perm.values()))

    def add(self, bits: str, sig: tuple, kind: str) -> Iterable[tuple[str, str]]:
        """Register a candidate of the given kind (:func:`_classify`; a
        "neither" is ignored); yield (h0, h1) pairs passing the conjugacy
        condition, oldest opposite candidate first."""
        n = self.n
        if kind == "h1":
            for a0 in _compatible_h0_images(sig, n):
                for other in self.h0_by_perm.get(a0, ()):
                    yield self._fresh(other, bits)
            self.h1_by_perm.setdefault(sig, []).append(bits)
        elif kind == "h0":
            for a1 in _compatible_h1_images(sig, n):
                for other in self.h1_by_perm.get(a1, ()):
                    yield self._fresh(bits, other)
            self.h0_by_perm.setdefault(sig, []).append(bits)

    def _fresh(self, h0: str, h1: str) -> tuple[str, str] | None:
        self.pairs_tried += 1
        key = (h0, h1)
        if key in self.seen:
            return None
        self.seen.add(key)
        return key


def _candidates_under_prefix(args: tuple[int, int, str]) -> list[tuple[str, tuple, str]]:
    """Worker payload: candidate (bits, sigma, kind) triples in the legal
    subtree under a fixed prefix, in lexicographic order; kind is
    :func:`_classify` of sigma, "h0" or "h1"."""
    n, length, prefix = args
    out: list[tuple[str, tuple, str]] = []

    def on_leaf(bits, sig):
        kind = _classify(sig, n)
        if kind != "neither":
            out.append(("".join(bits), sig, kind))

    _walk(n, length, on_leaf, prefix=prefix)
    return out


def search_convenient(n: int, length: int, limit: int = 1, *,
                      workers: int = 1,
                      seed_h0: Iterable[str] = (),
                      seed_h1: Iterable[str] = (),
                      progress: Callable[[str], object] | None = None) -> list[UniformMorphism]:
    """Search for up to ``limit`` morphisms that pass full verification.

    Candidates come from the legal-encoding enumeration (plus any seeds,
    each of the given length, which are paired first); each conjugacy-
    compatible pair is screened and then verified with the complete
    suite.  With ``workers`` > 1 the tree is split by fixed-length
    prefixes over worker processes; candidate streams are merged in
    lexicographic order, so exhaustive runs are reproducible in either
    mode.  Returns verified morphisms, sorted by image pair when
    the enumeration was exhausted (discovery order when cut off by limit).
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    seeds = list(seed_h0) + list(seed_h1)
    for seed_bits in seeds:
        if len(seed_bits) != length:
            raise ValueError(f"seed {seed_bits!r} has length {len(seed_bits)}, expected {length}")
    pairing = _Pairing(n)
    found: list[UniformMorphism] = []
    state = {"leaves": 0, "exhausted": False}

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    def consider(pair: tuple[str, str] | None) -> bool:
        """Screen and verify one pair; True once the limit is reached."""
        if pair is None:
            return False
        h0, h1 = pair
        why = _screen_pair(n, h0, h1)
        if why is not None:
            return False
        candidate = UniformMorphism(n, h0, h1)
        report = verify(candidate)
        if report.overall:
            found.append(candidate)
            seen = f"after {state['leaves']} words, " if state["leaves"] else ""
            note(f"verified pair #{len(found)} {seen}{pairing.pairs_tried} pairs tried")
            return len(found) >= limit
        return False

    def drain(bits: str, sig: tuple, kind: str) -> bool:
        for pair in pairing.add(bits, sig, kind):
            if consider(pair):
                return True
        return False

    done = False
    for seed_bits in seeds:
        sig = word_permutation(seed_bits, n).images
        if drain(seed_bits, sig, _classify(sig, n)):
            done = True
            break

    if not done and workers == 1:
        def on_leaf(bits, sig):
            state["leaves"] += 1
            if state["leaves"] % 200_000 == 0:
                p0, p1 = pairing.pool_sizes()
                note(f"{state['leaves']} words visited, pools h0={p0} h1={p1}, "
                     f"{pairing.pairs_tried} pairs tried")
            kind = _classify(sig, n)
            if kind != "neither" and drain("".join(bits), sig, kind):
                return False
            return None

        visited = _walk(n, length, on_leaf)
        state["exhausted"] = len(found) < limit
        state["leaves"] = visited
    elif not done:
        done_parallel = _search_parallel(n, length, workers, drain, note, state)
        state["exhausted"] = not done_parallel

    if state["exhausted"]:
        found.sort(key=lambda h: (h.image0, h.image1))
    return found[:limit]


def _shard_prefixes(n: int, length: int, depth: int) -> list[str]:
    shards: list[str] = []
    _walk(n, min(depth, length), lambda bits, sig: shards.append("".join(bits)))
    return shards


def _search_parallel(n: int, length: int, workers: int, drain, note, state) -> bool:
    """Prefix-sharded traversal over worker processes; pairing and
    verification stay in this process.  True when the limit was reached."""
    import multiprocessing

    depth = 1
    while 2 ** depth < 4 * workers and depth < length:
        depth += 1
    shards = _shard_prefixes(n, length, depth)
    if depth >= length:
        for bits in shards:
            state["leaves"] += 1
            sig = word_permutation(bits, n).images
            if drain(bits, sig, _classify(sig, n)):
                return True
        return False
    ctx = multiprocessing.get_context()
    with ctx.Pool(processes=workers) as pool:
        jobs = ((n, length, p) for p in shards)
        done_shards = 0
        for shard_out in pool.imap(_candidates_under_prefix, jobs):
            for bits, sig, kind in shard_out:
                if drain(bits, sig, kind):
                    pool.terminate()
                    return True
            done_shards += 1
            note(f"shard {done_shards}/{len(shards)} merged")
    return False
