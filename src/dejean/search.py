"""Backtracking search over legal Pansiot encodings and rediscovery of
convenient morphisms.

A binary word of a given length is legal when its decoding over the
canonical prefix stays below the repetition threshold n/(n-1).  The search
appends one bit at a time; only repetitions ending at the fresh letter can
appear, and their run lengths per period are maintained sparsely, so a
violated prefix is pruned the moment it arises.  Candidate images are
filtered by the cycle type of their permutation image ((n-1,1) for h(0),
(n,) for h(1)), pooled, and paired through the simultaneous-conjugacy
condition; a pair is returned once the full verification suite passes.
"""

import sys
from typing import Callable, Iterable

from .markability import check_all_length_r_factors_markable
from .morphisms import (PrefixStabilityError, UniformMorphism, factor_closure,
                        iteration_bound)
from .perms import (_compose, _conjugators_onto_full_cycle, _cycle_type,
                    _inverse, _step_images, _word_images)
from .verifier import (compute_bounds, find_kernel_repetitions, probe_encoding,
                       probe_word, verify)
from .words import has_repetition_exceeding, has_repetition_with_excess_at_least


def _ensure_recursion_room(length: int) -> None:
    need = length + 200
    if sys.getrecursionlimit() < need:
        sys.setrecursionlimit(need)


def _walk(n: int, length: int, on_leaf, prefix: str = "", depth_counts=None) -> int:
    """Depth-first traversal of legal encodings of the given length.

    ``on_leaf(bits, sigma)`` receives the bit list and the raw permutation
    image of the word; returning False aborts the walk.  ``prefix`` replays
    fixed leading bits (the subtree is skipped when the prefix itself is
    illegal).  ``depth_counts[d]``, when given, accumulates the number of
    legal words of each length d <= length.  Returns leaves visited.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    _ensure_recursion_room(length)
    s0, s1 = _step_images(n)
    nm1 = n - 1
    w = list(range(1, n))
    pos: dict[int, list[int]] = {c: [c - 1] for c in range(1, n)}
    pos[n] = []
    bits: list[str] = []
    leaves = 0
    stop = False

    def extend(x: int, runs: dict) -> dict | None:
        # Run lengths only survive at periods matched by the fresh letter,
        # so the positions of that letter enumerate every live period.
        M = len(w)
        new_runs = {}
        for j in pos[x]:
            q = M - j
            run = runs.get(q, 0) + 1
            if run * nm1 > q:
                return None
            new_runs[q] = run
        return new_runs

    def dfs(d: int, missing: int, runs: dict, sig: tuple) -> None:
        nonlocal leaves, stop
        if d == length:
            leaves += 1
            if on_leaf is not None and on_leaf(bits, sig) is False:
                stop = True
            return
        M = len(w)
        oldest = w[M - nm1]
        for bit in ("0", "1"):
            x = oldest if bit == "0" else missing
            new_runs = extend(x, runs)
            if new_runs is None:
                continue
            if depth_counts is not None:
                depth_counts[d + 1] += 1
            w.append(x)
            pos[x].append(M)
            bits.append(bit)
            dfs(d + 1, missing if bit == "0" else oldest,
                new_runs, _compose(sig, s1 if bit == "1" else s0))
            bits.pop()
            pos[x].pop()
            w.pop()
            if stop:
                return

    identity = tuple(range(1, n + 1))
    if depth_counts is not None:
        depth_counts[0] += 1
    # Replay a fixed prefix, bailing out if it is itself illegal.
    sig = identity
    missing = n
    runs: dict = {}
    for d, bit in enumerate(prefix):
        M = len(w)
        oldest = w[M - nm1]
        x = oldest if bit == "0" else missing
        runs = extend(x, runs)
        if runs is None:
            return 0
        w.append(x)
        pos[x].append(M)
        bits.append(bit)
        missing = missing if bit == "0" else oldest
        sig = _compose(sig, s1 if bit == "1" else s0)
    dfs(len(prefix), missing, runs, sig)
    return leaves


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
    _walk(n, max_length, lambda bits, sig: None, depth_counts=counts)
    return counts


def _classify(sig: tuple, n: int) -> str:
    """"h0" for a permutation image of cycle type (n-1, 1), "h1" for an
    n-cycle, else "neither"."""
    ct = _cycle_type(sig)
    if ct == (n,):
        return "h1"
    if ct == (1, n - 1):
        return "h0"
    return "neither"


def classify_candidate(bits: str, n: int) -> str:
    """Candidate role of a binary word, by the cycle type of its
    permutation image: "h0", "h1" or "neither"."""
    return _classify(_word_images(bits, n), n)


def _compatible_h0_images(a1: tuple, n: int, s0: tuple, s1: tuple) -> list[tuple]:
    """Permutations a0 for which some single tau conjugates (a0, a1) onto
    (s0, s1): tau ranges over the n alignments of a1 onto s1."""
    out = []
    for tau in _conjugators_onto_full_cycle(a1, n):
        out.append(_compose(_compose(_inverse(tau), s0), tau))
    return out


def _compatible_h1_images(a0: tuple, n: int, s0: tuple, s1: tuple) -> list[tuple]:
    """Mirror image of :func:`_compatible_h0_images` for a new h0 candidate:
    tau must align a0's long cycle onto s0's and send its fixed point to n."""
    fixed = [i for i in range(1, n + 1) if a0[i - 1] == i]
    if len(fixed) != 1:
        return []
    fix = fixed[0]
    start = 1 if fix != 1 else 2
    cyc = [start]
    while True:
        nxt = a0[cyc[-1] - 1]
        if nxt == start:
            break
        cyc.append(nxt)
    if len(cyc) != n - 1:
        return []
    out = []
    for t in range(1, n):
        tau = [0] * n
        tau[fix - 1] = n
        for k, e in enumerate(cyc):
            tau[e - 1] = (t - 1 + k) % (n - 1) + 1
        tau = tuple(tau)
        out.append(_compose(_compose(_inverse(tau), s1), tau))
    return out


def _screen_pair(n: int, h0: str, h1: str) -> str | None:
    """Cheap fail-fast mirror of the verification suite, cheapest first.

    Returns the name of the first failing aspect or None when the pair is
    worth a full (no-short-circuit) verification run.  Only an accelerator:
    membership in the search results is decided by verify() alone.
    """
    r = len(h0)
    if h0[-1] == h1[-1] or "011" not in h0 or "110" not in h1 or r > 4 * n:
        return "structure"
    bounds = compute_bounds(n)
    if iteration_bound(bounds.kernel_bound, r) != 2:
        return "iteration_bound"
    h = UniformMorphism(n, h0, h1)
    try:
        if factor_closure(h, 2).members != {"01", "10", "11"}:
            return "factor_set_2"
    except PrefixStabilityError:
        return "factor_set_2"
    v = probe_word(h)
    if has_repetition_exceeding(v, n, n - 1):
        return "power_free"
    if has_repetition_with_excess_at_least(v, n - 1):
        return "big_excess_free"
    if not check_all_length_r_factors_markable(h).passed:
        return "markability_r"
    if find_kernel_repetitions(probe_encoding(h), n, bounds.kernel_bound):
        return "kernel_free"
    return None


class _Pairing:
    """Candidate pools keyed by permutation image, with conjugacy-compatible
    lookups, pairing each new candidate against earlier opposite candidates
    in discovery order."""

    def __init__(self, n: int):
        self.n = n
        self.s0, self.s1 = _step_images(n)
        self.h0_by_perm: dict[tuple, list[str]] = {}
        self.h1_by_perm: dict[tuple, list[str]] = {}
        self.seen: set[tuple[str, str]] = set()
        self.pairs_tried = 0

    def pool_sizes(self) -> tuple[int, int]:
        return (sum(len(v) for v in self.h0_by_perm.values()),
                sum(len(v) for v in self.h1_by_perm.values()))

    def add(self, bits: str, sig: tuple) -> Iterable[tuple[str, str]]:
        """Register a candidate; yield (h0, h1) pairs passing the conjugacy
        condition, oldest opposite candidate first."""
        n = self.n
        kind = _classify(sig, n)
        if kind == "neither":
            return
        if kind == "h1":
            for a0 in _compatible_h0_images(sig, n, self.s0, self.s1):
                for other in self.h0_by_perm.get(a0, ()):
                    yield self._fresh(other, bits)
            self.h1_by_perm.setdefault(sig, []).append(bits)
        else:
            for a1 in _compatible_h1_images(sig, n, self.s0, self.s1):
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


def _candidates_under_prefix(args: tuple[int, int, str]) -> list[tuple[str, tuple]]:
    """Worker payload: candidate (bits, sigma) pairs in the legal subtree
    under a fixed prefix, in lexicographic order."""
    n, length, prefix = args
    out: list[tuple[str, tuple]] = []

    def on_leaf(bits, sig):
        if _classify(sig, n) != "neither":
            out.append(("".join(bits), sig))

    _walk(n, length, on_leaf, prefix=prefix)
    return out


def search_convenient(n: int, length: int, limit: int = 1, *,
                      workers: int = 1,
                      seed_h0: Iterable[str] = (),
                      seed_h1: Iterable[str] = (),
                      progress: Callable[[str], object] | None = None) -> list[UniformMorphism]:
    """Search for up to ``limit`` morphisms that pass full verification.

    Candidates come from the legal-encoding enumeration (plus any seeds,
    which are paired first); each conjugacy-compatible pair is screened and
    then verified with the complete suite.  With ``workers`` > 1 the tree is
    split by fixed-length prefixes over worker processes; candidate streams
    are merged in lexicographic order, so exhaustive runs are reproducible
    in either mode.  Returns verified morphisms, sorted by image pair when
    the enumeration was exhausted (discovery order when cut off by limit).
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
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

    def drain(bits: str, sig: tuple) -> bool:
        for pair in pairing.add(bits, sig):
            if consider(pair):
                return True
        return False

    done = False
    for seed_bits in list(seed_h0) + list(seed_h1):
        if drain(seed_bits, _word_images(seed_bits, n)):
            done = True
            break

    if not done and workers <= 1:
        def on_leaf(bits, sig):
            state["leaves"] += 1
            if state["leaves"] % 200_000 == 0:
                p0, p1 = pairing.pool_sizes()
                note(f"{state['leaves']} words visited, pools h0={p0} h1={p1}, "
                     f"{pairing.pairs_tried} pairs tried")
            if drain("".join(bits), sig):
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
            if drain(bits, _word_images(bits, n)):
                return True
        return False
    ctx = multiprocessing.get_context()
    with ctx.Pool(processes=workers) as pool:
        jobs = ((n, length, p) for p in shards)
        done_shards = 0
        for shard_out in pool.imap(_candidates_under_prefix, jobs):
            for bits, sig in shard_out:
                if drain(bits, sig):
                    pool.terminate()
                    return True
            done_shards += 1
            note(f"shard {done_shards}/{len(shards)} merged")
    return False
