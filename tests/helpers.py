"""Brute-force oracles shared by the test modules.

Everything here recomputes results straight from the definitions with plain
loops, independently of the library's scanning strategies.
"""

import importlib.util
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import dejean.verifier
from dejean.markability import MarkabilityReport, PhaseConflict
from dejean.morphisms import PrefixStabilityError, factor_closure
from dejean.pansiot import decode_letters
from dejean.perms import Permutation, PrefixPermutationTable, step0, step1


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def wide(n):
    """The message, as a pattern, that rejects an alphabet of n > 255 letters."""
    return re.escape(f"alphabet size must be <= 255, got {n}")


def _load_perfbench(name):
    """``perfbench/<name>.py`` as a module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_perfbench_mutants():
    """The benchmark's mutant generator, ``perfbench/mutants.py``, as a module."""
    return _load_perfbench("mutants")


def load_tracer_sites():
    """The (calling module, attribute, span name, keep) sites that the
    benchmark's tracer, ``perfbench/tracer.py``, wraps."""
    return _load_perfbench("tracer").SITES


def brute_has_period(w, i, j, q):
    return all(w[k] == w[k + q] for k in range(i, j - q))


def brute_maximal_extension(w, i, j, q):
    """Grow [i, j) one position at a time while the period survives."""
    L = len(w)
    changed = True
    while changed:
        changed = False
        if j < L and brute_has_period(w, i, j + 1, q):
            j += 1
            changed = True
        elif i > 0 and brute_has_period(w, i - 1, j, q):
            i -= 1
            changed = True
    return i, j


def brute_repetition_triples(w):
    """Every (start, period, length) with length > period and that period.

    For each start i and period q, w[i:j] has period q exactly while
    w[k] == w[k - q] for every i + q <= k < j, so j grows one letter at a
    time and each step that holds gives one triple.  Listed by (i, q, j).
    """
    L = len(w)
    out = []
    for i in range(L):
        for q in range(1, L - i):
            j = i + q
            while j < L and w[j] == w[j - q]:
                j += 1
                out.append((i, q, j - i))
    return out


def brute_max_exponent(w, triples=None):
    """(exponent, witness or None) over all repetition triples; pass
    ``triples`` when brute_repetition_triples(w) is already at hand."""
    # The best exponent so far is best_len/best_q; compare by integer
    # cross-multiplication and build one Fraction at the end.
    best_len, best_q = 1, 1
    witness = None
    if triples is None:
        triples = brute_repetition_triples(w)
    for i, q, length in triples:
        if length * best_q > best_len * q:
            best_len, best_q = length, q
            witness = (i, q, length)
        elif witness is not None and length * best_q == best_len * q:
            # prefer the smallest period, then the smallest start
            if (q, i) < (witness[1], witness[0]):
                witness = (i, q, length)
    return Fraction(best_len, best_q), witness


def brute_find_exceeding(w, num, den, triples=None):
    """Maximal occurrences above num/den, deduplicated, sorted; ``triples``
    as in brute_max_exponent."""
    found = set()
    if triples is None:
        triples = brute_repetition_triples(w)
    for i, q, length in triples:
        if length * den > num * q:
            i2, j2 = brute_maximal_extension(w, i, i + length, q)
            found.add((i2, q, j2 - i2))
    return sorted(found)


def brute_find_excess(w, min_excess):
    found = set()
    for i, q, length in brute_repetition_triples(w):
        if length - q >= min_excess:
            i2, j2 = brute_maximal_extension(w, i, i + length, q)
            found.add((i2, q, j2 - i2))
    return sorted(found)


def prefix_permutations(bits, n):
    """The image of every prefix of ``bits``, each the image of the previous
    prefix times the generator of one more bit, ``step0`` or ``step1``: the
    composition oracle of the decoder-state classes and of
    ``word_permutation``.  It composes ``Permutation`` products and shares
    nothing with the decoder."""
    generators = {"0": step0(n), "1": step1(n)}
    p = Permutation(tuple(range(1, n + 1)))
    out = [p]
    for ch in bits:
        p = p * generators[ch]
        out.append(p)
    return out


def brute_word_permutation(bits, n):
    """The image of ``bits``: the last of :func:`prefix_permutations`."""
    return prefix_permutations(bits, n)[-1]


def brute_kernel_repetitions(bits, n):
    """Every maximal interval of ``bits`` with a period q and length > q
    whose period word maps to the identity, as (start, period, length)
    sorted.  For each q the intervals are the maximal stretches where
    bits[k] == bits[k + q]; the period word bits[i:i+q] maps to the
    identity exactly when the prefix permutations at i and i+q agree."""
    perms = prefix_permutations(bits, n)
    out = []
    L = len(bits)
    for q in range(1, L):
        k = 0
        while k < L - q:
            if bits[k] != bits[k + q]:
                k += 1
                continue
            i = k
            while k < L - q and bits[k] == bits[k + q]:
                k += 1
            if perms[i] == perms[i + q]:
                out.append((i, q, k + q - i))
    return sorted(out)


def brute_is_2markable(v, h, U):
    """Whether v is 2-markable relative to h and U, and its first phase
    conflict (``markability._phase_conflicts``) when not, by one
    ``str.find`` scan of each image h(u) for v, u in U's order: the first
    occurrence is compared with each later one, and the first whose phase
    word differs is the conflict."""
    r = h.r
    seen = None
    for u in U:
        image = h.apply(u)
        p = image.find(v)
        while p != -1:
            occurrence = (u, p, image[(p // r) * r:p])
            if seen is None:
                seen = occurrence
            elif occurrence[2] != seen[2]:
                return False, PhaseConflict(seen, occurrence)
            p = image.find(v, p + 1)
    return True, None


def brute_markability_report(h):
    """``markability.check_all_length_r_factors_markable`` with
    :func:`brute_is_2markable` called once per length-r factor of h(0110)."""
    r = h.r
    probe = h.apply("0110")
    factors = sorted({probe[i:i + r] for i in range(len(probe) - r + 1)})
    U = factor_closure(h, 2)
    failures = []
    for v in factors:
        ok, conflict = brute_is_2markable(v, h, U)
        if not ok:
            failures.append((v, conflict))
    return MarkabilityReport(len(factors), tuple(failures))


def limit_prefix(h, min_length):
    """A prefix, of length >= min_length, of a one-sided fixed point of h
    (or of h applied twice) seeded from a single letter, by plain iteration
    of whole images.  The scheme is the first among h from "0", h twice
    from "0", h from "1", h twice from "1" whose first iterate properly
    extends its seed letter; every later iterate must extend the one before
    it."""
    if min_length < 1:
        raise ValueError(f"min_length must be >= 1, got {min_length}")
    for seed, power in (("0", 1), ("0", 2), ("1", 1), ("1", 2)):
        def step(w):
            for _ in range(power):
                w = "".join(h.image1 if c == "1" else h.image0 for c in w)
            return w
        u = step(seed)
        if not u.startswith(seed) or len(u) <= len(seed):
            continue
        while len(u) < min_length:
            v = step(u)
            assert v.startswith(u) and len(v) > len(u), (seed, power, len(u))
            u = v
        return u
    raise PrefixStabilityError("no prefix-stable iteration from either letter")


def sliding_factors(s, k):
    """The length-k factors of ``s``, one window per position."""
    return {s[i:i + k] for i in range(len(s) - k + 1)}


def prefix_seeded_closure(h, k):
    """The least set that holds the k-factors of ``limit_prefix(h, max(k, r*r))``
    and the k-factors of h(u) for each u it holds: the fixed point that
    ``factor_closure`` computes for k <= 2, seeded from an r^2-letter limit
    prefix instead of one iterate."""
    members = sliding_factors(limit_prefix(h, max(k, h.r * h.r)), k)
    frontier = set(members)
    while frontier:
        found = set()
        for u in frontier:
            found |= sliding_factors(h.apply(u), k)
        frontier = found - members
        members |= frontier
    return members


def plain_decode(bits, n):
    """The letters of the decoding of ``bits`` from the prefix 1..n-1, one
    bit at a time from the definition: bit 0 repeats the letter n-1 places
    back, bit 1 writes the letter of 1..n missing from the last n-1.  It
    shares nothing with ``dejean.pansiot``."""
    letters = list(range(1, n))
    alphabet = set(range(1, n + 1))
    for ch in bits:
        if ch == "0":
            letters.append(letters[1 - n])
        else:
            (missing,) = alphabet - set(letters[1 - n:])
            letters.append(missing)
    return letters


def table_of(bits, n):
    """The ``PrefixPermutationTable`` of a binary word: the table of its
    decoding over ``canonical_prefix(n)``."""
    return PrefixPermutationTable(decode_letters(bits, n), n)


def classes_of(keys):
    """The positions of ``keys`` grouped by equal key, each group ascending,
    in the order of first occurrence, keeping the groups of two or more:
    the classes ``verifier._collision_runs`` reads."""
    groups: dict = {}
    for k, key in enumerate(keys):
        groups.setdefault(key, []).append(k)
    return [c for c in groups.values() if len(c) > 1]


def class_ids(classes, count):
    """An id for each of the positions 0..count-1 that ``classes`` label:
    the first position of its class, or the position itself when no class
    holds it.  For a table's classes that is the first position of an equal
    window, so equal ids mark equal decoder states."""
    ids = list(range(count))
    for c in classes:
        for k in c:
            ids[k] = c[0]
    return ids


def same_partition(a, b):
    """True when a[i] == a[j] exactly where b[i] == b[j], for all i, j."""
    return len(a) == len(b) and len(set(a)) == len(set(b)) == len(set(zip(a, b)))


def all_words(alphabet, length):
    for tup in product(alphabet, repeat=length):
        if isinstance(alphabet, str):
            yield "".join(tup)
        else:
            yield tup


def occ_triples(occurrences):
    return [(o.start, o.period, o.length) for o in occurrences]


def repeated_factor_starts(word, g):
    """Positions k whose factor word[k:k+g] occurs earlier in the word."""
    seen, repeats = set(), []
    for k in range(len(word) - g + 1):
        factor = tuple(word[k:k + g])
        if factor in seen:
            repeats.append(k)
        seen.add(factor)
    return repeats


def brute_longest_repeat(word, cap):
    """The length of the longest factor that occurs at two positions of
    ``word``, capped at ``cap``: the largest m <= cap for which two of its
    m-letter slices are equal (0 when none is)."""
    letters = tuple(word)
    m = 0
    while m < cap and len({letters[k:k + m + 1] for k in range(len(letters) - m)}) < len(letters) - m:
        m += 1
    return m


def repeat_case(table, n, g):
    """Asserts ``table.repeat`` against :func:`brute_longest_repeat` of its
    word, capped at n-1, for key width g: n-1 exactly when the brute length
    reaches n-1, the brute length when it is g or more, and otherwise g-1,
    which the brute length does not exceed.  Returns the case met:
    "window", "longest" or "keys"."""
    brute = brute_longest_repeat(table.word, n - 1)
    if brute >= n - 1:
        assert table.repeat == n - 1, (n, brute, table.repeat)
        return "window"
    if brute >= g:
        assert table.repeat == brute, (n, brute, table.repeat)
        return "longest"
    assert brute <= g - 1 == table.repeat, (n, brute, table.repeat)
    return "keys"


def spy_power_bounds(monkeypatch):
    """The ``max_period`` of each power scan the verifier makes, in order:
    the full scans of ``_power_runs`` and the early-exit scans of the block
    windows alike."""
    bounds = []

    def spying(scan):
        def spy(w, num, den, max_period=None):
            bounds.append(max_period)
            return scan(w, num, den, max_period)
        return spy

    for name in ("find_repetitions_exceeding", "has_repetition_exceeding"):
        monkeypatch.setattr(dejean.verifier, name, spying(getattr(dejean.verifier, name)))
    return bounds
