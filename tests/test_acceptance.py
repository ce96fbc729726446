"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria with a hard stated runtime are asserted against it; target-style
runtimes are printed for inspection.  All numeric comparisons are exact.
"""

import random
import time
from fractions import Fraction

from dejean.markability import check_all_length_r_factors_markable
from dejean.morphisms import BUILTIN_SIZES, builtin, factor_closure, iteration_bound
from dejean.pansiot import canonical_prefix, decode, encode
from dejean.perms import find_conjugator, word_permutation
from dejean.search import enumerate_legal, legal_length_counts, search_convenient
from dejean.verifier import compute_bounds, run_check, verify
from dejean.words import SigmaWord, find_repetitions_exceeding, max_exponent

from helpers import brute_has_period, conjugated, step0, step1


def report(number, name, passed, elapsed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:>2} {name}: {status} ({elapsed:.2f}s){suffix}")
    assert passed, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_01_structural_suite():
    started = time.perf_counter()
    ok = True
    for n in BUILTIN_SIZES:
        h = builtin(n)
        expected_r = 4 * n if n == 21 else 4 * n - 4
        ok &= len(h.image0) == len(h.image1) == expected_r
        ok &= h.image0[-1] != h.image1[-1]
        ok &= "011" in h.image0 and "110" in h.image1
    elapsed = time.perf_counter() - started
    report(1, "structural suite", ok and elapsed < 1.0, elapsed)


def test_criterion_02_algebraic_condition():
    started = time.perf_counter()
    ok = True
    for n in BUILTIN_SIZES:
        h = builtin(n)
        a0 = word_permutation(h.image0, n)
        a1 = word_permutation(h.image1, n)
        tau = find_conjugator(a0, a1, n)
        ok &= tau is not None
        if tau is not None:  # re-verified by the tests' tuple oracle
            ok &= conjugated(tuple(tau), tuple(a0)) == step0(n)
            ok &= conjugated(tuple(tau), tuple(a1)) == step1(n)
    elapsed = time.perf_counter() - started
    report(2, "algebraic condition", ok and elapsed < 1.0, elapsed)


def test_criterion_03_factor_universe():
    started = time.perf_counter()
    ok = all(factor_closure(builtin(n), 2).members == {"01", "10", "11"}
             for n in BUILTIN_SIZES)
    elapsed = time.perf_counter() - started
    report(3, "factor universe", ok and elapsed < 5.0, elapsed)


def test_criterion_04_markability():
    started = time.perf_counter()
    ok = all(check_all_length_r_factors_markable(builtin(n)).passed
             for n in BUILTIN_SIZES)
    elapsed = time.perf_counter() - started
    report(4, "markability", ok and elapsed < 120.0, elapsed)


def test_criterion_05_bounds():
    started = time.perf_counter()
    ok = True
    for n in BUILTIN_SIZES:
        h = builtin(n)
        bounds = compute_bounds(n)
        ok &= bounds.kernel_bound == 9 * n * n - 6 * n + 1
        ok &= bounds.short_bound == n * n - 3 * n + 1
        ok &= iteration_bound(bounds.kernel_bound, h.r) == 2
        ok &= bounds.short_bound < bounds.kernel_bound
    elapsed = time.perf_counter() - started
    report(5, "bound arithmetic", ok, elapsed)


def test_criterion_06_decisive_searches():
    started = time.perf_counter()
    ok = True
    for n in BUILTIN_SIZES:
        excess = run_check("big_excess_free", n)
        power = run_check("power_free", n)
        ok &= excess.passed and power.passed
    elapsed = time.perf_counter() - started
    report(6, "decisive searches", ok, elapsed, detail="target < 1800s")


def test_criterion_07_kernel_freeness():
    started = time.perf_counter()
    results = [run_check("kernel_free", n) for n in BUILTIN_SIZES]
    ok = all(res.passed and "periods <= " in res.witness for res in results)
    elapsed = time.perf_counter() - started
    report(7, "kernel freeness", ok and elapsed < 600.0, elapsed)


# The first pair of the n=15, r=56 walk that passes verify; not builtin(15).
REDISCOVERED_15 = ("10101010110110101011011010101101101010101011011010110110",
                   "10101011010110101011010110101101101011011011011010110101")


def test_criterion_08_search_rediscovery():
    started = time.perf_counter()
    lines = []
    found = search_convenient(15, 56, limit=1, progress=lines.append)
    ok = (len(found) == 1 and verify(found[0]).overall
          and (found[0].image0, found[0].image1) == REDISCOVERED_15
          and lines[-1] == "verified pair #1 after 63431 words, 327 pairs tried")
    elapsed = time.perf_counter() - started
    detail = f"target < 7200s; found h0={found[0].image0[:16]}..." if found else "none found"
    report(8, "search rediscovery", ok, elapsed, detail=detail)


def _oracle_max_exponent(w):
    """Independent oracle: extend every (start, period) pair directly by the
    period definition and keep the largest length/period ratio, compared by
    integer cross-multiplication as best_len/best_q."""
    L = len(w)
    best_len, best_q = 1, 1
    for i in range(L):
        for q in range(1, L - i):
            j = i + q
            while j < L and w[j] == w[j - q]:
                j += 1
            if (j - i) * best_q > best_len * q:
                best_len, best_q = j - i, q
    return Fraction(best_len, best_q)


def test_criterion_09_property_suites():
    started = time.perf_counter()
    rng = random.Random(20260808)

    # encode/decode round trip, 10^4 random window-distinct words per n
    for n in (3, 5, 15):
        for _ in range(10_000):
            prefix = SigmaWord(n, tuple(rng.sample(range(1, n + 1), n - 1)))
            bits = "".join(rng.choice("01") for _ in range(rng.randint(0, 40)))
            v = decode(bits, prefix)
            assert encode(v) == bits
            assert decode(encode(v), v[: n - 1]) == v

    # end-state equation, 10^3 random canonical words per n
    for n in (3, 5, 15):
        for _ in range(1_000):
            bits = "".join(rng.choice("01") for _ in range(rng.randint(0, 30)))
            v = decode(bits, canonical_prefix(n))
            m = len(v)
            window = v.letters[m - (n - 1):]
            missing = n * (n + 1) // 2 - sum(window)
            assert tuple(word_permutation(bits, n)) == window + (missing,)

    # max_exponent against the independent oracle on all binary words <= 16
    for length in range(1, 17):
        for code in range(1 << length):
            w = format(code, f"0{length}b")
            exp, witness = max_exponent(w)
            assert exp == _oracle_max_exponent(w), w
            if witness is not None:
                assert witness.exponent == exp
                assert brute_has_period(w, witness.start, witness.end, witness.period)

    # pruned enumeration equals the unpruned filter for n=15, lengths <= 14
    for length in range(1, 15):
        seen = []
        enumerate_legal(15, length, seen.append)
        expected = [format(code, f"0{length}b") for code in range(1 << length)
                    if not find_repetitions_exceeding(
                        decode(format(code, f"0{length}b"), canonical_prefix(15)), 15, 14)]
        assert seen == expected, length

    elapsed = time.perf_counter() - started
    report(9, "property suites", True, elapsed)


def test_criterion_10_growth_measurement():
    started = time.perf_counter()
    counts = legal_length_counts(15, 40)
    ratios = [counts[i + 1] / counts[i] for i in range(25, 40)]
    mean = sum(ratios) / len(ratios)
    in_band = 1.15 <= mean <= 1.35
    elapsed = time.perf_counter() - started
    status = "PASS" if in_band else "INFO (outside band)"
    print(f"ACCEPTANCE 10 growth measurement: {status} ({elapsed:.2f}s) "
          f"[mean per-step ratio {mean:.4f} over lengths 25..40]")
    # informational: the measurement is recorded but never gates the suite
    assert counts[40] > 0
