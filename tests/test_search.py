import random
import sys
from itertools import permutations

import pytest

from dejean import search
from dejean.morphisms import UniformMorphism, _factors, builtin, limit_prefix
from dejean.pansiot import canonical_prefix, decode
from dejean.perms import (Permutation, find_conjugator, step0, step1,
                          word_permutation)
from dejean.search import (_candidates_under_prefix, _classify,
                           _compatible_h0_images, _compatible_h1_images,
                           _screen_pair, _shard_prefixes, _walk,
                           classify_candidate, enumerate_legal,
                           legal_length_counts, search_convenient)
from dejean.verifier import CHECK_NAMES, probe_encoding, probe_word, verify
from dejean.words import find_repetitions_exceeding, has_repetition_exceeding

from helpers import all_words


def brute_legal(n, length):
    """Filter of all binary words by decoding and scanning from scratch."""
    out = []
    for bits in all_words("01", length):
        v = decode(bits, canonical_prefix(n))
        if not find_repetitions_exceeding(v, n, n - 1):
            out.append(bits)
    return out


class TestEnumerateLegal:
    def test_nothing_prunable(self):
        assert enumerate_legal(100, 1) == 2

    def test_boundary_exponent_is_legal(self):
        # the single 0 bit decodes to exponent exactly n/(n-1): allowed
        seen = []
        enumerate_legal(15, 1, seen.append)
        assert seen == ["0", "1"]

    @pytest.mark.parametrize("length", range(1, 9))
    def test_matches_brute_filter_n15(self, length):
        seen = []
        count = enumerate_legal(15, length, seen.append)
        expected = brute_legal(15, length)
        assert seen == expected
        assert count == len(expected)

    @pytest.mark.parametrize("n", [3, 5])
    def test_matches_brute_filter_small_alphabets(self, n):
        for length in range(1, 7):
            seen = []
            enumerate_legal(n, length, seen.append)
            assert seen == brute_legal(n, length), (n, length)

    def test_lexicographic_order(self):
        seen = []
        enumerate_legal(15, 10, seen.append)
        assert seen == sorted(seen)

    def test_visitor_early_stop(self):
        seen = []

        def visitor(bits):
            seen.append(bits)
            if len(seen) == 5:
                return False
            return None

        count = enumerate_legal(15, 12, visitor)
        assert count == len(seen) == 5

    def test_leaves_recheck_from_scratch(self):
        # incremental legality along the path agrees with the full scan
        rng = random.Random(1)
        leaves = []
        enumerate_legal(15, 12, leaves.append)
        for bits in rng.sample(leaves, 40):
            v = decode(bits, canonical_prefix(15))
            assert find_repetitions_exceeding(v, 15, 14) == []

    def test_bad_length(self):
        with pytest.raises(ValueError):
            enumerate_legal(15, 0)

    def test_walk_deeper_than_recursion_limit(self):
        limit = sys.getrecursionlimit()
        seen = []
        count = enumerate_legal(15, 3 * limit, lambda bits: seen.append(bits) or False)
        assert count == 1
        assert len(seen) == 1 and len(seen[0]) == 3 * limit
        assert sys.getrecursionlimit() == limit


class TestLegalLengthCounts:
    def test_profile_matches_per_length_enumeration(self):
        counts = legal_length_counts(15, 9)
        assert counts[0] == 1
        for length in range(1, 10):
            assert counts[length] == enumerate_legal(15, length)

    def test_growth_sample(self):
        counts = legal_length_counts(15, 20)
        assert all(c > 0 for c in counts)
        assert counts[20] > counts[10]


def _leaves(n, length, prefix=""):
    out = []
    _walk(n, length, lambda bits, sig: out.append(("".join(bits), sig)), prefix=prefix)
    return out


def _random_cycle(rng, points):
    """Images of a single cycle through the given points, in random order."""
    order = list(points)
    rng.shuffle(order)
    return {a: b for a, b in zip(order, order[1:] + order[:1])}


def _random_full_cycle(rng, n):
    images = _random_cycle(rng, range(1, n + 1))
    return tuple(images[i] for i in range(1, n + 1))


def _random_h0_image(rng, n):
    fix = rng.randint(1, n)
    images = _random_cycle(rng, [i for i in range(1, n + 1) if i != fix])
    images[fix] = fix
    return tuple(images[i] for i in range(1, n + 1))


def _cycle_alignments(cyc, size, n, fixed=None):
    """The size alignments tau of the cycle cyc onto 1 -> 2 -> ... -> size,
    t = 1..size, sending cyc[k] to (t-1+k) mod size + 1 (and fixed to n)."""
    out = []
    for t in range(1, size + 1):
        images = {e: (t - 1 + k) % size + 1 for k, e in enumerate(cyc)}
        if fixed is not None:
            images[fixed] = n
        out.append(Permutation(tuple(images[i] for i in range(1, n + 1))))
    return out


def _cycle_through(p, start):
    cyc = [start]
    while p(cyc[-1]) != start:
        cyc.append(p(cyc[-1]))
    return cyc


class TestHotPathIdentities:
    """The search's shortcuts against the permutation algebra they replace."""

    @pytest.mark.parametrize("n,max_length", [(4, 12), (5, 12), (6, 12), (7, 12), (15, 14)])
    def test_leaf_sig_is_word_permutation(self, n, max_length):
        for length in range(1, max_length + 1):
            for bits, sig in _leaves(n, length):
                assert sig == word_permutation(bits, n).images, (n, bits)

    @pytest.mark.parametrize("n", [4, 7, 15])
    def test_leaf_sig_under_prefix(self, n):
        length = 12
        for prefix in _shard_prefixes(n, length, 4):
            leaves = _leaves(n, length, prefix)
            assert leaves and all(bits.startswith(prefix) for bits, _ in leaves)
            for bits, sig in leaves:
                assert sig == word_permutation(bits, n).images, (n, bits)

    @pytest.mark.parametrize("n,length", [(4, 10), (5, 10), (6, 10), (7, 10), (15, 12)])
    def test_prefix_walks_exactly_its_subtree(self, n, length):
        # every prefix of length <= 4, legal or not, against the unprefixed walk
        everything = _leaves(n, length)
        illegal_seen = False
        for k in range(5):
            for prefix in all_words("01", k):
                expected = [leaf for leaf in everything if leaf[0].startswith(prefix)]
                got = []
                count = _walk(n, length, lambda bits, sig: got.append(("".join(bits), sig)),
                              prefix=prefix)
                assert got == expected, (n, prefix)
                assert count == len(expected)
                if find_repetitions_exceeding(decode(prefix, canonical_prefix(n)), n, n - 1):
                    illegal_seen = True
                    assert count == 0, (n, prefix)
        assert illegal_seen

    def test_prefix_longer_than_length(self):
        with pytest.raises(ValueError):
            _walk(15, 3, None, prefix="0000")

    def test_prefix_as_long_as_length_is_one_leaf(self):
        for leaf in _leaves(15, 6):
            assert _leaves(15, 6, prefix=leaf[0]) == [leaf]

    @pytest.mark.parametrize("n", range(3, 27))
    def test_splice_lists_match_conjugation(self, n):
        rng = random.Random(n)
        s0, s1 = step0(n), step1(n)
        for _ in range(8):
            a1 = Permutation(_random_full_cycle(rng, n))
            expected = [tau.inverse() * s0 * tau
                        for tau in _cycle_alignments(_cycle_through(a1, 1), n, n)]
            got = _compatible_h0_images(a1.images, n)
            assert got == [p.images for p in expected]
            for a0 in got:
                assert find_conjugator(Permutation(a0), a1, n) is not None

            a0 = Permutation(_random_h0_image(rng, n))
            fixed = next(i for i in range(1, n + 1) if a0(i) == i)
            cyc = _cycle_through(a0, 2 if fixed == 1 else 1)
            expected = [tau.inverse() * s1 * tau
                        for tau in _cycle_alignments(cyc, n - 1, n, fixed)]
            got = _compatible_h1_images(a0.images, n)
            assert got == [p.images for p in expected]
            for a1 in got:
                assert find_conjugator(a0, Permutation(a1), n) is not None

    @staticmethod
    def _by_cycle_type(images, n):
        ct = Permutation(images).cycle_type()
        return "h1" if ct == (n,) else "h0" if ct == (1, n - 1) else "neither"

    @pytest.mark.parametrize("n", range(2, 8))
    def test_classify_matches_cycle_type_exhaustively(self, n):
        for images in permutations(range(1, n + 1)):
            assert _classify(images, n) == self._by_cycle_type(images, n), images

    @pytest.mark.parametrize("n", range(15, 27))
    def test_classify_matches_cycle_type_at_random(self, n):
        rng = random.Random(n)
        samples = [_random_full_cycle(rng, n), _random_h0_image(rng, n)]
        for _ in range(300):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            samples.append(tuple(images))
        for images in samples:
            assert _classify(images, n) == self._by_cycle_type(images, n), images

    def test_factors_match_sliding_window(self):
        rng = random.Random(7)
        words = [limit_prefix(builtin(n), 3000) for n in (15, 20, 26)]
        for length in (0, 1, 5, 40, 300, 2100, 4000):
            for p_one in (0.05, 0.5):
                words.append("".join("1" if rng.random() < p_one else "0"
                                     for _ in range(length)))
        for s in words:
            for k in range(1, 9):
                window = {s[i:i + k] for i in range(len(s) - k + 1)}
                assert _factors(s, k) == window, (len(s), k)


class TestClassifyCandidate:
    def test_builtin_images(self):
        h = builtin(15)
        assert classify_candidate(h.image1, 15) == "h1"
        assert classify_candidate(h.image0, 15) == "h0"

    def test_kernel_word_is_neither(self):
        assert classify_candidate("", 15) == "neither"
        assert classify_candidate("1" * 15, 15) == "neither"


class TestSearchConvenient:
    def test_too_short_space_is_empty(self):
        assert search_convenient(15, 3, limit=1) == []

    def test_seeded_with_builtin_returns_immediately(self):
        h = builtin(15)
        found = search_convenient(15, 56, limit=1,
                                  seed_h0=[h.image0], seed_h1=[h.image1])
        assert found == [h]
        assert verify(found[0]).overall

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            search_convenient(15, 8, limit=0)

    @pytest.mark.parametrize("image,pad", [(1, "1" * 15), (0, "0" * 14)], ids=["h1-71", "h0-70"])
    def test_seed_of_other_length_is_rejected_before_the_walk(self, monkeypatch, image, pad):
        # the padding maps to the identity, so only the length is wrong
        h = builtin(15)
        seeds = [h.image0, h.image1]
        seeds[image] += pad
        monkeypatch.setattr(search, "_walk", None)
        with pytest.raises(ValueError, match=f"seed '{seeds[image]}' has length "
                                             f"{56 + len(pad)}, expected 56"):
            search_convenient(15, 56, seed_h0=[seeds[0]], seed_h1=[seeds[1]])

    def test_results_verify(self):
        # tiny synthetic space: no convenient morphism exists at this length,
        # and the search must terminate cleanly
        assert search_convenient(5, 6, limit=2) == []


def _mutant(rng, word):
    """word with one seeded bit flip or swap of two adjacent bits."""
    k = rng.randrange(len(word) - 1)
    if rng.random() < 0.5:
        return word[:k] + ("1" if word[k] == "0" else "0") + word[k + 1:]
    return word[:k] + word[k + 1] + word[k] + word[k + 2:]


def _screen_sample():
    """(n, h0, h1): builtins 15 and 16 and 20 seeded mutants of either
    image at each n."""
    for n in (15, 16):
        h = builtin(n)
        rng = random.Random(n)
        pairs = {(h.image0, h.image1)}
        while len(pairs) < 21:
            if rng.random() < 0.5:
                pairs.add((_mutant(rng, h.image0), h.image1))
            else:
                pairs.add((h.image0, _mutant(rng, h.image1)))
        for h0, h1 in sorted(pairs):
            yield n, h0, h1


class TestScreen:
    CHEAP = ("structure", "iteration_bound", "factor_set_2")

    def test_screen_rejects_only_by_failing_checks(self, monkeypatch):
        scanned = []

        def recording(w, num, den):
            scanned.append(w)
            return has_repetition_exceeding(w, num, den)

        monkeypatch.setattr(search, "has_repetition_exceeding", recording)
        prefix_rejections = 0
        for n, h0, h1 in _screen_sample():
            candidate = UniformMorphism(n, h0, h1)
            report = verify(candidate)
            failing = {c.name for c in report.checks if not c.passed}
            scanned.clear()
            why = _screen_pair(n, h0, h1)
            # The power scans see prefixes of the probe word only.
            word = probe_word(candidate).letters
            for w in scanned:
                assert word[:len(w)] == w.letters, (n, h0, h1)
            if report.overall:
                assert why is None, (n, h0, h1)
            if why is not None:
                assert why in CHECK_NAMES and why in failing, (n, h0, h1, why)
            # Pairs that reach the probe-prefix stage and fail it.
            if failing & set(self.CHEAP):
                continue
            head = decode(probe_encoding(candidate)[:4 * len(h0)], canonical_prefix(n))
            if has_repetition_exceeding(head, n, n - 1):
                prefix_rejections += 1
                assert why == "power_free" and "power_free" in failing, (n, h0, h1)
        assert prefix_rejections >= 1

    def test_screen_scans_no_more_than_the_probe_prefix(self, monkeypatch):
        # every word scanned is at most the decoding of 4r probe bits
        scanned = []

        def recording(scan):
            def recorded(w, *args):
                scanned.append(len(w))
                return scan(w, *args)
            return recorded

        for name in ("has_repetition_exceeding", "has_repetition_with_excess_at_least"):
            monkeypatch.setattr(search, name, recording(getattr(search, name)))
        for n, h0, h1 in _screen_sample():
            scanned.clear()
            _screen_pair(n, h0, h1)
            assert all(size <= 4 * len(h0) + n - 1 for size in scanned), (n, h0, h1, scanned)
            if (h0, h1) == (builtin(n).image0, builtin(n).image1):
                assert scanned, n

    def test_cheap_rejection_names_the_first_failing_cheap_check(self):
        rejected = 0
        for n, h0, h1 in _screen_sample():
            report = verify(UniformMorphism(n, h0, h1))
            cheap = [name for name in self.CHEAP if not report.check(name).passed]
            if cheap:
                rejected += 1
                assert _screen_pair(n, h0, h1) == cheap[0], (n, h0, h1, cheap)
        assert rejected >= 1

    def test_structure_rejection_comes_first(self):
        # the sample has no `structure` failure: make the last letters agree
        h = builtin(15)
        h1 = h.image1[:-1] + h.image0[-1]
        assert not verify(UniformMorphism(15, h.image0, h1)).check("structure").passed
        assert _screen_pair(15, h.image0, h1) == "structure"


class TestWorkers:
    def test_parallel_matches_serial_on_exhausted_space(self):
        serial = search_convenient(15, 10, limit=3)
        parallel = search_convenient(15, 10, limit=3, workers=2)
        assert serial == parallel == []

    def test_parallel_shallow_space_is_walked_in_process(self):
        # length 3 is no deeper than the shard prefixes: no pool is started
        assert search_convenient(15, 3, limit=1, workers=2) == []

    @pytest.mark.parametrize("depth", [2, 3])
    def test_shards_concatenate_to_serial_candidates(self, depth):
        # length 18: the shortest even length above 12 with candidates at n=15
        n, length = 15, 18
        serial = [(bits, sig, _classify(sig, n)) for bits, sig in _leaves(n, length)
                  if _classify(sig, n) != "neither"]
        sharded = []
        for prefix in _shard_prefixes(n, length, depth):
            sharded.extend(_candidates_under_prefix((n, length, prefix)))
        assert serial and sharded == serial

    @pytest.mark.parametrize("workers", [0, -3])
    def test_bad_workers(self, workers):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            search_convenient(15, 8, limit=1, workers=workers)

    def test_parallel_seeded(self):
        h = builtin(15)
        found = search_convenient(15, 56, limit=1, workers=2,
                                  seed_h0=[h.image0], seed_h1=[h.image1])
        assert found == [h]
