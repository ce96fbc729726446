import random
import re
from fractions import Fraction

import pytest

from dejean import words
from dejean.words import (RepetitionOccurrence, SigmaWord,
                          find_repetitions_exceeding,
                          find_repetitions_with_excess_at_least,
                          has_repetition_exceeding,
                          has_repetition_with_excess_at_least, max_exponent)

from helpers import (all_words, brute_find_exceeding, brute_find_excess,
                     brute_has_period, brute_max_exponent, brute_repetition_triples,
                     occ_triples)


class TestSigmaWord:
    def test_valid_letters(self):
        w = SigmaWord(3, (1, 2, 1, 3))
        assert len(w) == 4
        assert w[2] == 1
        assert list(w) == [1, 2, 1, 3]

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            SigmaWord(3, (1, 4))
        with pytest.raises(ValueError):
            SigmaWord(3, (0,))

    def test_letter_out_of_range_message_names_first_bad_position(self):
        for letters, message in [((1, 2, 4, 0), "letter 4 at position 2 outside 1..3"),
                                 ((2, 0, 5), "letter 0 at position 1 outside 1..3")]:
            with pytest.raises(ValueError, match=re.escape(message)):
                SigmaWord(3, letters)
        assert SigmaWord(3, ()).letters == ()

    def test_window_distinct(self):
        assert SigmaWord(3, (1, 2, 1, 3)).window_violation() is None
        assert SigmaWord(3, (1, 2, 2)).window_violation() == 1
        assert SigmaWord(4, (1, 2, 1)).window_violation() == 0

    def test_text_round_trip_small_alphabet(self):
        w = SigmaWord(3, (1, 2, 1, 3))
        assert w.text() == "1213"
        assert SigmaWord.from_text("1213", 3) == w

    def test_text_round_trip_large_alphabet(self):
        w = SigmaWord(13, (1, 2, 13, 4))
        assert w.text() == "1.2.13.4"
        assert SigmaWord.from_text("1.2.13.4", 13) == w
        assert SigmaWord.from_text("1 2 13 4", 13) == w

    @pytest.mark.parametrize("text,k", [("1..2", 1), ("1.2.", 2), (".1", 0), ("1. 2", 1),
                                        ("3 .1 2", 1)])
    def test_empty_field_is_rejected_with_its_index(self, text, k):
        for parse in (lambda t: SigmaWord.from_text(t, 3),
                      lambda t: words.parse_symbols(t, digits=False)):
            with pytest.raises(ValueError, match=re.escape(f"empty field at index {k} in word {text!r}")):
                parse(text)

    def test_malformed_field_is_rejected_with_its_index(self):
        for text, message in [("1.x.2", "malformed field 'x' at index 1"),
                              ("12a", "malformed field 'a' at index 2"),
                              ("1_0.2", "malformed field '1_0' at index 0"),
                              ("2 +1", "malformed field '+1' at index 1"),
                              ("1.\u0663", "malformed field '\u0663' at index 1")]:
            with pytest.raises(ValueError, match=re.escape(message)):
                SigmaWord.from_text(text, 3)

    def test_accepted_forms(self):
        separated = ["1.2.1", "1 2 1", " 1\t2  1\n", "1.2 1"]
        for text in ["121", *separated]:
            assert SigmaWord.from_text(text, 3).letters == (1, 2, 1), text
        for text in separated:
            assert words.parse_symbols(text, digits=False) == (1, 2, 1), text
        assert SigmaWord.from_text("  ", 3).letters == ()
        assert words.parse_symbols(" abab\n", digits=False) == "abab"
        assert words.parse_symbols("10.2 7") == (10, 2, 7)


class TestRepetitionOccurrence:
    def test_exponent_reduced(self):
        occ = RepetitionOccurrence(0, 2, 3)
        assert occ.exponent == Fraction(3, 2)
        assert occ.excess == 1
        assert occ.describe() == "start=0 period=2 length=3 exponent=3/2"

    def test_empty_excess_rejected(self):
        with pytest.raises(ValueError):
            RepetitionOccurrence(0, 2, 2)


class TestMaxExponent:
    def test_examples(self):
        exp, wit = max_exponent("010")
        assert exp == Fraction(3, 2)
        assert (wit.start, wit.period, wit.length) == (0, 2, 3)
        exp, wit = max_exponent("0101")
        assert exp == 2
        assert (wit.start, wit.period, wit.length) == (0, 2, 4)

    def test_no_repetition(self):
        exp, wit = max_exponent("123")
        assert exp == 1 and wit is None

    def test_empty_word(self):
        with pytest.raises(ValueError):
            max_exponent("")

    @pytest.mark.parametrize("length", range(1, 11))
    def test_oracle_binary(self, length):
        for w in all_words("01", length):
            exp, wit = max_exponent(w)
            b_exp, b_wit = brute_max_exponent(w)
            assert exp == b_exp, w
            if b_wit is None:
                assert wit is None
            else:
                assert (wit.start, wit.period, wit.length) == b_wit, w

    def test_monotone_under_factors(self):
        rng = random.Random(21)
        for _ in range(200):
            w = "".join(rng.choice("01") for _ in range(rng.randint(2, 16)))
            i = rng.randrange(len(w))
            j = rng.randint(i + 1, len(w))
            if j - i >= 1:
                assert max_exponent(w[i:j])[0] <= max_exponent(w)[0]


class TestFindRepetitions:
    def test_exceeding_examples(self):
        assert find_repetitions_exceeding("010", 3, 2) == []
        got = occ_triples(find_repetitions_exceeding("0110110", 3, 2))
        assert (0, 3, 7) in got
        assert got == [(0, 3, 7), (1, 1, 2), (4, 1, 2)]
        assert find_repetitions_exceeding((1, 2, 3), 1, 1) == []

    def test_excess_examples(self):
        assert find_repetitions_with_excess_at_least(SigmaWord(3, (1, 2, 1, 3)), 2) == []
        got = occ_triples(find_repetitions_with_excess_at_least(SigmaWord(3, (1, 2, 1, 2, 1, 2)), 2))
        assert (0, 2, 6) in got
        assert got == [(0, 2, 6), (0, 4, 6)]
        prefix = SigmaWord(9, tuple(range(1, 9)))
        assert find_repetitions_with_excess_at_least(prefix, 1) == []

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            find_repetitions_exceeding("01", 1, 2)
        with pytest.raises(ValueError):
            find_repetitions_with_excess_at_least("01", 0)

    @pytest.mark.parametrize("num,den", [(1, 1), (3, 2), (2, 1)])
    def test_oracle_binary(self, num, den):
        for length in range(1, 9):
            for w in all_words("01", length):
                got = occ_triples(find_repetitions_exceeding(w, num, den))
                assert got == brute_find_exceeding(w, num, den), (w, num, den)

    def test_triples_match_the_triple_loop(self):
        # the extending loop against every (i, j, q) tested from scratch,
        # and the oracles built on the triples do not depend on their order
        def triple_loop(w):
            L = len(w)
            return [(i, q, j - i) for i in range(L) for j in range(i + 2, L + 1)
                    for q in range(1, j - i) if brute_has_period(w, i, j, q)]

        rng = random.Random(11)
        sample = [w for length in range(1, 7) for w in all_words((1, 2, 3), length)]
        sample += [tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(7, 14)))
                   for _ in range(200)]
        sample += ["0" * 12, "01" * 7, "0110" * 3]
        for w in sample:
            triples, reference = brute_repetition_triples(w), triple_loop(w)
            assert sorted(triples) == sorted(reference), w
            assert brute_max_exponent(w, triples) == brute_max_exponent(w, reference), w
            assert (brute_find_exceeding(w, 4, 3, triples)
                    == brute_find_exceeding(w, 4, 3, reference)), w

    def test_oracle_ternary_full(self):
        for length in range(1, 11):
            for w in all_words((1, 2, 3), length):
                triples = brute_repetition_triples(w)
                assert max_exponent(w)[0] == brute_max_exponent(w, triples)[0], w
                got = occ_triples(find_repetitions_exceeding(w, 4, 3))
                assert got == brute_find_exceeding(w, 4, 3, triples), w

    def test_oracle_excess_ternary(self):
        for length in range(1, 8):
            for w in all_words((1, 2, 3), length):
                got = occ_triples(find_repetitions_with_excess_at_least(w, 2))
                assert got == brute_find_excess(w, 2), w

    def test_boolean_forms_agree(self):
        rng = random.Random(5)
        for _ in range(400):
            w = "".join(rng.choice("01") for _ in range(rng.randint(1, 20)))
            assert has_repetition_exceeding(w, 3, 2) == bool(find_repetitions_exceeding(w, 3, 2))
            assert (has_repetition_with_excess_at_least(w, 2)
                    == bool(find_repetitions_with_excess_at_least(w, 2)))


class TestMaskFastPath:
    """The bitmask path must agree with the plain scan on identical input."""

    def test_masked_matches_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            w = "".join(rng.choice("01") for _ in range(rng.randint(1, 24)))
            assert occ_triples(find_repetitions_exceeding(w, 3, 2)) == brute_find_exceeding(w, 3, 2)
            assert occ_triples(find_repetitions_with_excess_at_least(w, 2)) == brute_find_excess(w, 2)
            assert has_repetition_exceeding(w, 3, 2) == bool(find_repetitions_exceeding(w, 3, 2))
            assert (has_repetition_with_excess_at_least(w, 2)
                    == bool(find_repetitions_with_excess_at_least(w, 2)))
            exp, wit = max_exponent(w)
            b_exp, b_wit = brute_max_exponent(w)
            assert exp == b_exp
            if b_wit is None:
                assert wit is None
            else:
                assert (wit.start, wit.period, wit.length) == b_wit, w

    def test_masked_matches_oracle_ternary(self):
        rng = random.Random(12)
        for _ in range(200):
            tup = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(1, 18)))
            want = brute_find_exceeding(tup, 4, 3)
            for w in (tup, bytes(tup)):
                assert occ_triples(find_repetitions_exceeding(w, 4, 3)) == want, w

    def test_has_run_against_naive(self):
        rng = random.Random(13)
        for _ in range(500):
            n_bits = rng.randint(1, 60)
            mask = rng.getrandbits(n_bits)
            t = rng.randint(1, 12)
            longest = max((len(run) for run in bin(mask)[2:].split("0")), default=0)
            long = words._long_matches(mask, t)
            assert (long != 0) == (longest >= t)
            # bit k is set exactly where t set bits of the mask begin
            assert all((long >> k & 1) == all(mask >> (k + d) & 1 for d in range(t))
                       for k in range(n_bits)), (mask, t)


def _no_planes(sym):
    """Stands in for ``words._bit_planes`` to force the plain per-period scan."""
    return None


def _word_with_symbols(rng, k, length):
    """A random list of codes 0..k-1 of the given length (>= k) in which
    every code occurs."""
    codes = list(range(k)) + [rng.randrange(k) for _ in range(length - k)]
    rng.shuffle(codes)
    return codes


class TestBitPlanes:
    """The bit-sliced match mask against a direct comparison of letters,
    for alphabets that fill from one to all eight planes."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 15, 16, 17, 26, 256])
    @pytest.mark.parametrize("form", ["str", "tuple", "bytes", "SigmaWord"])
    def test_match_mask_is_letter_equality(self, k, form):
        rng = random.Random(k)
        codes = _word_with_symbols(rng, k, k + 60)
        if form == "str":
            w = "".join(chr(0x100 + c) for c in codes)
        elif form == "tuple":
            w = tuple(1000 - 7 * c for c in codes)
        elif form == "bytes":
            w = bytes(255 - c for c in codes)
            # translate numbers the letters as the per-letter map does
            assert words._bit_planes(w) == words._bit_planes(tuple(w))
        else:
            w = SigmaWord(max(k, 2), tuple(c + 1 for c in codes))
        sym = words._symbols(w)
        full, planes = words._bit_planes(w)
        assert len(planes) == (k - 1).bit_length()
        L = len(sym)
        for q in range(1, L + 2):
            mask = words._match_mask(full, planes, q)
            assert mask >> max(L - q, 0) == 0, (k, q)
            for j in range(L - q):
                assert (mask >> j & 1) == (sym[j] == sym[j + q]), (k, q, j)

    def test_masked_scan_on_decodings_equals_the_plain_scan(self, monkeypatch):
        """On the checked decoding and on the decoder's own bytes alike."""
        from dejean.pansiot import canonical_prefix, decode, decode_letters

        rng = random.Random(26)
        bit_planes = words._bit_planes
        for n in range(15, 27):
            bits = "".join(rng.choice("01") for _ in range(300))
            v = decode(bits, canonical_prefix(n))
            bound = n * n - 3 * n + 1
            monkeypatch.setattr(words, "_bit_planes", _no_planes)
            plain = find_repetitions_exceeding(v, n, n - 1, bound)
            for w in (v, decode_letters(bits, n)):
                for stub in (_no_planes, bit_planes):
                    monkeypatch.setattr(words, "_bit_planes", stub)
                    assert find_repetitions_exceeding(w, n, n - 1, bound) == plain, (n, stub)

    def test_search_screen_head_builds_its_planes(self, monkeypatch):
        """The decoding of h(h0[:4]) that the search screen scans, by image
        blocks, 238 letters at n = 15, takes the mask path with the plain
        scan's answer."""
        from dejean.morphisms import builtin
        from dejean.pansiot import decode_letters

        h = builtin(15)
        head = decode_letters(h.image0[:4], 15, (h.image0, h.image1))
        assert len(head) == 238 and head == decode_letters(h.apply(h.image0[:4]), 15)
        calls = []
        match_mask = words._match_mask

        def counted(*args):
            calls.append(args[2])
            return match_mask(*args)

        monkeypatch.setattr(words, "_match_mask", counted)
        assert not has_repetition_exceeding(head, 15, 14)
        assert calls
        masked = [find_repetitions_with_excess_at_least(head, e) for e in (1, 2, 13)]
        assert masked[0]
        monkeypatch.setattr(words, "_bit_planes", _no_planes)
        assert [find_repetitions_with_excess_at_least(head, e) for e in (1, 2, 13)] == masked

    @pytest.mark.parametrize("w", ["", b"", (), "a", (7,)])
    def test_empty_and_one_letter_words_have_no_planes(self, w):
        assert words._bit_planes(w) == ((1 << len(w)) - 1, [])
        assert find_repetitions_exceeding(w, 1, 1) == []
        assert not has_repetition_with_excess_at_least(w, 1)

    def test_more_than_256_symbols_take_the_plain_scan(self, monkeypatch):
        rng = random.Random(257)
        w = tuple(_word_with_symbols(rng, 257, 400))
        assert words._bit_planes(w) is None
        plain = find_repetitions_exceeding(w, 1, 1)
        assert plain

        def no_mask(*args):
            raise AssertionError("a mask was built")

        monkeypatch.setattr(words, "_match_mask", no_mask)
        assert find_repetitions_exceeding(w, 1, 1) == plain


class TestMaskRuns:
    """The runs read off the match masks against the plain per-period scan
    that a word without bit planes takes, on inputs whose masks hold many
    long runs."""

    @staticmethod
    def _both(monkeypatch, scan, w):
        masked = scan(w)
        with monkeypatch.context() as m:
            m.setattr(words, "_bit_planes", _no_planes)
            plain = scan(w)
        assert masked == plain, w
        return masked

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mutant_decodings(self, monkeypatch, seed):
        """The power scan the verifier runs, up to n^2-3n+1, on the first
        2,000 letters of each benchmark mutant's probe word."""
        from dejean.morphisms import UniformMorphism
        from dejean.verifier import compute_bounds, probe_word
        from helpers import load_perfbench_mutants

        found = 0
        for m in load_perfbench_mutants().generate(seed):
            v = probe_word(UniformMorphism(m.n, m.image0, m.image1))[:2000]
            bound = compute_bounds(m.n).short_bound
            found += len(self._both(
                monkeypatch, lambda w: find_repetitions_exceeding(w, m.n, m.n - 1, bound), v))
        assert found > 100

    def test_periodic_and_random_words(self, monkeypatch):
        rng = random.Random(24)
        for _ in range(60):
            k = rng.randint(3, 20)
            base = [rng.randrange(k) for _ in range(rng.randint(1, 25))]
            periodic = (base * 40)[:rng.randint(1, 200)]
            for p in rng.sample(range(len(periodic)), min(3, len(periodic) // 20)):
                periodic[p] = rng.randrange(k)  # a few breaks, so a period holds several runs
            for w in (tuple(periodic), bytes(periodic),
                      tuple(rng.randrange(k) for _ in range(rng.randint(1, 200)))):
                for num, den in ((1, 1), (k, k - 1), (3, 2)):
                    self._both(monkeypatch, lambda w: find_repetitions_exceeding(w, num, den), w)
                self._both(monkeypatch, lambda w: find_repetitions_with_excess_at_least(w, 2), w)
                self._both(monkeypatch, max_exponent, w)

    def test_max_exponent_when_need_rises_mid_period(self, monkeypatch):
        """Several runs of one period, shorter ones after a longer: the run
        starts of that period were read at the lower need, and those that
        fall short of the raised one must not be reported."""
        crafted = ["aabccc", "aaabccdaaaa", "abcabcdabdabdab", "0110110" + "1" * 5 + "00",
                   "abaabaabcabc" + "d" * 6 + "ee"]
        rng = random.Random(25)
        rising = 0
        for w in crafted + ["".join(rng.choice("abc") for _ in range(rng.randint(1, 16)))
                            for _ in range(300)]:
            exp, wit = self._both(monkeypatch, max_exponent, w)
            b_exp, b_wit = brute_max_exponent(w)
            assert exp == b_exp and (wit and (wit.start, wit.period, wit.length)) == b_wit, w
            # the plain oracle's yields, with need read as max_exponent does
            best = [1, 1]
            periods = []
            for i, j, q in words._runs(w, lambda q: (best[0] - best[1]) * q // best[1] + 1):
                periods.append(q)
                best = [j - i, q]
            rising += len(periods) != len(set(periods))
        assert rising > 10


class TestMaxPeriod:
    """A scan bounded by max_period is the unbounded list cut at that period,
    on the plain path and on the bitmask path alike."""

    @pytest.mark.parametrize("masked", [False, True])
    def test_bounded_equals_filtered(self, monkeypatch, masked):
        if not masked:
            monkeypatch.setattr(words, "_bit_planes", _no_planes)
        rng = random.Random(21)
        for _ in range(300):
            if rng.randrange(2):
                w, num, den = "".join(rng.choice("01") for _ in range(rng.randint(1, 40))), 3, 2
            else:
                w, num, den = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(1, 40))), 4, 3
            full = find_repetitions_exceeding(w, num, den)
            for m in (0, 1, rng.randint(1, len(w)), len(w), len(w) + 3):
                bounded = find_repetitions_exceeding(w, num, den, max_period=m)
                assert bounded == [o for o in full if o.period <= m], (w, m)
            assert find_repetitions_exceeding(w, num, den, max_period=None) == full
