import random
import re
from fractions import Fraction

import pytest

from dejean import words
from dejean.words import (RepetitionOccurrence, SigmaWord,
                          find_repetitions_exceeding,
                          find_repetitions_with_excess_at_least, has_period,
                          has_repetition_exceeding,
                          has_repetition_with_excess_at_least, max_exponent,
                          maximal_extension)

from helpers import (all_words, brute_find_exceeding, brute_find_excess,
                     brute_max_exponent, brute_repetition_triples, occ_triples)


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
        assert SigmaWord(3, (1, 2, 1, 3)).is_window_distinct
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


class TestRepetitionOccurrence:
    def test_exponent_reduced(self):
        occ = RepetitionOccurrence(0, 2, 3)
        assert occ.exponent == Fraction(3, 2)
        assert occ.excess == 1
        assert occ.describe() == "start=0 period=2 length=3 exponent=3/2"

    def test_empty_excess_rejected(self):
        with pytest.raises(ValueError):
            RepetitionOccurrence(0, 2, 2)
        assert RepetitionOccurrence(0, 2, 2, exact_boundary=True).excess == 0


class TestHasPeriod:
    def test_examples(self):
        assert has_period("010", 0, 3, 2) is True
        assert has_period("01", 0, 2, 5) is True  # vacuous
        assert has_period("0110", 0, 4, 2) is False

    def test_index_errors(self):
        with pytest.raises(IndexError):
            has_period("010", 0, 4, 1)
        with pytest.raises(IndexError):
            has_period("010", 2, 1, 1)
        with pytest.raises(ValueError):
            has_period("010", 0, 3, 0)


class TestMaximalExtension:
    def test_examples(self):
        assert maximal_extension("0010100", 2, 4, 2) == (1, 6)
        assert maximal_extension("000", 1, 2, 1) == (0, 3)
        assert maximal_extension("011011011", 0, 6, 3) == (0, 9)

    def test_precondition(self):
        with pytest.raises(ValueError):
            maximal_extension("0110", 0, 4, 2)

    def test_idempotent_and_matches_brute(self):
        from helpers import brute_has_period, brute_maximal_extension

        rng = random.Random(7)
        for _ in range(300):
            L = rng.randint(2, 14)
            w = "".join(rng.choice("01") for _ in range(L))
            i = rng.randrange(L)
            j = rng.randint(i + 1, L)
            q = rng.randint(1, L)
            if not brute_has_period(w, i, j, q):
                continue
            got = maximal_extension(w, i, j, q)
            assert got == brute_maximal_extension(w, i, j, q)
            assert maximal_extension(w, *got, q) == got


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

    @pytest.fixture(autouse=True)
    def force_masks(self, monkeypatch):
        monkeypatch.setattr(words, "_MASK_MIN_LENGTH", 1)

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
            assert occ_triples(find_repetitions_exceeding(tup, 4, 3)) == brute_find_exceeding(tup, 4, 3)

    def test_has_run_against_naive(self):
        rng = random.Random(13)
        for _ in range(500):
            n_bits = rng.randint(1, 60)
            mask = rng.getrandbits(n_bits)
            t = rng.randint(1, 12)
            longest = max((len(run) for run in bin(mask)[2:].split("0")), default=0)
            assert words._has_run(mask, t) == (longest >= t)


class TestMaxPeriod:
    """A scan bounded by max_period is the unbounded list cut at that period,
    on the plain path and on the bitmask path alike."""

    @pytest.mark.parametrize("masked", [False, True])
    def test_bounded_equals_filtered(self, monkeypatch, masked):
        if masked:
            monkeypatch.setattr(words, "_MASK_MIN_LENGTH", 1)
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
