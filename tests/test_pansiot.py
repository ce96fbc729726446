import random
import re

import pytest

from dejean import pansiot
from dejean.morphisms import BUILTIN_SIZES, UniformMorphism, builtin
from dejean.pansiot import (WindowDistinctnessError, _decode_loop,
                            canonical_prefix, decode, decode_letters, encode)
from dejean.words import SigmaWord

from helpers import brute_has_period, load_perfbench_mutants


def random_valid_word(rng, n, extra):
    """Pansiot-valid word built from random distinct starting letters and
    random bits; validity holds by the decode construction."""
    prefix = SigmaWord(n, tuple(rng.sample(range(1, n + 1), n - 1)))
    bits = "".join(rng.choice("01") for _ in range(extra))
    return decode(bits, prefix), bits, prefix


class TestCanonicalPrefix:
    def test_examples(self):
        assert canonical_prefix(3).letters == (1, 2)
        assert canonical_prefix(15).letters == tuple(range(1, 15))
        assert canonical_prefix(2).letters == (1,)

    def test_too_small(self):
        for n in (1, 0, -1):
            with pytest.raises(ValueError, match=f"^alphabet size must be >= 2, got {n}$"):
                canonical_prefix(n)


class TestEncode:
    def test_examples(self):
        assert encode(SigmaWord(3, (1, 2, 1, 2, 1))) == "000"
        assert encode(SigmaWord(3, (1, 2, 1, 3))) == "01"
        assert encode(SigmaWord(3, (1, 2))) == ""

    def test_word_too_short(self):
        with pytest.raises(ValueError):
            encode(SigmaWord(4, (1, 2)))

    def test_window_violation_reports_index(self):
        with pytest.raises(WindowDistinctnessError) as info:
            encode(SigmaWord(3, (1, 2, 1, 1)))
        assert info.value.index == 2


class TestDecode:
    def test_examples(self):
        assert decode("01", SigmaWord(3, (1, 2))).letters == (1, 2, 1, 3)
        assert decode("", SigmaWord(3, (1, 2))).letters == (1, 2)

    def test_builtin_image_decodes_valid(self):
        h = builtin(15)
        v = decode(h.image0, canonical_prefix(15))
        assert len(v) == 56 + 14
        assert v.window_violation() is None
        assert encode(v) == h.image0

    def test_prefix_not_distinct(self):
        with pytest.raises(ValueError):
            decode("01", SigmaWord(3, (1, 1)))

    def test_prefix_wrong_length(self):
        with pytest.raises(ValueError):
            decode("01", SigmaWord(4, (1, 2)))

    @pytest.mark.parametrize("bits,message", [(" 0110\n", "' ' at position 0"),
                                              ("0110\n", "'\\n' at position 4")])
    def test_surrounding_whitespace_is_rejected(self, bits, message):
        with pytest.raises(ValueError, match=re.escape(f"non-binary symbol {message}")):
            decode(bits, canonical_prefix(4))

    def test_decode_always_valid(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.choice((3, 5, 8))
            v, _, _ = random_valid_word(rng, n, rng.randint(0, 30))
            assert v.window_violation() is None


def _loop_oracle(bits, prefix):
    """The bit-by-bit decoding, the oracle of the chunked one."""
    n = prefix.n
    return tuple(_decode_loop(bits, prefix.letters, n * (n + 1) // 2 - sum(prefix.letters)))


class TestChunkedDecode:
    """8-bit chunks translated through per-n step tables against the plain
    loop, on random prefixes and lengths that leave a partial last chunk."""

    LENGTHS = (0, 1, 7, 9, 15, 17, 63, 64, 250, 1001)

    @pytest.mark.parametrize("n", [*range(2, 31), 255])
    def test_chunks_equal_loop(self, n):
        rng = random.Random(7000 + n)
        for length in self.LENGTHS + tuple(rng.randrange(2, 600) | 1 for _ in range(5)):
            prefix = SigmaWord(n, tuple(rng.sample(range(1, n + 1), n - 1)))
            bits = "".join(rng.choice("01") for _ in range(length))
            assert decode(bits, prefix).letters == _loop_oracle(bits, prefix), (n, length)

    @pytest.mark.parametrize("n", [256, 300])
    def test_large_alphabet_takes_loop(self, n, monkeypatch):
        def refuse(*args):
            raise AssertionError("chunked path taken for n > 255")

        monkeypatch.setattr(pansiot, "_decode_chunks", refuse)
        rng = random.Random(n)
        prefix = SigmaWord(n, tuple(rng.sample(range(1, n + 1), n - 1)))
        bits = "".join(rng.choice("01") for _ in range(1003))
        v = decode(bits, prefix)
        assert v.letters == _loop_oracle(bits, prefix)
        assert max(v.letters) > 255 and encode(v) == bits


class TestDecodeLetters:
    """The unchecked letters of the probe path against the checked decoding."""

    @pytest.mark.parametrize("n", [2, 3, 15, 26, 255, 256, 300])
    def test_letters_of_the_canonical_decoding(self, n):
        rng = random.Random(n)
        for length in (0, 1, 9, 1003):
            bits = "".join(rng.choice("01") for _ in range(length))
            letters = decode_letters(bits, n)
            assert type(letters) is (bytes if n < 256 else list)
            assert tuple(letters) == decode(bits, canonical_prefix(n)).letters, (n, length)

    def test_input_errors(self):
        with pytest.raises(ValueError, match="non-binary symbol '2' at position 1"):
            decode_letters("020", 5)
        with pytest.raises(ValueError, match="alphabet size must be >= 2, got 1"):
            decode_letters("01", 1)


class TestImageBlockDecode:
    """The decoding of h(u) read one image of h per step against
    ``decode_letters`` of the applied bits, the oracle, byte for byte."""

    @staticmethod
    def assert_blocks_equal_oracle(h, u):
        letters = decode_letters(u, h.n, (h.image0, h.image1))
        oracle = decode_letters(h.apply(u), h.n)
        assert type(letters) is type(oracle) and letters == oracle, (h, u)

    def test_builtins(self):
        for n in BUILTIN_SIZES:
            h = builtin(n)
            for u in (h.apply("0110"), "", "0", "1", "0110"):
                self.assert_blocks_equal_oracle(h, u)

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_benchmark_mutants(self, seed):
        mutants = load_perfbench_mutants().generate(seed)
        assert len(mutants) == 14
        for m in mutants:
            h = UniformMorphism(m.n, m.image0, m.image1)
            self.assert_blocks_equal_oracle(h, h.apply("0110"))

    @pytest.mark.parametrize("n", [*range(2, 31), 255])
    def test_random_morphisms(self, n):
        rng = random.Random(8000 + n)
        for r in (1, 3, 7, 9, 13, rng.randrange(17, 60, 8)):
            assert r % 8
            h = UniformMorphism(n, *("".join(rng.choice("01") for _ in range(r)) for _ in "01"))
            u = "".join(rng.choice("01") for _ in range(rng.randint(0, 40)))
            self.assert_blocks_equal_oracle(h, u)
            self.assert_blocks_equal_oracle(h, h.apply("0110"))

    @pytest.mark.parametrize("n", [256, 300])
    def test_large_alphabet_takes_loop(self, n, monkeypatch):
        def refuse(*args):
            raise AssertionError("chunked path taken for n > 255")

        monkeypatch.setattr(pansiot, "_decode_chunks", refuse)
        rng = random.Random(n)
        h = UniformMorphism(n, *("".join(rng.choice("01") for _ in range(45)) for _ in "01"))
        u = "".join(rng.choice("01") for _ in range(23))
        letters = decode_letters(u, n, (h.image0, h.image1))
        assert type(letters) is list and max(letters) > 255
        assert tuple(letters) == _loop_oracle(h.apply(u), canonical_prefix(n))

    @pytest.mark.parametrize("n", [5, 300])
    def test_input_errors(self, n):
        with pytest.raises(ValueError, match="non-binary symbol '2' at position 1"):
            decode_letters("020", n, ("01", "10"))
        with pytest.raises(ValueError, match="non-binary symbol 'x' at position 2"):
            decode_letters("01", n, ("01", "10x"))


class TestRoundTrip:
    @pytest.mark.parametrize("n", [3, 5, 15])
    def test_round_trips(self, n):
        rng = random.Random(100 + n)
        for _ in range(1000):
            v, bits, prefix = random_valid_word(rng, n, rng.randint(0, 40))
            assert encode(v) == bits
            assert decode(encode(v), v[: n - 1]) == v


class TestPeriodTransport:
    """A period of the word is always a period of its codeword.  The
    converse needs the kernel condition and is covered with the
    permutation tests."""

    def test_forward_direction(self):
        rng = random.Random(9)
        for _ in range(400):
            n = rng.choice((3, 4, 5))
            v, bits, _ = random_valid_word(rng, n, rng.randint(1, 24))
            for q in range(1, len(v)):
                if brute_has_period(v, 0, len(v), q) and q <= len(bits):
                    assert brute_has_period(bits, 0, len(bits), q), (v.letters, bits, q)

    def test_exponent_correspondence(self):
        # a factor of length L and period q in the word corresponds to a
        # codeword factor of length L - (n-1) with the same period
        v = SigmaWord(3, (1, 2, 1, 2, 1, 2))
        bits = encode(v)
        assert bits == "0000"
        assert len(bits) == len(v) - 2
        assert brute_has_period(v, 0, 6, 2) and brute_has_period(bits, 0, 4, 2)
        # word exponent 6/2 = 3 maps to codeword exponent (6-3+1)/2 = 2
        assert (len(v) - 3 + 1) == len(bits)
