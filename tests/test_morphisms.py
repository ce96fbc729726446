import hashlib
import importlib.resources
from itertools import product

import pytest

import dejean.morphisms
from dejean.morphisms import (BUILTIN_SIZES, MorphismFormatError,
                              PrefixStabilityError, UniformMorphism, builtin,
                              emit_morphism_file, factor_closure,
                              iteration_bound, parse_morphism_file)
from dejean.words import find_repetitions_exceeding
from helpers import (limit_prefix, load_perfbench_mutants, plain_decode,
                     prefix_seeded_closure, sliding_factors)

DATA_SHA256 = "de010d1cc7d2573fc027b7e01b763853368d6f11102e4c4ae1a4c2215f4b01e7"


def thue_morse_like():
    return UniformMorphism(3, "01", "10")


def common_prefix(u, v):
    """Longest common prefix of two words."""
    k = 0
    while k < min(len(u), len(v)) and u[k] == v[k]:
        k += 1
    return u[:k]


class TestEmbeddedTable:
    def test_data_file_checksum(self):
        raw = importlib.resources.files("dejean.data").joinpath("morphisms.txt").read_bytes()
        assert hashlib.sha256(raw).hexdigest() == DATA_SHA256

    def test_twelve_sizes(self):
        assert BUILTIN_SIZES == tuple(range(15, 27))
        for n in BUILTIN_SIZES:
            assert builtin(n).n == n

    @pytest.mark.parametrize("n", BUILTIN_SIZES)
    def test_structural_invariants(self, n):
        h = builtin(n)
        expected_r = 4 * n if n == 21 else 4 * n - 4
        assert h.r == expected_r
        assert len(h.image0) == len(h.image1) == expected_r
        assert h.image0[-1] != h.image1[-1]
        assert "011" in h.image0
        assert "110" in h.image1
        assert len(common_prefix(h.image0, h.image1)) < h.r

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            builtin(14)
        with pytest.raises(ValueError):
            builtin(27)


class TestUniformMorphism:
    def test_validation(self):
        with pytest.raises(ValueError):
            UniformMorphism(3, "01", "0")
        with pytest.raises(ValueError):
            UniformMorphism(3, "0a", "01")
        with pytest.raises(ValueError):
            UniformMorphism(1, "01", "10")

    def test_common_prefix(self):
        h = UniformMorphism(3, "0010", "0011")
        assert common_prefix(h.image0, h.image1) == "001"
        h = thue_morse_like()
        assert common_prefix(h.image0, h.image1) == ""

    def test_apply(self):
        h = builtin(15)
        assert h.apply("") == ""
        assert h.apply("01") == h.image0 + h.image1
        assert len(h.apply("0110")) == 4 * h.r

    @pytest.mark.parametrize("word,symbol,position", [
        ("2", "2", 0), (" 01", " ", 0), ("01 ", " ", 2), ("0a1", "a", 1),
    ])
    def test_apply_rejects_non_binary(self, word, symbol, position):
        with pytest.raises(ValueError) as info:
            builtin(15).apply(word)
        assert str(info.value) == f"non-binary symbol {symbol!r} at position {position}"


class TestLimitPrefix:
    """The plain limit-prefix oracle of the tests' helpers."""

    def test_thue_morse_prefix(self):
        # image of 0 starts with 0, so iterates from "0" begin with it
        h = thue_morse_like()
        got = limit_prefix(h, 8)
        assert got.startswith("0110")
        assert got.startswith(h.image0)

    def test_prefix_of_longer_prefix(self):
        for n in (15, 17, 21):
            h = builtin(n)
            short = limit_prefix(h, 200)
            long = limit_prefix(h, 400)
            assert long.startswith(short)

    @pytest.mark.parametrize("n", BUILTIN_SIZES)
    def test_builtin_limits_exist(self, n):
        h = builtin(n)
        got = limit_prefix(h, h.r)
        assert len(got) >= h.r

    def test_min_length_validation(self):
        with pytest.raises(ValueError):
            limit_prefix(thue_morse_like(), 0)


class TestFactorClosure:
    @pytest.mark.parametrize("n", BUILTIN_SIZES)
    def test_length_2_universe(self, n):
        assert factor_closure(builtin(n), 2).members == {"01", "10", "11"}

    def test_length_1(self):
        assert factor_closure(builtin(15), 1).members == {"0", "1"}

    def test_length_r_members_occur_in_probe(self):
        for n in (15, 26):
            h = builtin(n)
            probe = h.apply("0110")
            closure = factor_closure(h, h.r)
            probe_factors = {probe[i:i + h.r] for i in range(len(probe) - h.r + 1)}
            assert closure.members == probe_factors

    def test_swap_morphism_raises(self):
        # the length-1 swap has no growing iterate from either letter
        h = UniformMorphism(3, "1", "0")
        for k in (1, 2, 3):
            with pytest.raises(PrefixStabilityError, match="no prefix-stable iteration from either letter"):
                factor_closure(h, k)

    def test_swapped_images_still_stabilize(self, monkeypatch):
        # image of 0 starts with 1 and image of 1 with 0, so the doubled
        # iterate from "0", h(h(0)) = 0110, is the scheme that applies and
        # the first word whose factors seed the fixed point
        words = []
        factors = dejean.morphisms._factors
        monkeypatch.setattr(dejean.morphisms, "_factors",
                            lambda s, k: words.append(s) or factors(s, k))
        members = factor_closure(UniformMorphism(3, "10", "01"), 2).members
        assert words[0] == "0110"
        assert members == {"00", "01", "10", "11"}

    @pytest.mark.parametrize("n", BUILTIN_SIZES)
    def test_equals_factors_of_plain_prefix(self, n):
        # the factors of the r^2-letter prefix h(h(a)) of the limit word
        h = builtin(n)
        text = limit_prefix(h, h.r * h.r)
        for k in (3, 5, 8, 16):
            assert factor_closure(h, k).members == sliding_factors(text, k), k

    def test_equals_prefix_seeded_closure(self):
        # seeding from one iterate reaches the fixed point that an
        # r^2-letter limit prefix seeds, on the benchmark's mutants and on
        # every n = 3 morphism with r <= 4
        morphisms = [UniformMorphism(m.n, m.image0, m.image1)
                     for seed in range(1, 6) for m in load_perfbench_mutants().generate(seed)]
        assert len(morphisms) == 70
        for r in range(1, 5):
            images = ["".join(bits) for bits in product("01", repeat=r)]
            morphisms += [UniformMorphism(3, a, b) for a in images for b in images]
        assert len(morphisms) == 70 + 340
        for h in morphisms:
            for k in (1, 2):
                try:
                    expected = prefix_seeded_closure(h, k)
                except PrefixStabilityError:
                    with pytest.raises(PrefixStabilityError):
                        factor_closure(h, k)
                    continue
                assert factor_closure(h, k).members == expected, (h, k)

    def test_windows_of_eight_factors_are_power_free(self):
        # every factor of the decoding of the limit word with at most
        # 7r + n letters lies in the decoding of h(x), x an 8-factor,
        # relabelled; none of those 192 windows holds a repetition above
        # n/(n-1), whatever its period
        windows = 0
        for n in BUILTIN_SIZES:
            h = builtin(n)
            for x in factor_closure(h, 8):
                letters = plain_decode(h.apply(x), n)
                assert find_repetitions_exceeding(letters, n, n - 1) == [], (n, x)
                windows += 1
        assert windows == 192
        # a planted bit flip leaves such a repetition in some window
        m = load_perfbench_mutants().generate(1)[0]
        h = UniformMorphism(m.n, m.image0, m.image1)
        assert any(find_repetitions_exceeding(plain_decode(h.apply(x), h.n), h.n, h.n - 1)
                   for x in factor_closure(h, 8))

    def test_closure_members_occur_in_limit_prefix(self):
        h = builtin(15)
        text = limit_prefix(h, 12 * h.r)
        for k in (2, h.r):
            for member in factor_closure(h, k):
                # soundness spot check: members are genuine factors
                assert member in text

    def test_closure_is_closed(self):
        h = builtin(15)
        members = factor_closure(h, 2).members
        for u in members:
            image = h.apply(u)
            assert {image[i:i + 2] for i in range(len(image) - 1)} <= members

    def test_thue_morse_square_free_avoids_nothing_binary(self):
        assert factor_closure(thue_morse_like(), 2).members == {"00", "01", "10", "11"}


class TestIterationBound:
    def test_examples(self):
        assert iteration_bound(9 * 15**2 - 6 * 15 + 1, 56) == 2
        assert iteration_bound(1, 2) == 1
        assert iteration_bound(9 * 26**2 - 6 * 26 + 1, 100) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            iteration_bound(0, 2)
        with pytest.raises(ValueError):
            iteration_bound(5, 1)


class TestStanzaFormat:
    def test_round_trip_builtin(self):
        morphs = [builtin(n) for n in BUILTIN_SIZES]
        assert parse_morphism_file(emit_morphism_file(morphs)) == morphs

    def test_emit_sorts_by_n(self):
        morphs = [builtin(17), builtin(15)]
        parsed = parse_morphism_file(emit_morphism_file(morphs))
        assert [h.n for h in parsed] == [15, 17]

    def test_two_stanzas(self):
        text = "n=3\nr=2\nh0=01\nh1=10\n\nn=4\nr=2\nh0=00\nh1=01\n"
        parsed = parse_morphism_file(text)
        assert len(parsed) == 2 and parsed[1].n == 4

    def test_comments_and_blank_lines(self):
        text = "# header\n\nn=3\nr=2\n# mid\nh0=01\nh1=10\n\n"
        assert len(parse_morphism_file(text)) == 1

    def test_length_mismatch(self):
        with pytest.raises(MorphismFormatError, match="line 4"):
            parse_morphism_file("n=3\nr=3\nh0=010\nh1=10\n")

    def test_declared_r_mismatch(self):
        with pytest.raises(MorphismFormatError, match="does not match declared"):
            parse_morphism_file("n=3\nr=5\nh0=010\nh1=101\n")

    def test_non_binary_symbol(self):
        with pytest.raises(MorphismFormatError, match="non-binary"):
            parse_morphism_file("n=3\nr=2\nh0=0a\nh1=10\n")

    def test_missing_field(self):
        with pytest.raises(MorphismFormatError, match="missing"):
            parse_morphism_file("n=3\nr=2\nh0=01\n")

    def test_unknown_line(self):
        with pytest.raises(MorphismFormatError, match="line 1"):
            parse_morphism_file("bogus\n")

    def test_duplicate_field(self):
        with pytest.raises(MorphismFormatError, match="duplicate"):
            parse_morphism_file("n=3\nn=4\nr=2\nh0=01\nh1=10\n")

    @pytest.mark.parametrize("text,message", [
        ("n=1\nr=2\nh0=01\nh1=10\n", "line 1: alphabet size must be >= 2, got 1"),
        ("n=3\nr=2\nh0=01\nh1=10\n\n# next\nr=0\nh0=\nh1=\nn=3\n",
         "line 7: images must be nonempty and of equal length, got 0 and 0"),
    ], ids=["n=1", "empty-images-second-stanza"])
    def test_rejected_morphism_names_stanza_line(self, text, message):
        with pytest.raises(MorphismFormatError) as info:
            parse_morphism_file(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text,message", [
        ("n=3\nr=x\nh0=01\nh1=10\n", "line 2: r must be a decimal integer"),
        ("n=3\nr=2\nh0=01", "line 1: stanza is missing field(s) h1"),
        ("n=3\nr=2\nh0=01\nh1=10\n\n# next\nn=3\nh1=10\nr=2\n\n",
         "line 7: stanza is missing field(s) h0"),
        ("n=1_5\nr=2\nh0=01\nh1=10\n", "line 1: n must be a decimal integer"),
        ("n=\u0661\u0665\nr=2\nh0=01\nh1=10\n", "line 1: n must be a decimal integer"),
    ], ids=["r=x", "missing-h1", "missing-h0-second-stanza", "n=1_5", "n=arabic-indic-15"])
    def test_stanza_error_names_its_line(self, text, message):
        """A missing field names the stanza's first line; a value of n or r
        that is not a run of ASCII digits names that field and its line."""
        with pytest.raises(MorphismFormatError) as info:
            parse_morphism_file(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text", ["", "# only a comment\n", "\n\n"])
    def test_no_stanza_parses_to_nothing(self, text):
        assert parse_morphism_file(text) == []
