import itertools
import random
import re

import pytest

from dejean.morphisms import BUILTIN_SIZES, UniformMorphism, builtin
from dejean.pansiot import _decode_loop, canonical_prefix, decode, decode_letters, encode
from dejean.perms import (_cycle_type, _missing, conjugate, find_conjugator, h0_splices,
                          h1_splices, is_kernel_word, word_permutation)
from dejean.search import search_convenient
from dejean.verifier import find_kernel_repetitions, probe_encoding, run_check
from dejean.words import SigmaWord
from helpers import (brute_kernel_repetitions, brute_word_permutation, class_ids, classes_of,
                     compose, conjugated, cycle_alignments, cycle_through, inverse,
                     load_perfbench_mutants, occ_triples, prefix_permutations, repeat_case,
                     repeated_factor_starts, same_partition, step0, step1, table_of, wide)


def _shuffled(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return tuple(images)


class TestPermutation:
    """The tuple oracle of ``helpers`` and the ``bytes`` helpers of
    ``perms``, on small cases worked by hand."""

    def test_validation(self):
        with pytest.raises(ValueError, match=re.escape("a0 is not the bytes of a permutation")):
            find_conjugator(b"\x01\x01", b"\x02\x01", 2)
        with pytest.raises(ValueError, match="a1 has 0 points, not n = 2"):
            find_conjugator(b"\x01\x02", b"", 2)

    def test_compose_convention(self):
        # (f g)(i) = f(g(i))
        f, g = (2, 1, 3), (3, 2, 1)
        assert compose(f, g) == (3, 1, 2) == tuple(f[g[i] - 1] for i in range(3))
        # t a t^-1 maps t(i) to t(a(i))
        t, a = (2, 3, 1), (1, 3, 2)
        assert conjugate(bytes(t), bytes(a)) == bytes(conjugated(t, a)) == b"\x03\x02\x01"

    def test_inverse(self):
        p = (3, 1, 2)
        assert compose(p, inverse(p)) == (1, 2, 3)
        assert compose(inverse(p), p) == (1, 2, 3)

    def test_one_line(self):
        h = builtin(15)
        tau = find_conjugator(word_permutation(h.image0, 15), word_permutation(h.image1, 15), 15)
        assert run_check("algebraic_condition", h).witness == (
            "conjugator (" + " ".join(str(v) for v in tau) + ")")
        assert run_check("algebraic_condition", h).witness == (
            "conjugator (8 3 2 13 7 1 10 15 6 12 5 14 9 4 11)")

    def test_cycle_type_examples(self):
        assert _cycle_type(bytes((1, 2, 3, 4, 5))) == (1, 1, 1, 1, 1)
        assert _cycle_type(word_permutation("1", 7)) == (7,)
        assert _cycle_type(word_permutation("0", 7)) == (1, 6)


class TestGenerators:
    """The decoder's images of one bit are the oracle's generators."""

    def test_step0_n3(self):
        assert step0(3) == (2, 1, 3) == tuple(word_permutation("0", 3))

    def test_step1_n3(self):
        assert step1(3) == (2, 3, 1) == tuple(word_permutation("1", 3))

    def test_step0_n2_is_identity(self):
        assert step0(2) == (1, 2) == tuple(word_permutation("0", 2))


class TestWordPermutation:
    def test_empty_is_identity(self):
        assert word_permutation("", 4) == bytes((1, 2, 3, 4))

    def test_example_from_decoding(self):
        # codeword of 1213: images must be (last two letters, missing) = (1, 3, 2)
        assert word_permutation("01", 3) == bytes((1, 3, 2))

    def test_homomorphism(self):
        rng = random.Random(42)
        for _ in range(200):
            n = rng.choice((3, 5, 9))
            u = "".join(rng.choice("01") for _ in range(rng.randint(0, 12)))
            v = "".join(rng.choice("01") for _ in range(rng.randint(0, 12)))
            assert tuple(word_permutation(u + v, n)) == compose(
                tuple(word_permutation(u, n)), tuple(word_permutation(v, n)))

    def test_is_kernel(self):
        assert is_kernel_word("", 5)
        assert not is_kernel_word("01", 3)
        assert is_kernel_word("11", 2)

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 15, 26, 255, 256, 300])
    def test_matches_generator_products(self, n):
        """The images read off the decoder state against the product of
        the oracle's generators, for every length 0..70, which the decoder
        reads one bit per step.  Above 255 letters both refuse every word,
        the empty one included."""
        rng = random.Random(900 + n)
        identity = tuple(range(1, n + 1))
        words = ["".join(rng.choice("01") for _ in range(length)) for length in range(71)]
        words += [w for w in ("1" * n, "0" * (n - 1), "1" * n + "0" * (n - 1) + "1" * n)
                  if len(w) <= 70]
        if n > 255:
            for bits in words:
                for call in (word_permutation, is_kernel_word):
                    with pytest.raises(ValueError, match=wide(n)):
                        call(bits, n)
            return
        nonempty_kernel = False
        for bits in words:
            want = brute_word_permutation(bits, n)
            got = word_permutation(bits, n)
            assert type(got) is bytes and tuple(got) == want, (n, bits)
            assert is_kernel_word(bits, n) == (want == identity), (n, bits)
            nonempty_kernel |= bool(bits) and want == identity
        assert nonempty_kernel or n > 70  # 1^n is one, when it fits in 70 bits


class TestEndStateEquation:
    """The image of a codeword sends i to the i-th entry of
    (last n-1 letters, missing letter) for words with the canonical prefix;
    for arbitrary valid words the start-state permutation conjugates in.
    This is what pins the composition convention."""

    @staticmethod
    def state(word: SigmaWord, end: int) -> tuple[int, ...]:
        n = word.n
        window = word.letters[end - (n - 1): end]
        missing = n * (n + 1) // 2 - sum(window)
        return window + (missing,)

    @pytest.mark.parametrize("n", [3, 5, 15])
    def test_canonical_prefix_form(self, n):
        rng = random.Random(500 + n)
        for _ in range(1000):
            bits = "".join(rng.choice("01") for _ in range(rng.randint(0, 30)))
            v = decode(bits, canonical_prefix(n))
            expected = self.state(v, len(v))
            assert tuple(word_permutation(encode(v), n)) == expected

    def test_general_prefix_form(self):
        rng = random.Random(77)
        for _ in range(500):
            n = rng.choice((3, 4, 6))
            prefix = SigmaWord(n, tuple(rng.sample(range(1, n + 1), n - 1)))
            bits = "".join(rng.choice("01") for _ in range(rng.randint(0, 20)))
            v = decode(bits, prefix)
            start = self.state(v, n - 1)
            end = self.state(v, len(v))
            assert compose(start, tuple(word_permutation(bits, n))) == end

    def test_kernel_conditioned_period_transport(self):
        # a periodic codeword whose period word is in the kernel decodes
        # to a word with the same period
        rng = random.Random(15)
        hits = 0
        for _ in range(3000):
            n = rng.choice((3, 4))
            q = rng.randint(1, 6)
            block = "".join(rng.choice("01") for _ in range(q))
            reps = rng.randint(2, 4)
            extra = rng.randint(0, q - 1)
            bits = block * reps + block[:extra]
            if not is_kernel_word(bits[:q], n):
                continue
            hits += 1
            v = decode(bits, canonical_prefix(n))
            assert all(v[k] == v[k + q] for k in range(len(v) - q)), (bits, q, n)
        assert hits > 50  # the sample really exercised the property


def _conjugator(a0, a1, n):
    """``find_conjugator`` on tuples of images, its result as a tuple or None."""
    tau = find_conjugator(bytes(a0), bytes(a1), n)
    return None if tau is None else tuple(tau)


class TestFindConjugator:
    def test_identity_case(self):
        for n in (3, 5, 8):
            tau = find_conjugator(word_permutation("0", n), word_permutation("1", n), n)
            assert tau == bytes(range(1, n + 1))

    def test_not_full_cycle(self):
        n = 5
        assert _conjugator(step0(n), tuple(range(1, n + 1)), n) is None

    def test_soundness_random_conjugates(self):
        rng = random.Random(8)
        for _ in range(100):
            n = rng.choice((4, 6, 9))
            t = _shuffled(rng, n)
            a0 = conjugated(inverse(t), step0(n))
            a1 = conjugated(inverse(t), step1(n))
            tau = _conjugator(a0, a1, n)
            assert tau is not None
            assert conjugated(tau, a0) == step0(n)
            assert conjugated(tau, a1) == step1(n)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_complete_on_small_degree(self, n):
        """Existence agrees with brute force over all n! conjugators."""
        rng = random.Random(30 + n)
        perms = list(itertools.permutations(range(1, n + 1)))
        pairs = min(len(perms), 40 if n <= 5 else 12)
        s0, s1 = step0(n), step1(n)
        for a0 in rng.sample(perms, pairs):
            for a1 in rng.sample(perms, min(len(perms), 12 if n <= 5 else 6)):
                brute = any(conjugated(t, a0) == s0 and conjugated(t, a1) == s1 for t in perms)
                assert (_conjugator(a0, a1, n) is not None) == brute
        # conjugate pairs must always be found, at every sampled conjugator
        for _ in range(10):
            t = _shuffled(rng, n)
            assert _conjugator(conjugated(inverse(t), s0), conjugated(inverse(t), s1), n) is not None

    def test_returns_lexicographically_least(self):
        n = 4
        valid = [t for t in itertools.permutations(range(1, n + 1))
                 if conjugated(t, step0(n)) == step0(n) and conjugated(t, step1(n)) == step1(n)]
        assert _conjugator(step0(n), step1(n), n) == min(valid)

    @pytest.mark.parametrize("a0,a1,message", [
        (b"\x01\x01\x03", b"\x02\x03\x01", "a0 is not the bytes of a permutation of 1..3: b'\\x01\\x01\\x03'"),
        (b"\x02\x01\x03", b"\x00\x03\x01", "a1 is not the bytes of a permutation of 1..3: b'\\x00\\x03\\x01'"),
        (b"\x02\x01\x03", b"\x02\x03\x04", "a1 is not the bytes of a permutation of 1..3: b'\\x02\\x03\\x04'"),
        ((2, 1, 3), b"\x02\x03\x01", "a0 is not the bytes of a permutation of 1..3: (2, 1, 3)"),
        (b"\x02\x01\x03", "abc", "a1 is not the bytes of a permutation of 1..3: 'abc'"),
    ])
    def test_rejects_non_permutations(self, a0, a1, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            find_conjugator(a0, a1, 3)

    def test_rejects_a_length_other_than_n(self):
        with pytest.raises(ValueError, match=re.escape("a0 has 2 points, not n = 3")):
            find_conjugator(b"\x02\x01", b"\x02\x03\x01", 3)
        with pytest.raises(ValueError, match=re.escape("a1 has 4 points, not n = 3")):
            find_conjugator(b"\x02\x01\x03", b"\x02\x03\x04\x01", 3)

    @pytest.mark.parametrize("n", [-1, 0, 1, 256, 300])
    def test_rejects_a_degree_outside_2_to_255(self, n):
        pattern = wide(n) if n > 255 else re.escape(f"degree must be >= 2, got {n}")
        a = tuple(range(1, max(n, 0) + 1))
        with pytest.raises(ValueError, match=pattern):
            find_conjugator(a, a, n)


@pytest.mark.parametrize("n", [*range(2, 31), 255])
class TestAgainstTupleOracle:
    """The ``bytes`` permutations of ``perms`` against the plain tuple
    products of ``helpers``, which share nothing with them."""

    def test_word_permutation(self, n):
        rng = random.Random(n)
        for length in (0, 1, 2, n - 1, n, 2 * n + 3):
            bits = "".join(rng.choice("01") for _ in range(length))
            assert tuple(word_permutation(bits, n)) == brute_word_permutation(bits, n), bits

    def test_conjugate(self, n):
        rng = random.Random(n)
        for _ in range(5):
            t, a = _shuffled(rng, n), _shuffled(rng, n)
            assert conjugate(bytes(t), bytes(a)) == bytes(conjugated(t, a))

    def test_find_conjugator(self, n):
        rng = random.Random(n)
        for _ in range(3):
            t = _shuffled(rng, n)
            a0, a1 = conjugated(inverse(t), step0(n)), conjugated(inverse(t), step1(n))
            tau = _conjugator(a0, a1, n)
            assert tau is not None
            assert (conjugated(tau, a0), conjugated(tau, a1)) == (step0(n), step1(n))
            assert tau == _rotations_and_filter(a0, a1, n)

    def test_splices(self, n):
        rng = random.Random(n)
        for _ in range(3):
            t = _shuffled(rng, n)
            a1 = conjugated(inverse(t), step1(n))
            want = [conjugated(inverse(tau), step0(n))
                    for tau in cycle_alignments(cycle_through(a1, 1), n, n)]
            assert [tuple(a0) for a0 in h0_splices(bytes(a1))] == want
            a0 = conjugated(inverse(t), step0(n))
            fixed = t.index(n) + 1  # t^-1(n), the point that a0 fixes
            cyc = cycle_through(a0, 2 if fixed == 1 else 1)
            want = [conjugated(inverse(tau), step1(n))
                    for tau in cycle_alignments(cyc, n - 1, n, fixed)]
            assert [tuple(a) for a in h1_splices(bytes(a0))] == want


def _rotations_and_filter(a0, a1, n):
    """Reference find_conjugator: every t with t a1 t^-1 = step1(n), one per
    rotation of a1's cycle onto step1's, filtered by the a0 equation; the
    lexicographically least survivor, as images, or None."""
    s0 = step0(n)
    cyc = [1]
    while a1[cyc[-1] - 1] != 1:
        cyc.append(a1[cyc[-1] - 1])
    if len(cyc) != n:
        return None
    survivors = []
    for t in range(1, n + 1):
        tau = [0] * n
        for k, e in enumerate(cyc):
            tau[e - 1] = (t - 1 + k) % n + 1
        if all(tau[a0[x - 1] - 1] == s0[tau[x - 1] - 1] for x in range(1, n + 1)):
            survivors.append(tuple(tau))
    return min(survivors, default=None)


def _swapped(p, i, j):
    """p with the images of points i and j exchanged."""
    images = list(p)
    images[i - 1], images[j - 1] = images[j - 1], images[i - 1]
    return tuple(images)


class TestConjugatorAgainstRotations:
    """find_conjugator, the least alignment whose splice is a0, against the
    rotations-and-filter reference: the same images, or None for both."""

    @staticmethod
    def _agree(a0, a1, n):
        got = _conjugator(a0, a1, n)
        assert got == _rotations_and_filter(a0, a1, n), (a0, a1)
        return got

    def test_builtins(self):
        for n in BUILTIN_SIZES:
            h = builtin(n)
            assert self._agree(word_permutation(h.image0, n),
                               word_permutation(h.image1, n), n) is not None

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 26, 255, 256, 300])
    def test_conjugates_and_one_swap_perturbations(self, n):
        """Above 255 points a permutation does not fit in one byte a point,
        so every pair is rejected, as the decoder rejects the alphabet."""
        rng = random.Random(n)
        rounds = 3 if n >= 255 else 12
        found = 0
        for _ in range(rounds):
            t = _shuffled(rng, n)
            a0, a1 = conjugated(inverse(t), step0(n)), conjugated(inverse(t), step1(n))
            if n > 255:
                with pytest.raises(ValueError, match=wide(n)):
                    find_conjugator(a0, a1, n)
                continue
            tau = self._agree(a0, a1, n)
            assert conjugated(tau, a0) == step0(n)
            assert conjugated(tau, a1) == step1(n)
            i, j = rng.sample(range(1, n + 1), 2)
            for b0, b1 in ((_swapped(a0, i, j), a1), (a0, _swapped(a1, i, j)),
                           (_swapped(a0, i, j), _swapped(a1, i, j))):
                found += self._agree(b0, b1, n) is not None
        if 2 < n <= 255:
            assert found < rounds * 3  # some perturbation has no conjugator

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_pairs(self, n):
        rng = random.Random(50 + n)
        perms = list(itertools.permutations(range(1, n + 1)))
        for a0 in perms:
            for a1 in rng.sample(perms, min(len(perms), 8)):
                self._agree(a0, a1, n)

    def test_two_alignments_at_degree_two_identity_wins(self):
        s0, s1 = step0(2), step1(2)
        assert h0_splices(bytes(s1)) == [bytes(s0), bytes(s0)]
        assert _rotations_and_filter(s0, s1, 2) == (1, 2)
        assert self._agree(s0, s1, 2) == (1, 2)

    @pytest.mark.parametrize("n", list(range(3, 27)) + [255])
    def test_tuple_and_bytes_splices_agree(self, n):
        """The splices of a ``bytes`` n-cycle against the oracle's
        conjugates t^-1 step0 t over the alignments t of its cycle."""
        rng = random.Random(n)
        for _ in range(2 if n == 255 else 6):
            t = _shuffled(rng, n)
            a1 = conjugated(inverse(t), step1(n))
            got = h0_splices(bytes(a1))
            assert all(type(key) is bytes for key in got)
            want = [conjugated(inverse(tau), step0(n))
                    for tau in cycle_alignments(cycle_through(a1, 1), n, n)]
            assert [tuple(key) for key in got] == want


class TestPrefixTable:
    """The classes read off the windows of the decoding against the
    composition oracle: two positions share a class, so get equal
    ``class_ids``, exactly where the prefix permutations are equal."""

    def test_empty_word(self):
        table = table_of("", 4)
        assert table.classes == []
        assert table.word == bytes(canonical_prefix(4).letters)

    def test_full_word_consistency(self):
        bits = "0110101"
        table = table_of(bits, 5)
        assert tuple(table.word) == decode(bits, canonical_prefix(5)).letters
        window = tuple(table.word[-4:])
        assert window + (15 - sum(window),) == tuple(word_permutation(bits, 5))

    def test_factor_queries_match_recomputation(self):
        rng = random.Random(99)
        outcomes = set()
        for n in (3, 4):
            bits = "".join(rng.choice("01") for _ in range(80))
            ids = class_ids(table_of(bits, n).classes, len(bits) + 1)
            for i in range(len(bits) + 1):
                for j in range(i, len(bits) + 1):
                    in_kernel = is_kernel_word(bits[i:j], n)
                    assert (ids[i] == ids[j]) == in_kernel, (n, i, j)
                    outcomes.add(in_kernel)
        assert outcomes == {False, True}

    def test_ids_mark_equal_prefixes(self):
        bits = "11" * 4  # the image of 1 has order 2 at n = 2
        ids = class_ids(table_of(bits, 2).classes, len(bits) + 1)
        perms = prefix_permutations(bits, 2)
        for i in range(len(bits) + 1):
            for j in range(len(bits) + 1):
                assert (ids[i] == ids[j]) == (perms[i] == perms[j])
        occs = find_kernel_repetitions(bits, 2)
        assert occ_triples(occs) == brute_kernel_repetitions(bits, 2)
        assert {o.period for o in occs} == {2, 4, 6}

    def test_ids_match_composition_oracle_random(self):
        rng = random.Random(2026)
        for n in range(2, 9):
            for _ in range(30):
                bits = "".join(rng.choice("01") for _ in range(rng.randint(0, 300)))
                table = table_of(bits, n)
                assert tuple(table.word) == decode(bits, canonical_prefix(n)).letters
                ids = class_ids(table.classes, len(bits) + 1)
                assert same_partition(ids, prefix_permutations(bits, n)), (n, bits)

    @pytest.mark.parametrize("n", [15, 16])
    def test_ids_match_composition_oracle_builtin_probe(self, n):
        bits = probe_encoding(n)
        ids = class_ids(table_of(bits, n).classes, len(bits) + 1)
        assert same_partition(ids, prefix_permutations(bits, n))


def _first_equal_windows(bits, n):
    """The decoding by the plain loop, and for every window the first
    position of an equal window, by tuple interning."""
    letters = _decode_loop(bits, tuple(range(1, n)), n)
    first = {}
    return letters, [first.setdefault(tuple(letters[k:k + n - 1]), k)
                     for k in range(len(bits) + 1)]


class TestBulkKeys:
    """The classes read off 1-, 2-, 4- and 8-byte window keys against tuple
    interning of the windows: n = 2, 3, 5 and 9 are the first alphabet sizes
    of each key width, and n = 255, the widest alphabet, keys 8 letters.
    Above 255 letters no word decodes, so no table is built."""

    WORDS = {"random": None, "zeros": "0", "ones": "1", "alternating": "01",
             "0110": "0110", "almost periodic": "0010"}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 9, 10, 12, 26, 255, 256, 300])
    def test_ids_are_first_equal_windows(self, n):
        rng = random.Random(300 + n)
        if n > 255:
            with pytest.raises(ValueError, match=wide(n)):
                table_of("01" * n, n)
            return
        words = []
        for kind, unit in self.WORDS.items():
            length = rng.choice((0, 1, 2 * n + 3, 1200))
            if unit is None:
                bits = "".join(rng.choice("01") for _ in range(length))
            else:
                bits = (unit * length)[:length]
                if kind == "almost periodic" and bits:
                    k = rng.randrange(len(bits))
                    bits = bits[:k] + str(1 - int(bits[k])) + bits[k + 1:]
            words.append((kind, bits))
        words.append(("ones past n", "1" * (2 * n + 1)))  # 1^n maps to the identity
        outcomes = set()
        for kind, bits in words:
            letters, want = _first_equal_windows(bits, n)
            table = table_of(bits, n)
            assert type(table.word) is bytes, (n, kind)
            assert tuple(table.word) == decode(bits, canonical_prefix(n)).letters, (n, kind)
            assert list(table.word) == letters, (n, kind)
            assert class_ids(table.classes, len(bits) + 1) == want, (n, kind)
            distinct = want == list(range(len(bits) + 1))
            assert (table.repeat < n - 1) == distinct, (n, kind)
            outcomes.add(distinct)
        assert outcomes == {False, True}

    @pytest.mark.parametrize("n", [4, 12, 255, 300])
    def test_equal_keys_of_unequal_windows(self, n):
        """Windows that share their key but differ past it share no class;
        the words are long enough that such pairs occur."""
        size = 2 if n == 4 else 8
        rng = random.Random(n)
        bits = "".join(rng.choice("01") for _ in range(3000))
        if n > 255:
            with pytest.raises(ValueError, match=wide(n)):
                table_of(bits, n)
            return
        letters, want = _first_equal_windows(bits, n)
        keys = [tuple(letters[k:k + size]) for k in range(len(bits) + 1)]
        by_key = {}
        clashes = [k for k, key in enumerate(keys)
                   if want[by_key.setdefault(key, k)] != want[k]]
        assert clashes
        assert class_ids(table_of(bits, n).classes, len(bits) + 1) == want


class TestKeyedPass:
    """``word``, ``classes`` and ``repeat`` against their definitions: the
    plain decoding loop, the first equal window by tuple interning, the
    blocks of two or more equal prefix permutations of the composition
    oracle, and the brute-force longest repeated factor, on words that
    reach every branch of the one keyed pass.  Each class is one such
    block, ascending, and each such block is a class.  Each key holds the
    position it met last, lane by lane, so a key whose later occurrence
    lies in an earlier lane is held at its earlier one."""

    @staticmethod
    def branches(bits, n):
        """Checks the table of ``bits`` and returns the branches it took."""
        table = table_of(bits, n)
        letters, want = _first_equal_windows(bits, n)
        assert list(table.word) == letters, (n, bits)
        assert class_ids(table.classes, len(bits) + 1) == want, (n, bits)
        blocks = classes_of(prefix_permutations(bits, n))
        assert sorted(table.classes) == sorted(blocks), (n, bits)
        g = max(s for s in (1, 2, 4, 8) if s < n)
        met = {repeat_case(table, n, g)}
        repeats = repeated_factor_starts(table.word, g)
        if not repeats:
            return met | {"distinct keys"}
        met.add("repeats" if len(repeats) < 1000 else "thousands of repeats")
        if min(repeats) > len(bits):
            met.add("repeats past the last state only")
        positions: dict = {}
        for p in range(len(table.word) - g + 1):
            positions.setdefault(tuple(table.word[p:p + g]), []).append(p)
        for ps in positions.values():
            held = max(ps, key=lambda p: (p % g, p))
            if held < max(ps):
                met.add("held before a later occurrence")
        return met

    def test_missing_positions(self):
        """``_missing`` against a membership filter: none, all, and gaps at
        either end or in between, one position wide or many."""
        rng = random.Random(29)
        for total in (1, 2, 3, 10, 300):
            for share in (0, 0.1, 0.5, 0.9, 1):
                present = [p for p in range(total) if rng.random() < share]
                rng.shuffle(present)
                want = [p for p in range(total) if p not in present]
                assert _missing(present, total) == want, (total, present)

    @pytest.mark.parametrize("n", [*range(2, 10), 255, 300])
    def test_random_and_periodic_words(self, n):
        rng = random.Random(2900 + n)
        words = ["", "1", "0" * (n + 3), "1" * (2 * n + 1)]
        if n > 255:
            for bits in words:
                with pytest.raises(ValueError, match=wide(n)):
                    table_of(bits, n)
            return
        for _ in range(3 if n == 255 else 25):
            words.append("".join(rng.choice("01") for _ in range(rng.randint(1, 300))))
            unit = "".join(rng.choice("01") for _ in range(rng.randint(1, 12)))
            words.append(unit * rng.randint(1, 30))
        met = set()
        for bits in words:
            met |= self.branches(bits, n)
        assert {"distinct keys", "repeats", "window"} <= met, n
        if n > 2:
            assert "held before a later occurrence" in met, n

    @pytest.mark.parametrize("n,bits", [(6, "110110011011001101001010011111"),
                                        (12, "11100101010011111111100")])
    def test_repeats_past_the_last_state(self, n, bits):
        assert "repeats past the last state only" in self.branches(bits, n)

    def test_thousands_of_repeats(self):
        window = next(m for m in load_perfbench_mutants().generate(1) if m.kind == "window0")
        periodic = UniformMorphism(26, "0" * 104, "0" * 103 + "1")
        for h in (UniformMorphism(window.n, window.image0, window.image1), periodic):
            met = self.branches(probe_encoding(h), h.n)
            assert {"thousands of repeats", "window"} <= met, h.n


class TestNonBinaryInput:
    """Every symbol other than 0 and 1 is rejected, whitespace included,
    with its position."""

    CASES = [("0x1", 5, "'x' at position 1"), ("22", 2, "'2' at position 0"),
             ("01 ", 3, "' ' at position 2"), ("\n11", 4, "'\\n' at position 0"),
             ("0110" * 4 + "2" + "1" * 9, 15, "'2' at position 16"),
             ("1" * 20 + "a", 255, "'a' at position 20"),
             ("1" * 20 + "a", 300, "'a' at position 20")]

    @pytest.mark.parametrize("bits,n,message", CASES)
    def test_rejected_everywhere(self, bits, n, message):
        """Above 255 letters the alphabet is rejected before a bit is read."""
        pattern = wide(n) if n > 255 else re.escape(message)
        for call in (word_permutation, is_kernel_word, decode_letters, find_kernel_repetitions):
            with pytest.raises(ValueError, match=pattern):
                call(bits, n)


class TestWideAlphabet:
    """A letter of a decoding is one byte, so every entry point that decodes
    rejects an alphabet of more than 255 letters with one message, and so do
    a morphism and the search, which decode later; 255 letters decode.
    ``encode`` decodes nothing and takes any alphabet."""

    @pytest.mark.parametrize("n", [256, 300])
    def test_rejected_everywhere(self, n):
        bits = "0110"
        for call in (lambda: decode(bits, canonical_prefix(n)), lambda: decode_letters(bits, n),
                     lambda: decode_letters(bits, n, ("01", "10")),
                     lambda: word_permutation(bits, n), lambda: is_kernel_word(bits, n),
                     lambda: find_kernel_repetitions(bits, n),
                     lambda: UniformMorphism(n, "01", "10"), lambda: search_convenient(n, 8)):
            with pytest.raises(ValueError, match=wide(n)):
                call()

    def test_widest_alphabet_decodes(self):
        n, bits = 255, "1" * 300
        letters = decode_letters(bits, n)
        assert decode(bits, canonical_prefix(n)).letters == tuple(letters)
        assert max(letters) == 255
        assert decode_letters("0110", n, ("01", "10")) == decode_letters("01101001", n)
        assert tuple(word_permutation(bits, n)) == brute_word_permutation(bits, n)
        assert not is_kernel_word(bits, n) and is_kernel_word(bits[:n], n)
        assert occ_triples(find_kernel_repetitions(bits, n)) == brute_kernel_repetitions(bits, n)
        assert UniformMorphism(n, "01", "10").n == n
        assert search_convenient(n, 8) == []
        assert encode(SigmaWord(300, tuple(range(1, 301)))) == "1"
