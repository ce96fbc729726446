import random
import sys
from itertools import permutations

import pytest

from dejean import search
from dejean.morphisms import UniformMorphism, _factors, builtin
from dejean.pansiot import canonical_prefix, decode
from dejean.perms import _cycle_type, find_conjugator, h0_splices, h1_splices, word_permutation
from dejean.search import (_classify, _screen_pair, _walk, enumerate_legal,
                           legal_length_counts, search_convenient)
from dejean.verifier import CHECK_NAMES, probe_encoding, probe_word, run_check, verify
from dejean.words import find_repetitions_exceeding, has_repetition_exceeding

from helpers import (all_words, conjugated, cycle_alignments, cycle_through, inverse,
                     limit_prefix, step0, step1)


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

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_brute_filter_small_alphabets(self, n):
        # from length 2 on, every length has prefixes 00, whose 0 child the
        # walk never tests
        expected = [brute_legal(n, length) for length in range(1, 9)]
        for length, legal in enumerate(expected, start=1):
            seen = []
            enumerate_legal(n, length, seen.append)
            assert seen == legal, (n, length)
        assert legal_length_counts(n, 8) == [1] + [len(legal) for legal in expected]

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

    @pytest.mark.parametrize("entry,n,length", [(legal_length_counts, 1, 5),
                                                (legal_length_counts, 1, 0),
                                                (enumerate_legal, 0, 3),
                                                (search_convenient, 1, 4),
                                                (search_convenient, 1, 9)])
    def test_alphabet_below_two_is_rejected(self, entry, n, length):
        with pytest.raises(ValueError, match=f"^alphabet size must be >= 2, got {n}$"):
            entry(n, length)

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

    @pytest.mark.parametrize("n", [2, 15])
    def test_length_zero_counts_the_empty_word(self, n):
        assert legal_length_counts(n, 0) == [1]

    def test_negative_length_is_rejected(self):
        with pytest.raises(ValueError, match="^max_length must be >= 0, got -1$"):
            legal_length_counts(15, -1)


def _leaves(n, length, first=None):
    """(bits, sig) of every leaf, as a string and a tuple."""
    out = []
    _walk(n, length, lambda code, w, end: out.append((code.decode(), tuple(w[end - n:end]))),
          first=first)
    return out


class TestSplitWalk:
    """The walk under one first bit, which the search runs twice: 1, then 0."""

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("length", [1, 2, 9, 22])
    def test_the_two_subtrees_are_the_full_walk(self, n, length):
        full = _leaves(n, length)
        ones, zeros = _leaves(n, length, first=1), _leaves(n, length, first=0)
        assert ones == [leaf for leaf in full if leaf[0][0] == "1"]
        assert zeros == [leaf for leaf in full if leaf[0][0] == "0"]
        assert ones == sorted(ones) and zeros == sorted(zeros)
        assert _walk(n, length, None, first=1) == len(ones)
        assert _walk(n, length, None, first=0) == len(zeros)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("length", [1, 2, 9, 22])
    def test_depth_counts_add_up(self, n, length):
        # the empty word is in neither subtree
        full, ones, zeros = ([0] * (length + 1) for _ in range(3))
        _walk(n, length, None, depth_counts=full)
        _walk(n, length, None, depth_counts=ones, first=1)
        _walk(n, length, None, depth_counts=zeros, first=0)
        assert [a + b for a, b in zip(ones, zeros)] == [0] + full[1:]
        assert full[0] == 1 and full == legal_length_counts(n, length)


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


class TestHotPathIdentities:
    """The search's shortcuts against the permutation algebra they replace."""

    @pytest.mark.parametrize("n,max_length", [(4, 12), (5, 12), (6, 12), (7, 12), (15, 14)])
    def test_leaf_sig_is_word_permutation(self, n, max_length):
        for length in range(1, max_length + 1):
            for bits, sig in _leaves(n, length):
                assert sig == tuple(word_permutation(bits, n)), (n, bits)

    @pytest.mark.parametrize("n", range(3, 27))
    def test_splice_lists_match_conjugation(self, n):
        rng = random.Random(n)
        s0, s1 = step0(n), step1(n)
        for _ in range(8):
            a1 = _random_full_cycle(rng, n)
            expected = [conjugated(inverse(tau), s0)
                        for tau in cycle_alignments(cycle_through(a1, 1), n, n)]
            got = h0_splices(bytes(a1))
            assert [tuple(key) for key in got] == expected
            for a0 in got:
                assert find_conjugator(a0, bytes(a1), n) is not None

            a0 = _random_h0_image(rng, n)
            fixed = next(i for i in range(1, n + 1) if a0[i - 1] == i)
            cyc = cycle_through(a0, 2 if fixed == 1 else 1)
            expected = [conjugated(inverse(tau), s1)
                        for tau in cycle_alignments(cyc, n - 1, n, fixed)]
            got = h1_splices(bytes(a0))
            assert [tuple(key) for key in got] == expected
            for a1 in got:
                assert find_conjugator(bytes(a0), a1, n) is not None

    @staticmethod
    def _by_cycle_type(images, n):
        ct = _cycle_type(bytes(images))
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


def _sign_by_count(bits, n):
    """The sign rule: each 0 maps to an (n-1)-cycle, each 1 to an n-cycle."""
    zeros = bits.count("0")
    return (-1) ** (zeros * (n - 2) + (len(bits) - zeros) * (n - 1))


def _sign(images):
    """(-1)^(n - number of cycles), the cycles fixed points included."""
    return (-1) ** (len(images) - len(_cycle_type(bytes(images))))


class TestSignRule:
    @pytest.mark.parametrize("n", range(2, 27))
    def test_sign_counts_the_bits(self, n):
        rng = random.Random(n)
        for _ in range(40):
            bits = "".join(rng.choice("01") for _ in range(rng.randrange(80)))
            assert _sign(word_permutation(bits, n)) == _sign_by_count(bits, n), (n, bits)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_candidate_leaves_have_their_kind_sign(self, n):
        kinds = set()
        for length in range(1, 15):
            for bits, sig in _leaves(n, length):
                sign = _sign_by_count(bits, n)
                assert _sign(sig) == sign, (n, bits)
                kind = _classify(sig, n)
                if kind != "neither":
                    kinds.add(kind)
                    assert sign == (-1) ** (n if kind == "h0" else n - 1), (n, bits, kind)
        assert kinds == {"h0", "h1"}


class TestClassifyCandidate:
    """The role of a binary word by the cycle type of its permutation image."""

    @staticmethod
    def role(bits, n):
        return _classify(tuple(word_permutation(bits, n)), n)

    def test_builtin_images(self):
        h = builtin(15)
        assert self.role(h.image1, 15) == "h1"
        assert self.role(h.image0, 15) == "h0"

    def test_kernel_word_is_neither(self):
        assert self.role("", 15) == "neither"
        assert self.role("1" * 15, 15) == "neither"


class TestSearchConvenient:
    def test_too_short_space_is_empty(self):
        assert search_convenient(15, 3, limit=1) == []

    def test_alphabet_beyond_one_byte_is_rejected_before_the_walk(self, monkeypatch):
        monkeypatch.setattr(search, "_walk", None)
        with pytest.raises(ValueError, match="alphabet size must be <= 255, got 256"):
            search_convenient(256, 8)

    @pytest.mark.parametrize("n,length", [(2, 9), (6, 25), (6, 54), (15, 61)])
    def test_images_longer_than_4n_return_nothing_before_the_walk(self, monkeypatch, n, length):
        # `structure` fails every pair with r > 4n
        monkeypatch.setattr(search, "_walk", None)
        assert search_convenient(n, length) == []

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            search_convenient(15, 8, limit=0)

    @pytest.mark.parametrize("n,length", [(5, 20), (6, 24), (7, 28)])
    def test_each_pair_is_screened_once(self, monkeypatch, n, length):
        # every leaf is pooled once, so no pair is screened twice
        screened = []
        monkeypatch.setattr(search, "_screen_pair",
                            lambda n, a, b: screened.append((a, b)) or "structure")
        assert search_convenient(n, length) == []
        assert screened and len(screened) == len(set(screened))

    def test_results_verify(self):
        # tiny synthetic space: no convenient morphism exists at this length,
        # and the search must terminate cleanly
        assert search_convenient(5, 6, limit=2) == []


def _spliced_h0_images(a1, n):
    """Reference for ``perms.h0_splices``: a1 with each point of its cycle
    cut out in turn, in the order of ``perms.find_conjugator``'s alignments."""
    cyc = cycle_through(a1, 1)
    out = []
    for k in range(n - 1, -1, -1):
        x = cyc[k]
        img = list(a1)
        img[cyc[k - 1] - 1] = a1[x - 1]
        img[x - 1] = x
        out.append(tuple(img))
    return out


def _spliced_h1_images(a0, n):
    """Reference for ``perms.h1_splices``: a0's fixed point inserted after
    each point of its long cycle in turn."""
    fix = next(i for i in range(1, n + 1) if a0[i - 1] == i)
    cyc = cycle_through(a0, 2 if fix == 1 else 1)
    out = []
    for y in reversed(cyc):
        img = list(a0)
        img[fix - 1] = a0[y - 1]
        img[y - 1] = fix
        out.append(tuple(img))
    return out


class _ListPairing:
    """Reference: the pairing with unpacked pools and no end-bit rule, an
    r-character str per candidate in a list under its permutation image as
    an n-tuple, spliced by list edits instead of ``perms.h0_splices`` and
    ``perms.h1_splices``."""

    def __init__(self, n):
        self.n = n
        self.h0_by_perm = {}
        self.h1_by_perm = {}

    def pool_sizes(self):
        return (sum(len(v) for v in self.h0_by_perm.values()),
                sum(len(v) for v in self.h1_by_perm.values()))

    def add(self, bits, sig, kind):
        n = self.n
        if kind == "h1":
            for a0 in _spliced_h0_images(sig, n):
                for other in self.h0_by_perm.get(a0, ()):
                    yield other, bits
            self.h1_by_perm.setdefault(sig, []).append(bits)
        elif kind == "h0":
            for a1 in _spliced_h1_images(sig, n):
                for other in self.h1_by_perm.get(a1, ()):
                    yield bits, other
            self.h0_by_perm.setdefault(sig, []).append(bits)


def _candidate_leaves(n, length):
    """(bits, sig, kind) of every h0 or h1 leaf, bits a list of "0"/"1" and
    sig a list, so that packing either way makes new objects."""
    out = []

    def on_leaf(code, w, end):
        sig = w[end - n:end]
        kind = _classify(sig, n)
        if kind != "neither":
            out.append((list(code.decode()), sig, kind))

    _walk(n, length, on_leaf)
    return out


def _packed(bits, sig):
    """A candidate as ``search._Pairing`` pools it."""
    return int("".join(bits), 2), bytes(sig)


def _unpacked(bits, sig):
    return "".join(bits), tuple(sig)


def _end_bits_can_pass(h0, h1):
    """The end-bit rule, as ``search._Pairing``'s docstring states it."""
    return (h1[0] == "1" and h0[-1] != h1[-1]
            and (h1[-1] == "1" or h0[0] == "1"))


def _admitted(bits, kind):
    """Whether some pair can use a candidate of this kind by the end-bit
    rule: an h1 that starts with 1, an h0 other than 0...1."""
    return bits[0] == "1" if kind == "h1" else not (bits[0] == "0" and bits[-1] == "1")


def _live_pools(leaves):
    """The (h0, h1) pool sizes ``search_convenient`` holds once it has
    pooled ``leaves``, (bits, kind) pairs in its order: every admitted
    candidate while the leaves are 1-led; once a 0-led leaf has come, no
    h1 can, and only the h1 ending in 1 stay pooled."""
    admitted = [(bits, kind) for bits, kind in leaves
                if kind != "neither" and _admitted(bits, kind)]
    if any(bits[0] == "0" for bits, _ in leaves):
        return 0, sum(kind == "h1" and bits[-1] == "1" for bits, kind in admitted)
    kinds = [kind for _, kind in admitted]
    return kinds.count("h0"), kinds.count("h1")


def _search_order(leaves):
    """Leaves in the order ``search_convenient`` pools them: the 1-led ones,
    then the 0-led ones, each in walk order."""
    return sorted(leaves, key=lambda leaf: leaf[0][0] == "0")


def _both_pairings(n, length, order=list):
    """The packed pairs and the reference pairs of every candidate leaf,
    each in discovery order, the leaves taken in ``order(leaves)``."""
    leaves = order(_candidate_leaves(n, length))
    packed, reference = search._Pairing(length), _ListPairing(n)
    got, expected = [], []
    for bits, sig, kind in leaves:
        got.extend(packed.add(*_packed(bits, sig), kind))
        expected.extend(reference.add(*_unpacked(bits, sig), kind))
    return leaves, packed, got, expected


class TestPackedPairing:
    @pytest.mark.parametrize("n,length", [(5, 30), (6, 30), (7, 30)])
    def test_packed_pools_pair_as_the_list_pools(self, n, length):
        # the reference pools admit every candidate and pair every
        # conjugacy-compatible pair; the packed ones keep those the end-bit
        # rule allows, in the same order
        leaves, packed, got, expected = _both_pairings(n, length)
        kinds = [kind for _, _, kind in leaves]
        assert "h0" in kinds and "h1" in kinds
        assert got == [pair for pair in expected if _end_bits_can_pass(*pair)]
        assert got and len(got) < len(expected)
        assert packed.pairs_tried == len(got)
        admitted = [kind for bits, _, kind in leaves if _admitted(bits, kind)]
        assert packed.pool_sizes() == (admitted.count("h0"), admitted.count("h1"))

    def test_no_h1_after_closing(self):
        # close_h1 drops both h0 pools and the h1 pool ending in 0; a 0-led
        # h0 ending in 0 still pairs against the h1 ending in 1, unpooled
        n, length = 6, 24
        leaves = _search_order(_candidate_leaves(n, length))
        split = next(k for k, (bits, _, _) in enumerate(leaves) if bits[0] == "0")
        pairing = search._Pairing(length)
        for bits, sig, kind in leaves[:split]:
            list(pairing.add(*_packed(bits, sig), kind))
        pairing.close_h1()
        assert not any(pairing.h0_by_perm) and not pairing.h1_by_perm[0]
        late = [pair for bits, sig, kind in leaves[split:]
                for pair in pairing.add(*_packed(bits, sig), kind)]
        assert late and pairing.pool_sizes() == _live_pools([(b, k) for b, _, k in leaves])
        h1 = next(leaf for leaf in leaves[:split] if leaf[2] == "h1")
        with pytest.raises(RuntimeError):
            list(pairing.add(*_packed(h1[0], h1[1]), "h1"))

    def test_pool_memory_per_candidate(self):
        # n=15, length 44: of 2,606 h0 and 796 h1 candidates, the pools admit
        # 1,869 and 417, and pair 156.  Every object the pools keep is made
        # while traced, as the search makes it; gc.collect() first empties
        # the interpreter's free lists, which would otherwise hand out
        # untraced tuples depending on the tests run before.
        # Calibration: the packed pools retain about 200 bytes per admitted
        # candidate, the list pools (an r-character str under an n-tuple,
        # every candidate admitted) about 376.
        import gc
        import tracemalloc

        def retained_per_candidate(pairing, pack):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for bits, sig, kind in leaves:
                    for _ in pairing.add(*pack(bits, sig), kind):
                        pass
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            return retained / sum(pairing.pool_sizes())

        n, length = 15, 44
        leaves = _candidate_leaves(n, length)
        packed = retained_per_candidate(search._Pairing(length), _packed)
        unpacked = retained_per_candidate(_ListPairing(n), _unpacked)
        assert packed <= 250 < unpacked, (packed, unpacked)


class TestSearchLeafPath:
    """``search_convenient``'s own leaf callback, every pair rejected by a
    stubbed screen: its end-bit and sign filters drop no pair and no pooled
    candidate of the reference pairing."""

    @staticmethod
    def _search(monkeypatch, n, length):
        screened, pairings, lines = [], [], []

        class Recording(search._Pairing):
            def __init__(self, r):
                super().__init__(r)
                pairings.append(self)

        monkeypatch.setattr(search, "_Pairing", Recording)
        monkeypatch.setattr(search, "_screen_pair",
                            lambda n, a, b: screened.append((a, b)) or "structure")
        assert search_convenient(n, length, progress=lines.append) == []
        return screened, pairings[0], lines

    @pytest.mark.parametrize("n,length", [(5, 20), (6, 24), (7, 28), (8, 30)])
    def test_screens_the_reference_pairs(self, monkeypatch, n, length):
        leaves, _, _, expected = _both_pairings(n, length, _search_order)
        screened, pairing, lines = self._search(monkeypatch, n, length)
        assert screened == [pair for pair in expected if _end_bits_can_pass(*pair)]
        # the exhaustive run ends in the 0-led pass, which pools no h0
        live = _live_pools([(bits, kind) for bits, _, kind in leaves])
        assert pairing.pool_sizes() == live and live[1]
        assert screened and lines == []
        # the sign rule has 0...0 leaves to drop here
        assert any(bits[0] == bits[-1] == "0" and _sign_by_count(bits, n) != (-1) ** n
                   for bits, _ in _leaves(n, length))

    @pytest.mark.parametrize("n,length", [(5, 20), (6, 24), (7, 28), (8, 30)])
    def test_exhaustive_run_screens_the_walk_orders_pairs(self, monkeypatch, n, length):
        # pairing all leaves in plain walk order forms the same pairs
        _, _, _, expected = _both_pairings(n, length)
        screened, _, _ = self._search(monkeypatch, n, length)
        assert len(screened) == len(set(screened))
        assert set(screened) == {pair for pair in expected if _end_bits_can_pass(*pair)}

    def test_progress_line(self, monkeypatch):
        # 244,378 leaves: one line, before the 200,000th leaf is pooled
        n, length = 13, 51
        leaves = []

        def keep(lead):
            def on_leaf(code, w, end):
                if code[0] == lead:
                    leaves.append((code.decode(), tuple(w[end - n:end])))
                return len(leaves) < 199_999
            return on_leaf

        # the search's order, from two full walks
        for lead in b"10":
            _walk(n, length, keep(lead))
        reference, kinds, pairs = _ListPairing(n), [], 0
        for bits, sig in leaves:
            kinds.append(_classify(sig, n))
            pairs += sum(_end_bits_can_pass(*pair) for pair in reference.add(bits, sig, kinds[-1]))
        # the 200,000th leaf is 0-led (141,147 are 1-led): the live pools
        # hold no h0 and only the h1 ending in 1
        h0, h1 = _live_pools([(bits, kind) for (bits, _), kind in zip(leaves, kinds)])
        _, _, lines = self._search(monkeypatch, n, length)
        assert leaves[-1][0][0] == "0" and h0 == 0 and h1 and pairs
        assert lines == [f"200000 words visited, pools h0={h0} h1={h1}, {pairs} pairs tried"]


# The first pair of the n=18, r=68 search that passes verify; not builtin(18).
REDISCOVERED_18 = ("10101010101010110101010110110110101101101011010101010110110110110110",
                   "10101010101010110101010110110101101101101011010110110110110110110101")


class TestRediscovery:
    """Sizes the search reaches in about a second at the builtin r."""

    @pytest.mark.parametrize("n", [16, 20, 22, 23])
    def test_finds_the_builtin(self, n):
        target = builtin(n)
        assert search_convenient(n, target.r, limit=1) == [target]

    def test_n18_finds_a_verified_morphism(self):
        found = search_convenient(18, 68, limit=1)
        assert [(h.image0, h.image1) for h in found] == [REDISCOVERED_18]
        assert verify(found[0]).overall


class TestEndBitRule:
    """The end-bit rule against the checks it stands for.  r is at most 4n
    here: above it, ``structure`` fails every pair, whatever its end bits."""

    CASES = [(5, 20), (6, 24), (7, 28), (8, 30), (8, 31), (8, 32)]

    def test_excluded_pairs_fail_a_cheap_check(self):
        # every pair the pools exclude fails `structure` or `factor_set_2`,
        # in all 13 end-bit classes the rule excludes; and each of the 3
        # classes it admits holds a pair passing both, so a narrower rule
        # would exclude a pair that passes
        excluded, passing = set(), set()
        for n, length in self.CASES:
            _, _, got, expected = _both_pairings(n, length)
            kept = set(got)
            for h0, h1 in expected:
                h = UniformMorphism(n, h0, h1)
                passes = all(run_check(name, h).passed
                             for name in ("structure", "factor_set_2"))
                end_bits = h0[0] + h0[-1] + h1[0] + h1[-1]
                if (h0, h1) not in kept:
                    assert not passes, (n, h0, h1)
                    excluded.add(end_bits)
                elif passes:
                    passing.add(end_bits)
        assert passing == {"0011", "1011", "1110"}
        assert len(excluded) == 13 and not excluded & passing


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
                assert word[:len(w)] == tuple(w), (n, h0, h1)
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

