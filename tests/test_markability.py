import random

import pytest

from dejean.markability import (PhaseConflict, _phase_conflicts,
                                check_all_length_r_factors_markable)
from dejean.morphisms import (BUILTIN_SIZES, FactorSet, UniformMorphism,
                              builtin, factor_closure)

from helpers import (brute_is_2markable, brute_markability_report, limit_prefix,
                     load_perfbench_mutants)


def is_2markable(v, h, U):
    """Whether every occurrence of v in an image of a member of U shares one
    phase word, with the first conflicting pair of occurrences otherwise:
    the shape of ``brute_is_2markable``, read off ``_phase_conflicts``."""
    conflict = _phase_conflicts(h, U, len(v)).get(v)
    return conflict is None, conflict


@pytest.fixture(scope="module")
def h15():
    return builtin(15)


@pytest.fixture(scope="module")
def U15(h15):
    return factor_closure(h15, 2)


def _oracle_morphisms():
    """Groups: the builtins, the benchmark's mutants of seeds 1-3 and random
    small morphisms (h(0) starts with 0, so each has a limit word)."""
    mutants = load_perfbench_mutants()
    groups = {"builtins": [builtin(n) for n in BUILTIN_SIZES]}
    for seed in (1, 2, 3):
        groups[f"mutants-{seed}"] = [UniformMorphism(m.n, m.image0, m.image1)
                                     for m in mutants.generate(seed)]
    rng = random.Random(11)
    groups["random"] = []
    for _ in range(40):
        r = rng.randrange(2, 9)
        groups["random"].append(UniformMorphism(
            rng.randrange(3, 6), "0" + "".join(rng.choice("01") for _ in range(r - 1)),
            "".join(rng.choice("01") for _ in range(r))))
    return groups


ORACLE_MORPHISMS = _oracle_morphisms()
ALL_PAIRS = FactorSet(2, frozenset({"00", "01", "10", "11"}))


def _sample_words(h, rng):
    """Twelve words: the empty word, factors of h(0110) from one letter to
    2r letters, and a random binary word."""
    r = h.r
    probe = h.apply("0110")
    words = [""]
    for k in (1, 2, 3, max(1, r // 2), max(1, r - 1), r, r + 1, r + 3, 2 * r, 2 * r + 1):
        i = rng.randrange(len(probe) - k + 1)
        words.append(probe[i:i + k])
    words.append("".join(rng.choice("01") for _ in range(4)))
    return words


class TestAgainstOracle:
    @pytest.mark.parametrize("group", ORACLE_MORPHISMS)
    def test_batch_report_matches_oracle(self, group):
        for h in ORACLE_MORPHISMS[group]:
            assert check_all_length_r_factors_markable(h) == brute_markability_report(h), h

    @pytest.mark.parametrize("group", ORACLE_MORPHISMS)
    def test_is_2markable_matches_oracle(self, group):
        rng = random.Random(group)
        for h in ORACLE_MORPHISMS[group]:
            for U in (factor_closure(h, 2), ALL_PAIRS):
                for v in _sample_words(h, rng):
                    assert is_2markable(v, h, U) == brute_is_2markable(v, h, U), (h, U, v)

    def test_batch_oracle_sees_failures(self):
        # the comparisons above are not vacuous: some reports list failures
        failing = {group: sum(not brute_markability_report(h).passed for h in hs)
                   for group, hs in ORACLE_MORPHISMS.items()}
        assert failing["builtins"] == 0
        assert failing["mutants-1"] >= 1 and failing["random"] >= 10

    def test_overlapping_occurrences_in_one_image(self):
        # image(00) = 01010101: "01" at 0, 2, 4, 6 with phases "", "01", "", "01"
        h = UniformMorphism(3, "0101", "0110")
        U = FactorSet(2, frozenset({"00"}))
        ok, conflict = is_2markable("01", h, U)
        assert (ok, conflict) == brute_is_2markable("01", h, U)
        assert conflict == PhaseConflict(("00", 0, ""), ("00", 2, "01"))
        # "0101" at 0 and at 2 overlap; a scan resumed after a match misses the second
        assert (is_2markable("0101", h, U) == brute_is_2markable("0101", h, U)
                == (False, PhaseConflict(("00", 0, ""), ("00", 2, "01"))))


class TestIs2Markable:
    def test_single_occurrence_is_markable(self, h15, U15):
        # a factor of image(0) long enough to pin down one position
        v = h15.image0[:h15.r]
        ok, conflict = is_2markable(v, h15, U15)
        assert ok and conflict is None

    def test_single_letter_not_markable(self, U15):
        for n in (15, 20, 26):
            h = builtin(n)
            ok, conflict = is_2markable("0", h, factor_closure(h, 2))
            assert not ok
            assert conflict is not None
            (u1, p1, x1), (u2, p2, x2) = conflict.first, conflict.second
            assert x1 != x2
            assert "phase" in conflict.describe()

    def test_no_occurrence_is_vacuously_markable(self, h15, U15):
        ok, conflict = is_2markable("0" * (2 * h15.r + 1), h15, U15)
        assert ok and conflict is None

    def test_synthetic_conflict(self):
        # "011" sits at phase "" in image(1) and at phase "0" in image(0)
        h = UniformMorphism(3, "0011", "0110")
        U = FactorSet(2, frozenset({"01", "10", "11"}))
        ok, conflict = is_2markable("011", h, U)
        assert not ok
        assert {conflict.first[2], conflict.second[2]} == {"", "0"}


class TestBatchCheck:
    def test_h15_all_markable(self, h15):
        report = check_all_length_r_factors_markable(h15)
        assert report.passed
        assert report.factor_count == 164
        assert "all 2-markable" in report.describe()

    @pytest.mark.parametrize("n", BUILTIN_SIZES)
    def test_all_builtin_markable(self, n):
        assert check_all_length_r_factors_markable(builtin(n)).passed

    def test_corrupted_morphism_reports_coherently(self, h15):
        # flipping one bit may or may not break 2-markability; the checker
        # must still produce a structurally sound report either way
        rng = random.Random(6)
        for _ in range(3):
            k = rng.randrange(h15.r)
            flipped = h15.image0[:k] + ("1" if h15.image0[k] == "0" else "0") + h15.image0[k + 1:]
            bad = UniformMorphism(15, flipped, h15.image1)
            report = check_all_length_r_factors_markable(bad)
            assert report.factor_count > 0
            assert report.passed == (len(report.failures) == 0)
            for v, conflict in report.failures:
                assert len(v) == bad.r
                assert conflict.first[2] != conflict.second[2]

    def test_extension_closure_on_samples(self, h15, U15):
        # extensions, inside the factor universe, of 2-markable words stay
        # 2-markable
        r = h15.r
        rng = random.Random(2)
        extended = sorted(factor_closure(h15, r + 2))
        for w in rng.sample(extended, 25):
            core = w[1:-1]
            ok_core, _ = is_2markable(core, h15, U15)
            if ok_core:
                ok_ext, _ = is_2markable(w, h15, U15)
                assert ok_ext

    def test_probe_covers_limit_prefix_factors(self):
        for n in (15, 26):
            h = builtin(n)
            r = h.r
            probe = h.apply("0110")
            probe_factors = {probe[i:i + r] for i in range(len(probe) - r + 1)}
            text = limit_prefix(h, 10 * r)
            for i in range(len(text) - r + 1):
                assert text[i:i + r] in probe_factors
