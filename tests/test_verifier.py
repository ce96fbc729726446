import json
import random

import pytest

import dejean.pansiot
import dejean.perms
import dejean.verifier
from dejean.morphisms import BUILTIN_SIZES, UniformMorphism, builtin, parse_morphism_file
from dejean.pansiot import canonical_prefix, decode, decode_letters
from dejean.perms import word_permutation
from dejean.verifier import (CHECK_NAMES, _collision_runs, _kernel_runs, _power_runs,
                             compute_bounds,
                             find_kernel_repetitions, probe_encoding,
                             probe_word, run_check, verify)
from dejean.words import find_repetitions_exceeding, find_repetitions_with_excess_at_least
from helpers import (brute_kernel_repetitions, class_ids, classes_of, load_perfbench_gate,
                     load_perfbench_mutants, occ_triples, repeat_case, repeated_factor_starts,
                     spy_power_bounds, table_of)


class TestBounds:
    def test_examples(self):
        b = compute_bounds(15)
        assert (b.kernel_bound, b.short_bound) == (1936, 181)
        assert compute_bounds(2).kernel_bound == 25
        assert compute_bounds(2).short_bound == -1
        assert compute_bounds(26).kernel_bound == 5929

    def test_rederivation_range(self):
        for n in range(2, 1001):
            b = compute_bounds(n)
            assert b.kernel_bound == 4 * n + (n - 1) * (9 * n - 1)
            assert b.short_bound < b.kernel_bound


class TestProbeWord:
    @pytest.mark.parametrize("n", BUILTIN_SIZES)
    def test_length_formula(self, n):
        h = builtin(n)
        v = probe_word(n)
        assert len(v) == 4 * h.r * h.r + n - 1
        assert v.window_violation() is None
        assert v.letters[: n - 1] == tuple(range(1, n))

    def test_encoding_length(self):
        assert len(probe_encoding(15)) == 4 * 56 * 56


class TestKernelScan:
    def test_empty_word(self):
        assert find_kernel_repetitions("", 5) == []

    def test_all_ones_word_has_kernel_period_n(self):
        # the n-cycle has order n, so n+1 ones hold a period-n kernel repetition
        n = 5
        occs = find_kernel_repetitions("1" * (n + 1), n)
        assert any(o.period == n for o in occs)

    def test_ones_below_order_are_clean(self):
        assert find_kernel_repetitions("1" * 5, 5) == []

    def test_max_period_filter(self):
        n = 3
        word = "1" * 10
        all_occs = find_kernel_repetitions(word, n)
        capped = find_kernel_repetitions(word, n, max_period=n)
        assert {o.period for o in capped} <= {o.period for o in all_occs}
        assert all(o.period <= n for o in capped)
        assert any(o.period > n for o in all_occs)
        assert n in {o.period for o in capped}  # a period equal to the cap is kept

    def test_witnesses_are_maximal_and_sorted(self):
        occs = find_kernel_repetitions("1" * 9, 2)
        assert occs == sorted(occs, key=lambda o: (o.start, o.period))
        seen = {(o.start, o.period) for o in occs}
        assert len(seen) == len(occs)
        for o in occs:
            # period word maps to the identity
            assert word_permutation("1" * o.period, 2) == bytes((1, 2))

    def test_matches_brute_force_oracle(self):
        """As full lists, against every maximal interval whose period word
        maps to the identity: uncapped, and capped at q-1 and q for the
        first periods q the oracle finds, both where the collision scan is
        cut and where the cap filters the full runs, as ``kernel_free``
        does."""
        rng = random.Random(3)
        seen = set()
        for n in range(2, 10):
            words = ["0" * rng.randint(1, 300), "1" * rng.randint(1, 300),
                     "01" * rng.randint(1, 150)]
            for _ in range(2):
                words.append("".join(rng.choice("01") for _ in range(rng.randint(0, 300))))
                period = "".join(rng.choice("01") for _ in range(rng.randint(1, 3 * n)))
                periodic = (period * 300)[:rng.randint(0, 300)]
                words.append(periodic)
                near = list(periodic)
                for p in rng.sample(range(len(near)), min(2, len(near))):
                    near[p] = "1" if near[p] == "0" else "0"
                words.append("".join(near))
            for bits in words:
                want = brute_kernel_repetitions(bits, n)
                assert occ_triples(find_kernel_repetitions(bits, n)) == want, (n, bits)
                table = table_of(bits, n)
                runs = _collision_runs(table.word, table.classes, n - 1)
                for q in sorted({q for _, q, _ in want})[:3]:
                    for cap in (q - 1, q):
                        cut = [t for t in want if t[1] <= cap]
                        assert occ_triples(find_kernel_repetitions(bits, n, cap)) == cut, (n, bits, cap)
                        assert occ_triples(_kernel_runs(runs, n, cap)) == cut, (n, bits, cap)
                seen.add("found" if want else "none")
        assert seen == {"found", "none"}

    @pytest.mark.parametrize("n", [15, 21])
    def test_builtin_probe_is_kernel_free(self, n):
        bound = compute_bounds(n).kernel_bound
        assert find_kernel_repetitions(probe_encoding(n), n, bound) == []


class TestDecoderStateIdentity:
    """The identity behind the scan-free big_excess_free check: window k of
    length n-1 of the decoding is decoder state k, the k-th prefix
    permutation, so a repetition of period q with excess >= n-1 exists
    exactly when two positions q apart share a class of equal prefix
    permutations."""

    def test_repeated_ids_are_big_excess_periods(self):
        rng = random.Random(99)
        seen_distinct = seen_repeated = False
        for n in range(3, 9):
            for _ in range(40):
                bits = "".join(rng.choice("01") for _ in range(rng.randint(0, 300)))
                classes = table_of(bits, n).classes
                id_periods = {b - a for c in classes for i, a in enumerate(c) for b in c[i + 1:]}
                v = decode(bits, canonical_prefix(n))
                scan_periods = {o.period for o in find_repetitions_with_excess_at_least(v, n - 1)}
                assert id_periods == scan_periods, (n, bits)
                seen_repeated |= bool(id_periods)
                seen_distinct |= not id_periods
        assert seen_distinct and seen_repeated

    def test_collision_runs_equal_unbounded_scans(self):
        """On decodings and on arbitrary words, the runs read off equal
        (n-1)-windows are the unbounded excess scan, and with them the power
        scan bounded by n^2-3n+1 is the unbounded power scan, as full lists.
        The arbitrary words also reach the bound itself above n/(n-1), which
        the sampled decodings never do."""
        rng = random.Random(7)
        seen = set()
        for n in range(3, 9):
            bound = compute_bounds(n).short_bound
            for _ in range(40):
                bits = "".join(rng.choice("01") for _ in range(rng.randint(0, 300)))
                table = table_of(bits, n)
                letters = [rng.randint(1, n) for _ in range(rng.randint(n - 1, 300))]
                intern: dict = {}
                ids = [intern.setdefault(tuple(letters[k:k + n - 1]), len(intern))
                       for k in range(len(letters) - n + 2)]
                for v, classes in ((table.word, table.classes), (letters, classes_of(ids))):
                    runs = _collision_runs(v, classes, n - 1)
                    assert runs == find_repetitions_with_excess_at_least(v, n - 1), (n, v)
                    power = find_repetitions_exceeding(v, n, n - 1)
                    assert _power_runs(v, n, runs, n - 1) == power, (n, v)
                    seen.add("runs" if runs else "no runs")
                    seen.update("long" if o.period > bound else "at bound"
                                for o in power if o.period >= bound)
        assert seen == {"runs", "no runs", "long", "at bound"}


class TestRepeatFact:
    """``repeat`` against the brute-force longest repeated factor, and the
    power scan it bounds against the unbounded scan.  The key width g is 1
    letter at n = 2, 2 at n = 3 and 4, 4 at n = 5..8, and 8 at n = 9..12
    and at n = 255, the widest alphabet; g = n-1 at n = 2, 3, 5 and 9."""

    WIDTHS = {2: 1, 3: 2, 4: 2, 5: 4, 6: 4, 7: 4, 8: 4, 9: 8, 10: 8, 11: 8, 12: 8, 255: 8}

    def test_random_and_periodic_words(self):
        rng = random.Random(28)
        seen = set()
        for n, g in self.WIDTHS.items():
            words = ["", "1", "0" * rng.randint(2, 60), "1" * rng.randint(2, 60),
                     "0" * rng.randint(n - 1, n + 9)]
            for _ in range(4 if n == 255 else 30):
                length = rng.randint(0, 300 if n == 255 else rng.choice((20, 300)))
                words.append("".join(rng.choice("01") for _ in range(length)))
            for _ in range(4):
                unit = "".join(rng.choice("01") for _ in range(rng.randint(1, 12)))
                words.append(unit * rng.randint(1, 40))
            for bits in words:
                table = table_of(bits, n)
                letters = decode(bits, canonical_prefix(n)).letters
                first: dict = {}
                ids = [first.setdefault(letters[k:k + n - 1], k) for k in range(len(bits) + 1)]
                assert class_ids(table.classes, len(bits) + 1) == ids, (n, bits)
                assert (table.repeat < n - 1) == (ids == list(range(len(bits) + 1))), (n, bits)
                case = repeat_case(table, n, g)
                runs = _collision_runs(table.word, table.classes, n - 1)
                power = find_repetitions_exceeding(table.word, n, n - 1)
                assert _power_runs(table.word, n, runs, table.repeat) == power, (n, bits)
                seen.add((n, case == "window"))
                seen.add(case)
                if case != "window" and power:
                    seen.add("repetitions under the fact")
        assert seen >= {(n, w) for n in self.WIDTHS for w in (False, True)}
        assert seen >= {"window", "longest", "keys", "repetitions under the fact"}

    @pytest.mark.parametrize("n,bits,repeat", [(6, "110110011011001101001010011111", 4),
                                               (12, "11100101010011111111100", 8)])
    def test_repeat_past_the_last_state(self, n, bits, repeat, monkeypatch):
        """The only repeated g-letter factor starts past the last decoder
        state: the states stay distinct, the tail key counts, and the power
        scan reads up to repeat(n-1)-1."""
        table = table_of(bits, n)
        assert repeated_factor_starts(table.word, self.WIDTHS[n]) == [len(bits) + 1]
        assert table.classes == []
        assert table.repeat == repeat
        assert repeat_case(table, n, self.WIDTHS[n]) == "longest"
        bounds = spy_power_bounds(monkeypatch)
        occs = _power_runs(table.word, n, [], table.repeat)
        assert bounds == [min(compute_bounds(n).short_bound, repeat * (n - 1) - 1)]
        assert occs == find_repetitions_exceeding(table.word, n, n - 1)

    @pytest.mark.parametrize("n,bits,repeat", [(7, "000011101001011110111010111", 5),
                                               (8, "10001010100000101000000", 6)])
    def test_longest_repeat_between_later_occurrences(self, n, bits, repeat):
        """The longest repeated factor starts at two later positions of its
        g-letter key: each position against the key's first finds less."""
        table = table_of(bits, n)
        word, g = table.word, self.WIDTHS[n]
        first: dict = {}
        against_first = 0
        for p in range(len(word) - g + 1):
            f = first.setdefault(word[p:p + g], p)
            m = 0
            while f != p and p + m < len(word) and word[f + m] == word[p + m]:
                m += 1
            against_first = max(against_first, m)
        assert against_first < repeat == table.repeat
        assert repeat_case(table, n, g) == "longest"


def _equal_key_pairs(classes):
    return sum(len(c) * (len(c) - 1) // 2 for c in classes)


def _counted_pairs(monkeypatch):
    """Counts the class pairs ``_collision_runs`` extends, one call each."""
    calls = []
    agreement = dejean.verifier._agreement

    def counted(*args, **kwargs):
        calls.append((args[2], args[1]))  # (a, b): a < b, both in one class
        return agreement(*args, **kwargs)

    monkeypatch.setattr(dejean.verifier, "_agreement", counted)
    return calls


class TestCollisionPairs:
    """``_collision_runs`` extends one pair of a class per run it
    reports: the pair at the run's start."""

    def test_window_mutants(self, monkeypatch):
        # 8,008 and 4,516 pairs of equal decoder states give 476 and 160 runs
        from helpers import load_perfbench_mutants

        windows = [m for m in load_perfbench_mutants().generate(1) if m.kind.startswith("window")]
        counts = []
        for m in windows:
            table = table_of(probe_encoding(UniformMorphism(m.n, m.image0, m.image1)), m.n)
            equal = _equal_key_pairs(table.classes)
            calls = _counted_pairs(monkeypatch)
            runs = _collision_runs(table.word, table.classes, m.n - 1)
            assert len(calls) == len(runs) == len(set(calls))
            assert [(o.start, o.start + o.period) for o in runs] == sorted(calls)
            counts.append((equal, len(runs)))
        assert counts == [(8008, 476), (4516, 160)]

    def test_periodic_26(self, monkeypatch):
        """All zeros but the last bit of h(1) at n = 26: the decoder states
        repeat at period 25 nearly everywhere: 1,729 runs out of 14,017,111
        pairs."""
        h = UniformMorphism(26, "0" * 104, "0" * 103 + "1")
        classes = table_of(probe_encoding(h), 26).classes
        assert _equal_key_pairs(classes) == 14_017_111
        calls = _counted_pairs(monkeypatch)
        report = verify(h)
        assert len(calls) == 1729
        assert [(c.name, c.passed) for c in report.checks][5:] == [
            ("kernel_free", False), ("big_excess_free", False), ("power_free", False)]
        assert report.check("kernel_free").witness == (
            "1729 kernel repetitions (all periods: markability_r or iteration_bound failed);"
            " first: start=0 period=25 length=21631 exponent=21631/25")
        assert report.check("big_excess_free").witness == (
            "1729 repetitions with excess >= 25;"
            " first: start=0 period=25 length=21656 exponent=21656/25")
        assert report.check("power_free").witness == (
            "2170 repetitions above 26/25;"
            " first: start=0 period=25 length=21656 exponent=21656/25")

    def test_kernel_scan_builds_only_kept_runs(self, monkeypatch):
        """At n = 3 about half the runs of random, (01)^150 and 1^300 have
        excess exactly n-1 and give no kernel repetition: the kernel scan
        extends and builds an occurrence only for the runs it returns."""
        rng = random.Random(29)
        words = ["".join(rng.choice("01") for _ in range(300)) for _ in range(4)]
        words += ["01" * 150, "1" * 300]
        built = []

        class Counted(dejean.verifier.RepetitionOccurrence):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        dropped = 0
        for bits in words:
            table = table_of(bits, 3)
            runs = _collision_runs(table.word, table.classes, 2)
            dropped += len(runs) - len(_kernel_runs(runs, 3))
            with monkeypatch.context() as patch:
                patch.setattr(dejean.verifier, "RepetitionOccurrence", Counted)
                calls = _counted_pairs(patch)
                built.clear()
                occs = find_kernel_repetitions(bits, 3)
            assert occ_triples(occs) == brute_kernel_repetitions(bits, 3), bits
            assert len(built) == len(calls) == len(occs), bits
        assert dropped > 0

    def test_key_premises_are_enforced(self):
        # 1 and 3 share a class, after equal letters, but 0 and 2 share none:
        # the classes are incomplete
        with pytest.raises(ValueError, match="the classes are not complete"):
            _collision_runs("abab", [[1, 3]], 1)
        # 0 and 2 share a class over unequal letters: no factor of period 2
        with pytest.raises(ValueError, match="do not start a factor of period 2"):
            _collision_runs("abcd", [[0, 2]], 1)
        # ... also where the run would be dropped for too little excess
        with pytest.raises(ValueError, match="do not start a factor of period 2"):
            _collision_runs("abcd", [[0, 2]], 1, trim=1)
        assert _collision_runs("abab", [[0, 2], [1, 3]], 1, trim=2) == []
        assert occ_triples(_collision_runs("abab", [[0, 2], [1, 3]], 1)) == [(0, 2, 4)]


class TestIndividualChecks:
    def test_iteration_bound_pass(self):
        for n in (15, 21, 26):
            res = run_check("iteration_bound", n)
            assert res.passed and res.name == "iteration_bound"

    def test_kernel_free_pass(self):
        assert run_check("kernel_free", 15).passed

    def test_big_excess_free_pass(self):
        assert run_check("big_excess_free", 15).passed

    def test_power_free_pass(self):
        assert run_check("power_free", 15).passed

    def test_boundary_strictness(self):
        # exactly the threshold is allowed: 010 over n=3 has exponent 3/2 = n/(n-1)
        assert find_repetitions_exceeding("010", 3, 2) == []


class TestStoredReports:
    """Real ``verify`` reports against the benchmark's stored ones, read
    only, through its own comparison: every field but ``ms``, the
    ``conjugator (...)`` witnesses included, is pinned."""

    def test_builtins(self):
        gate = load_perfbench_gate()
        reports = [verify(n).to_json() for n in BUILTIN_SIZES]
        assert gate.compare_reports(reports, gate.load_expected("verify-all.jsonl")) == []

    def test_seed_one_mutants(self):
        gate, mutants = load_perfbench_gate(), load_perfbench_mutants()
        morphisms = parse_morphism_file(mutants.stanza_text(mutants.generate(1)))
        assert len(morphisms) == 14
        reports = [verify(h).to_json() for h in morphisms]
        assert gate.compare_reports(reports, gate.load_expected("verify-mutants-seed1.jsonl")) == []


class TestVerify:
    def test_n15_passes_with_expected_check_names(self):
        report = verify(15)
        assert report.overall
        assert tuple(c.name for c in report.checks) == CHECK_NAMES
        assert report.n == 15 and report.r == 56

    def test_json_schema(self):
        data = verify(15).to_json()
        assert set(data) == {"n", "r", "overall", "checks"}
        for c in data["checks"]:
            assert set(c) == {"name", "pass", "witness", "ms"}
        parsed = json.loads(verify(15).to_json_text())
        assert parsed["overall"] is True

    def test_report_deterministic_modulo_ms(self):
        def strip(report):
            return [(c.name, c.passed, c.witness) for c in report.checks]

        assert strip(verify(15)) == strip(verify(15))

    def test_degenerate_morphism_reports_all_checks(self):
        # image0 starting 0 and lacking 011 must fail structure but still
        # produce results for every later check
        bad = UniformMorphism(15, "00" * 28, "10" * 27 + "11")
        report = verify(bad)
        assert not report.overall
        assert tuple(c.name for c in report.checks) == CHECK_NAMES
        assert not report.check("structure").passed
        assert isinstance(report.check("power_free").passed, bool)

    def test_run_check_matches_verify(self):
        full = {c.name: (c.passed, c.witness) for c in verify(15).checks}
        for name in CHECK_NAMES:
            alone = run_check(name, 15)
            assert alone.name == name
            assert (alone.passed, alone.witness) == full[name]

    def test_construction_errors_are_error_witnesses(self):
        # r = 1: no prefix-stable iteration, and the iteration bound needs r >= 2
        report = verify(UniformMorphism(3, "0", "1"))
        witnesses = {c.name: (c.passed, c.witness) for c in report.checks}
        no_scheme = (False, "error: no prefix-stable iteration from either letter")
        assert witnesses["factor_set_2"] == witnesses["markability_r"] == no_scheme
        assert witnesses["iteration_bound"] == (False, "error: r must be >= 2, got 1")

    def test_other_errors_in_a_check_propagate(self, monkeypatch):
        def broken(h, k):
            raise RuntimeError("broken factor_closure")

        monkeypatch.setattr(dejean.verifier, "factor_closure", broken)
        with pytest.raises(RuntimeError, match="broken factor_closure"):
            verify(15)

    def test_run_check_unknown_name(self):
        with pytest.raises(ValueError):
            run_check("bogus", 15)

    def test_render_text_mentions_every_check(self):
        text = verify(15).render_text()
        for name in CHECK_NAMES:
            assert name in text
        assert "overall: PASS" in text

    def test_render_text_states_power_scan_scope(self):
        text = verify(15).render_text()
        assert ("power scan periods <= 181 = n^2-3n+1, or l(n-1)-1 when no factor\n  longer than"
                " l < n-1 letters occurs twice; longer periods read off equal decoder states") in text

    def test_unbounded_kernel_scan_agrees_for_builtin(self):
        bounded = verify(15).check("kernel_free")
        assert bounded.passed, bounded.witness
        assert f"(periods <= {compute_bounds(15).kernel_bound})" in bounded.witness
        assert find_kernel_repetitions(probe_encoding(15), 15) == []

    def test_verify_decodes_once(self, monkeypatch):
        """One decoding of the probe encoding h(u), u = h(0110), per
        verification, the table's, by image blocks; then at most one
        decoding per distinct block window of ``power_free``, by image
        blocks too, each a distinct factor of u of one length.  Before
        them, ``algebraic_condition`` reads the permutation images of h(0)
        and h(1) off their r-bit decodings, the raw bits decoded as the
        identity's images.  Every decoding, checked or
        not, runs ``pansiot._letters``; none decodes the 4r^2 bits of h(u)
        themselves."""
        calls = []

        def counting(name, function):
            def counted(bits, *args):
                calls.append((name, bits, args[-1]))
                return function(bits, *args)
            return counted

        monkeypatch.setattr(dejean.verifier, "decode_letters",
                            counting("decode_letters", decode_letters))
        monkeypatch.setattr(dejean.verifier, "decode", counting("decode", decode))
        monkeypatch.setattr(dejean.pansiot, "_letters", counting("_letters", dejean.pansiot._letters))
        assert verify(15).overall
        h = builtin(15)
        u, images = h.apply("0110"), (h.image0, h.image1)
        identity = ("0", "1")
        assert calls[:2] == [("_letters", h.image0, identity), ("_letters", h.image1, identity)]
        assert calls[2:4] == [("decode_letters", u, images), ("_letters", u, images)]
        windows = [x for _, x, _ in calls[4::2]]
        assert calls[4:] == [(name, x, images) for x in windows for name in ("decode_letters", "_letters")]
        assert windows and len(set(windows)) == len(windows)
        assert {len(x) for x in windows} == {3} and all(x in u for x in windows)
