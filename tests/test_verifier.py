import json
import random
from fractions import Fraction

import pytest

import dejean.perms
import dejean.verifier
from dejean.morphisms import BUILTIN_SIZES, UniformMorphism, builtin
from dejean.pansiot import canonical_prefix, decode
from dejean.perms import PrefixPermutationTable, word_permutation
from dejean.verifier import (CHECK_NAMES, _collision_runs, _power_runs,
                             check_big_excess_free,
                             check_iteration_bound, check_kernel_free,
                             check_power_free, compute_bounds,
                             find_kernel_repetitions, probe_encoding,
                             probe_word, run_check, verify)
from dejean.words import find_repetitions_exceeding, find_repetitions_with_excess_at_least


class TestBounds:
    def test_examples(self):
        b = compute_bounds(15)
        assert (b.kernel_bound, b.short_bound) == (1936, 181)
        assert b.threshold == Fraction(15, 14)
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
        assert v.is_window_distinct
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
            assert word_permutation("1" * o.period, 2).is_identity

    def test_given_ids_are_reused(self):
        rng = random.Random(3)
        for n in (3, 5, 8):
            bits = "".join(rng.choice("01") for _ in range(200))
            ids = PrefixPermutationTable(bits, n).ids
            assert find_kernel_repetitions(bits, n, ids=ids) == find_kernel_repetitions(bits, n)
            assert (find_kernel_repetitions(bits, n, 20, ids)
                    == find_kernel_repetitions(bits, n, 20))

    @pytest.mark.parametrize("n", [15, 21])
    def test_builtin_probe_is_kernel_free(self, n):
        bound = compute_bounds(n).kernel_bound
        assert find_kernel_repetitions(probe_encoding(n), n, bound) == []


class TestDecoderStateIdentity:
    """The identity behind the scan-free big_excess_free check: window k of
    length n-1 of the decoding is decoder state k, the k-th prefix
    permutation, so a repetition of period q with excess >= n-1 exists
    exactly when two prefix-permutation ids q apart are equal."""

    def test_repeated_ids_are_big_excess_periods(self):
        rng = random.Random(99)
        seen_distinct = seen_repeated = False
        for n in range(3, 9):
            for _ in range(40):
                bits = "".join(rng.choice("01") for _ in range(rng.randint(0, 300)))
                ids = PrefixPermutationTable(bits, n).ids
                first: dict = {}
                id_periods = set()
                for k, value in enumerate(ids):
                    for earlier in first.setdefault(value, []):
                        id_periods.add(k - earlier)
                    first[value].append(k)
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
                table = PrefixPermutationTable(bits, n)
                letters = [rng.randint(1, n) for _ in range(rng.randint(n - 1, 300))]
                intern: dict = {}
                ids = [intern.setdefault(tuple(letters[k:k + n - 1]), len(intern))
                       for k in range(len(letters) - n + 2)]
                for v, v_ids in ((table.word, table.ids), (letters, ids)):
                    runs = _collision_runs(v, v_ids, n - 1)
                    assert runs == find_repetitions_with_excess_at_least(v, n - 1), (n, v)
                    power = find_repetitions_exceeding(v, n, n - 1)
                    assert _power_runs(v, n, runs) == power, (n, v)
                    seen.add("runs" if runs else "no runs")
                    seen.update("long" if o.period > bound else "at bound"
                                for o in power if o.period >= bound)
        assert seen == {"runs", "no runs", "long", "at bound"}


class TestIndividualChecks:
    def test_iteration_bound_pass(self):
        for n in (15, 21, 26):
            res = check_iteration_bound(n)
            assert res.passed and res.name == "iteration_bound"

    def test_kernel_free_pass(self):
        assert check_kernel_free(15).passed

    def test_big_excess_free_pass(self):
        assert check_big_excess_free(15).passed

    def test_power_free_pass(self):
        assert check_power_free(15).passed

    def test_boundary_strictness(self):
        # exactly the threshold is allowed: 010 over n=3 has exponent 3/2 = n/(n-1)
        assert find_repetitions_exceeding("010", 3, 2) == []


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
        assert ("power scan periods <= 181 = n^2-3n+1; longer periods read off"
                " equal decoder states") in text

    def test_unbounded_kernel_scan_agrees_for_builtin(self):
        bounded = verify(15).check("kernel_free")
        assert bounded.passed, bounded.witness
        assert f"(periods <= {compute_bounds(15).kernel_bound})" in bounded.witness
        assert find_kernel_repetitions(probe_encoding(15), 15) == []

    def test_verify_decodes_once(self, monkeypatch):
        calls = []

        def counting_decode(bits, prefix):
            calls.append(len(bits))
            return decode(bits, prefix)

        for module in (dejean.perms, dejean.verifier):
            monkeypatch.setattr(module, "decode", counting_decode)
        assert verify(15).overall
        assert calls == [len(probe_encoding(15))]
