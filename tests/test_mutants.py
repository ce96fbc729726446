"""Seeded mutants of the builtin morphisms against the unbounded scanners.

The verifier reads ``big_excess_free`` off equal decoder-state ids, always
bounds the ``power_free`` scan by n^2-3n+1 and adds the long-period runs
read off those ids, and bounds the ``kernel_free`` scan by 9n^2-6n+1,
skipping it while the ids are distinct.  The unbounded scans are the
oracle: on every mutant each of the three checks must report the count and
the first witness that the oracle finds, the kernel oracle cut to periods
within the bound, and the runs read off the ids must equal the oracle's
lists in full.  The mutants are fixed by the seed: one bit flip and one
swap of adjacent unequal bits at n = 15 and n = 16, and one window of 2n
zeros at n = 15.  0^(n-1) maps to the identity, so the window leaves equal
ids and repetitions of period above n^2-3n+1.
"""

import random
import re

import pytest

from dejean.morphisms import UniformMorphism, builtin
from dejean.verifier import (_Probe, _power_runs, check_big_excess_free,
                             check_kernel_free,
                             check_power_free, compute_bounds,
                             find_kernel_repetitions, probe_encoding,
                             probe_word, run_check, verify)
from dejean.words import find_repetitions_exceeding, find_repetitions_with_excess_at_least

SEED = 20261018
_COUNT_AND_FIRST = re.compile(r"^(\d+) (?:kernel )?repetitions .*; first: (.*)$")


def _mutate(rng: random.Random, n: int, kind: str) -> UniformMorphism:
    h = builtin(n)
    which = rng.randrange(2)
    bits = list(h.image1 if which else h.image0)
    if kind == "flip":
        p = rng.randrange(len(bits))
        bits[p] = "1" if bits[p] == "0" else "0"
    elif kind == "swap":
        p = rng.choice([i for i in range(len(bits) - 1) if bits[i] != bits[i + 1]])
        bits[p], bits[p + 1] = bits[p + 1], bits[p]
    else:
        fill = "0" * (2 * n)
        p = rng.choice([i for i in range(len(bits) - 2 * n + 1)
                        if "".join(bits[i:i + 2 * n]) != fill])
        bits[p:p + 2 * n] = fill
    image = "".join(bits)
    return UniformMorphism(n, h.image0, image) if which else UniformMorphism(n, image, h.image1)


def _mutants() -> list[tuple[str, UniformMorphism]]:
    rng = random.Random(SEED)
    out = [(f"{kind}-{n}", _mutate(rng, n, kind)) for n in (15, 16) for kind in ("flip", "swap")]
    out.append(("window-15", _mutate(rng, 15, "window")))
    return out


MUTANTS = _mutants()


@pytest.fixture(scope="module")
def results():
    """Per mutant: its report, the unbounded scans of its probe word, and
    the unbounded kernel scan of its probe encoding."""
    out = {}
    for label, h in MUTANTS:
        v = probe_word(h)
        out[label] = (h, verify(h), find_repetitions_with_excess_at_least(v, h.n - 1),
                      find_repetitions_exceeding(v, h.n, h.n - 1),
                      find_kernel_repetitions(probe_encoding(h), h.n))
    return out


def _assert_matches_oracle(check, occs):
    """The check reports exactly the oracle's count and first witness."""
    if not occs:
        assert check.passed, check.witness
        return
    assert not check.passed
    match = _COUNT_AND_FIRST.match(check.witness)
    assert match, check.witness
    assert int(match.group(1)) == len(occs)
    assert match.group(2) == occs[0].describe()


@pytest.mark.parametrize("label", [label for label, _ in MUTANTS])
def test_mutant_fails_some_check(results, label):
    report = results[label][1]
    assert not report.overall, label


@pytest.mark.parametrize("label", [label for label, _ in MUTANTS])
def test_decisive_checks_match_unbounded_scans(results, label):
    h, report, excess, power, _ = results[label]
    _assert_matches_oracle(report.check("big_excess_free"), excess)
    _assert_matches_oracle(report.check("power_free"), power)


@pytest.mark.parametrize("label", [label for label, _ in MUTANTS])
def test_kernel_check_matches_unbounded_kernel_scan(results, label):
    h, report, _, _, kernel = results[label]
    bound = compute_bounds(h.n).kernel_bound
    check = report.check("kernel_free")
    assert f"(periods <= {bound})" in check.witness
    _assert_matches_oracle(check, [o for o in kernel if o.period <= bound])


@pytest.mark.parametrize("label", [label for label, _ in MUTANTS])
def test_collision_runs_equal_unbounded_scans(results, label):
    """As full lists: the runs read off equal decoder-state ids are the
    unbounded excess scan, and the bounded power scan plus the long runs
    among them is the unbounded power scan."""
    h, _, excess, power, _ = results[label]
    probe = _Probe(h)
    assert probe.runs == excess
    assert _power_runs(probe.table.word, h.n, probe.runs) == power


def test_distinct_states_leave_no_kernel_repetition(results):
    """The kernel check skips its scan while the decoder states are
    distinct; on those mutants the unbounded scan finds nothing."""
    distinct = [label for label, h in MUTANTS if _Probe(h).states_distinct]
    assert distinct and len(distinct) < len(MUTANTS)
    for label in distinct:
        assert results[label][4] == [], label


def test_kernel_scan_cut_keeps_periods_up_to_the_bound(results):
    """Bounded at each kernel period q the unbounded scan finds, and at q-1,
    the scan keeps exactly the periods <= the bound."""
    label = next(label for label, _ in MUTANTS if results[label][4])
    h, kernel = results[label][0], results[label][4]
    bits = probe_encoding(h)
    for q in sorted({o.period for o in kernel})[:3]:
        for bound in (q - 1, q):
            assert (find_kernel_repetitions(bits, h.n, bound)
                    == [o for o in kernel if o.period <= bound]), (label, bound)


@pytest.mark.parametrize("n", [15, 16])
def test_builtin_decisive_checks_match_unbounded_scans(n):
    v = probe_word(n)
    _assert_matches_oracle(check_big_excess_free(n), find_repetitions_with_excess_at_least(v, n - 1))
    _assert_matches_oracle(check_power_free(n), find_repetitions_exceeding(v, n, n - 1))
    assert find_kernel_repetitions(probe_encoding(n), n) == []
    _assert_matches_oracle(check_kernel_free(n), [])


def test_window_mutant_power_scan_falls_back_to_all_periods(results):
    h, report, excess, power, _ = results["window-15"]
    short_bound = compute_bounds(h.n).short_bound
    assert excess, "the window must leave a repetition with excess >= n-1"
    assert any(o.period > short_bound for o in power)
    alone = check_power_free(h)
    _assert_matches_oracle(alone, power)
    assert (alone.passed, alone.witness) == (report.check("power_free").passed,
                                             report.check("power_free").witness)
    by_name = run_check("power_free", h)
    assert (by_name.passed, by_name.witness) == (alone.passed, alone.witness)
    assert ("power scan periods <= 181 = n^2-3n+1; longer periods read off"
            " equal decoder states") in report.render_text()
