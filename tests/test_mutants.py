"""Seeded mutants of the builtin morphisms against the unbounded scanners.

The verifier builds one list of runs from the classes of equal decoder
states: they are the ``big_excess_free`` witnesses, ``power_free`` bounds
its scan by n^2-3n+1 and adds the long-period runs among them, and
``kernel_free`` keeps those with excess >= n, each n-1 letters shorter, cut
to periods within 9n^2-6n+1.  ``power_free`` scans only up to
repeat(n-1)-1 where the table proves that no factor of the probe word
longer than ``repeat`` < n-1 letters occurs twice, and up to n^2-3n+1
where a decoder state repeats: the window mutants and the periodic n = 26
morphism.  The unbounded scans are the oracle: on every mutant each of the
three checks must report the count and the first witness that the oracle
finds, the kernel oracle cut to periods within the bound, and the runs read
off the classes must equal the oracle's lists in full.  The kernel oracle
is a separate pass over the code bits: the runs through classes of equal
keys (state id, bit), since a kernel repetition of period q starts at some
a with bits[a] == bits[a+q] and equal states at a and a+q.
The mutants are fixed by the seed: one bit flip and one swap of adjacent
unequal bits at n = 15 and n = 16, and one window of 2n zeros at n = 15.
0^(n-1) maps to the identity, so the window leaves equal states and
repetitions of period above n^2-3n+1.  Two periodic morphisms at n = 6
join them, whose probe encodings hold 459 and 2,354 kernel repetitions.
The kernel bound is trusted only under its premise: small morphisms that
fail ``markability_r`` or ``iteration_bound`` must get every period.
"""

import random
import re

import pytest

import dejean.verifier
from dejean.morphisms import BUILTIN_SIZES, UniformMorphism, builtin
from dejean.perms import PrefixPermutationTable
from dejean.verifier import (_collision_runs, _Probe, _power_runs, compute_bounds,
                             find_kernel_repetitions, probe_encoding,
                             probe_word, run_check, verify)
from dejean.words import find_repetitions_exceeding, find_repetitions_with_excess_at_least
from helpers import (brute_kernel_repetitions, brute_longest_repeat, class_ids, classes_of,
                     load_perfbench_mutants, occ_triples, repeat_case, spy_power_bounds)

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
# All zeros but the last bit of h(1), and the same with one 1 in h(0): they
# fail the kernel bound's premise, and their decoder states repeat at period 5.
PERIODIC = [("periodic-6", UniformMorphism(6, "0" * 24, "0" * 23 + "1")),
            ("near-periodic-6", UniformMorphism(6, "0" * 11 + "1" + "0" * 12, "0" * 23 + "1"))]
ALL = MUTANTS + PERIODIC
# All zeros but the last bit of h(1) at n = 26: its decoder states repeat at period 25.
PERIODIC_26 = UniformMorphism(26, "0" * 104, "0" * 103 + "1")


def _bit_runs(h: UniformMorphism):
    """The unbounded kernel scan of the probe encoding: the runs of the
    code bits through classes of equal keys (decoder-state id, bit)."""
    bits = probe_encoding(h)
    ids = class_ids(PrefixPermutationTable(bits, h.n).classes, len(bits) + 1)
    return _collision_runs(bits, classes_of(zip(ids, bits)), 1)


@pytest.fixture(scope="module")
def results():
    """Per morphism: its report, the unbounded scans of its probe word, and
    the unbounded kernel scan of its probe encoding."""
    out = {}
    for label, h in ALL:
        v = probe_word(h)
        out[label] = (h, verify(h), find_repetitions_with_excess_at_least(v, h.n - 1),
                      find_repetitions_exceeding(v, h.n, h.n - 1), _bit_runs(h))
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


@pytest.mark.parametrize("label", [label for label, _ in ALL])
def test_mutant_fails_some_check(results, label):
    report = results[label][1]
    assert not report.overall, label


@pytest.mark.parametrize("label", [label for label, _ in ALL])
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


@pytest.mark.parametrize("label", [label for label, _ in ALL])
def test_collision_runs_equal_unbounded_scans(results, label):
    """As full lists: the runs read off the decoder-state classes are the
    unbounded excess scan, and the bounded power scan plus the long runs
    among them is the unbounded power scan."""
    h, _, excess, power, _ = results[label]
    probe = _Probe(h)
    assert probe.runs == excess
    assert _power_runs(probe.table.word, h.n, probe.runs, h.n - 1) == power
    assert _power_runs(probe.table.word, h.n, probe.runs, probe.table.repeat) == power


def test_distinct_states_leave_no_kernel_repetition(results):
    """While the decoder states are distinct the table holds no class, so
    the verifier builds no runs and the kernel check reads none; on those
    mutants the unbounded scan finds nothing.  A class forms exactly when
    ``repeat`` reaches n-1, on the builtins and on every mutant."""
    distinct = [label for label, h in MUTANTS if _Probe(h).table.repeat < h.n - 1]
    assert distinct and len(distinct) < len(MUTANTS)
    for label in distinct:
        assert results[label][4] == [], label
    for label, h in [(f"builtin-{n}", builtin(n)) for n in BUILTIN_SIZES] + ALL:
        table = _Probe(h).table
        assert (table.classes == []) == (table.repeat < h.n - 1), label


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


@pytest.mark.parametrize("label", [label for label, _ in PERIODIC])
def test_periodic_kernel_check_matches_unbounded_kernel_scan(results, label):
    """The premise fails, so the check reads every period of the runs."""
    _, report, _, _, kernel = results[label]
    check = report.check("kernel_free")
    assert "(all periods: markability_r or iteration_bound failed)" in check.witness
    assert len(kernel) > 400
    _assert_matches_oracle(check, kernel)


@pytest.mark.parametrize("label", [label for label, _ in ALL])
def test_kernel_failure_implies_big_excess_failure(results, label):
    """A kernel repetition is a run of the decoding with excess >= n."""
    report = results[label][1]
    if not report.check("kernel_free").passed:
        assert not report.check("big_excess_free").passed


def test_verification_builds_one_run_list(monkeypatch):
    """All three repetition checks read the same runs: one collision pass
    per verification, also when the decoder states repeat."""
    h = dict(PERIODIC)["periodic-6"]
    assert _Probe(h).table.repeat == h.n - 1
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _collision_runs(*args, **kwargs)

    monkeypatch.setattr(dejean.verifier, "_collision_runs", counted)
    report = verify(h)
    assert not report.check("kernel_free").passed
    assert len(calls) == 1


@pytest.mark.parametrize("n", [15, 16])
def test_builtin_decisive_checks_match_unbounded_scans(n):
    v = probe_word(n)
    _assert_matches_oracle(run_check("big_excess_free", n), find_repetitions_with_excess_at_least(v, n - 1))
    _assert_matches_oracle(run_check("power_free", n), find_repetitions_exceeding(v, n, n - 1))
    assert find_kernel_repetitions(probe_encoding(n), n) == []
    _assert_matches_oracle(run_check("kernel_free", n), [])


@pytest.mark.parametrize("n", BUILTIN_SIZES)
def test_builtin_power_scan_matches_unbounded_scan(n):
    """Where the table proves its premise the power check scans fewer
    periods; it still reports the unbounded scan's count and first witness,
    and ``_power_runs`` returns its full list.  ``repeat`` is the longest
    repeated factor, 8, 10 and 11 letters, at n = 18, 22 and 23, and g-1 = 7
    at the others, where that factor is shorter than 8."""
    probe = _Probe(builtin(n))
    v = probe.table.word
    power = find_repetitions_exceeding(v, n, n - 1)
    _assert_matches_oracle(run_check("power_free", n), power)
    assert _power_runs(v, n, probe.runs, probe.table.repeat) == power
    assert probe.table.repeat == {18: 8, 22: 10, 23: 11}.get(n, 7)
    assert repeat_case(probe.table, n, 8) == ("longest" if n in (18, 22, 23) else "keys")


def test_periodic_26_power_scan_matches_unbounded_scan():
    probe = _Probe(PERIODIC_26)
    v = probe.table.word
    power = find_repetitions_exceeding(v, 26, 25)
    assert len(power) == 2170
    _assert_matches_oracle(run_check("power_free", PERIODIC_26), power)
    assert _power_runs(v, 26, probe.runs, probe.table.repeat) == power
    assert repeat_case(probe.table, 26, 8) == "window"


def test_power_scan_bound_follows_premise(monkeypatch):
    """The power check scans periods up to repeat(n-1)-1, for the longest
    repeated factor of the probe word (found here by slicing the plain
    decoding) or g-1 = 7 when that is shorter, wherever its decoder states
    are distinct, and up to n^2-3n+1 wherever one repeats."""
    cases = [(f"builtin-{n}", builtin(n)) for n in BUILTIN_SIZES] + MUTANTS
    cases.append(("periodic-26", PERIODIC_26))
    bounds = spy_power_bounds(monkeypatch)
    scanned, tight = {}, []
    for label, h in cases:
        run_check("power_free", h)
        scanned[label] = bounds.pop()
        assert not bounds, label
        short = compute_bounds(h.n).short_bound
        longest = brute_longest_repeat(probe_word(h).letters, h.n - 1)
        if longest == h.n - 1:
            assert scanned[label] == short, label
        else:
            assert scanned[label] == min(short, max(longest, 7) * (h.n - 1) - 1), label
            tight.append(label)
    assert tight == [f"builtin-{n}" for n in BUILTIN_SIZES] + ["swap-15", "flip-16", "swap-16"]
    assert (scanned["builtin-15"], scanned["builtin-26"]) == (97, 174)
    assert [scanned[f"builtin-{n}"] for n in (18, 22, 23)] == [135, 209, 241]
    assert (scanned["window-15"], scanned["periodic-26"]) == (181, 599)


@pytest.mark.parametrize("seed", range(1, 6))
def test_repeat_matches_brute_on_benchmark_mutants(seed):
    """``repeat`` against the brute-force longest repeated factor of the
    probe word, on the benchmark's mutants (g = 8 at n = 15..20): the
    window mutants repeat a decoder state, the point mutants do not."""
    cases = []
    for m in load_perfbench_mutants().generate(seed):
        table = PrefixPermutationTable(probe_encoding(UniformMorphism(m.n, m.image0, m.image1)), m.n)
        cases.append(repeat_case(table, m.n, 8) == "window")
    assert cases == [False] * 12 + [True] * 2


def test_window_mutant_power_scan_falls_back_to_all_periods(results):
    h, report, excess, power, _ = results["window-15"]
    short_bound = compute_bounds(h.n).short_bound
    assert excess, "the window must leave a repetition with excess >= n-1"
    assert any(o.period > short_bound for o in power)
    alone = run_check("power_free", h)
    _assert_matches_oracle(alone, power)
    assert (alone.passed, alone.witness) == (report.check("power_free").passed,
                                             report.check("power_free").witness)
    by_name = run_check("power_free", h)
    assert (by_name.passed, by_name.witness) == (alone.passed, alone.witness)
    assert ("power scan periods <= 181 = n^2-3n+1, or l(n-1)-1 when no factor\n  longer than"
            " l < n-1 letters occurs twice; longer periods read off equal decoder states"
            ) in report.render_text()


# Morphisms that fail the kernel bound's premise, whose decoder states
# repeat, and whose probe encodings hold a kernel repetition of period
# above 9n^2-6n+1.
PREMISE_FAILS = [UniformMorphism(4, "101011", "110010"),
                 UniformMorphism(3, "100110", "100110")]


@pytest.mark.parametrize("h", PREMISE_FAILS, ids=lambda h: f"{h.n}-{h.image0}-{h.image1}")
def test_kernel_bound_is_not_trusted_without_its_premise(h):
    report = verify(h)
    assert not (report.check("markability_r").passed and report.check("iteration_bound").passed)
    bits = probe_encoding(h)
    kernel = find_kernel_repetitions(bits, h.n)
    assert occ_triples(kernel) == brute_kernel_repetitions(bits, h.n)
    assert any(o.period > compute_bounds(h.n).kernel_bound for o in kernel)
    check = report.check("kernel_free")
    assert "(all periods: markability_r or iteration_bound failed)" in check.witness
    _assert_matches_oracle(check, kernel)
    alone = run_check("kernel_free", h)
    assert (alone.passed, alone.witness) == (check.passed, check.witness)
