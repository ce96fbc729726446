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
from dejean.search import enumerate_legal, search_convenient
from dejean.verifier import (_CHECKS, _collision_runs, _power_bound, _Probe, _power_runs, _run,
                             _window_verdict, compute_bounds, find_kernel_repetitions,
                             probe_encoding, probe_word, run_check, verify)
from dejean.words import find_repetitions_exceeding, find_repetitions_with_excess_at_least
from helpers import (brute_kernel_repetitions, brute_longest_repeat, class_ids, classes_of,
                     load_perfbench_mutants, occ_triples, repeat_case, spy_power_bounds,
                     table_of, wide)

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
    ids = class_ids(table_of(bits, h.n).classes, len(bits) + 1)
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
        # the window scans and, on failure, the full scan: all at one bound
        assert bounds and set(bounds) == {bounds[0]}, (label, bounds)
        scanned[label] = bounds[0]
        bounds.clear()
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
        table = table_of(probe_encoding(UniformMorphism(m.n, m.image0, m.image1)), m.n)
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


def _window_case(h, monkeypatch):
    """Asserts the window verdict of ``power_free`` on h against the full
    power scan, and that the windows it decodes are distinct factors of u =
    h(0110) of one length, in order of first occurrence (all of them on a
    pass).  Returns what the case met."""
    probe = _Probe(h)
    table, n, u = probe.table, h.n, probe.blocks
    full = _power_runs(table.word, n, probe.runs, table.repeat)
    windows = []
    decode = dejean.verifier._decode_image
    with monkeypatch.context() as m:
        m.setattr(dejean.verifier, "_decode_image", lambda g, x: windows.append(x) or decode(g, x))
        verdict = _window_verdict(probe)
    assert verdict == (not full), h
    met = {"pass" if verdict else "fail"}
    if _power_bound(n, table.repeat) < 1:
        met.add("b < 1")
    if not windows:
        assert full and not verdict
        return met | {"decided by the runs"}
    k = len(windows[0])
    distinct = list(dict.fromkeys(u[j:j + k] for j in range(len(u) - k + 1)))
    assert windows == distinct[:len(windows)], h
    if verdict:
        assert windows == distinct, h
    met.add(f"{len(windows)} windows")
    if not verdict:
        met.add("found by a window")
    if k == len(u):
        met.add("one window is the whole word")
    if k == 1:
        met.add("one block")
    return met


class TestWindowVerdict:
    """``power_free`` passes exactly when the full scan of ``_power_runs``
    is empty, though it scans only the distinct block windows."""

    def test_builtins_mutants_and_periodic(self, monkeypatch):
        met = set()
        for n in BUILTIN_SIZES:
            assert _window_case(builtin(n), monkeypatch) >= {"pass"}, n
        for seed in range(1, 6):
            mutants = load_perfbench_mutants().generate(seed)
            assert len(mutants) == 14
            for m in mutants:
                met |= _window_case(UniformMorphism(m.n, m.image0, m.image1), monkeypatch)
        for _, h in ALL + [("periodic-26", PERIODIC_26)]:
            met |= _window_case(h, monkeypatch)
        assert met >= {"found by a window", "decided by the runs"}

    @pytest.mark.parametrize("n,r", [(11, 40), (12, 44), (13, 49), (14, 52)])
    def test_searched_morphisms(self, n, r, monkeypatch):
        """The first morphism the search finds at these n and r passes."""
        found = search_convenient(n, r, limit=1)
        assert len(found) == 1 and verify(found[0]).overall
        assert "pass" in _window_case(found[0], monkeypatch)

    def test_random_small_morphisms(self, monkeypatch):
        """n = 2 has b < 1, so no window scans a period; a single-bit image
        at n = 5 takes all four blocks as one window, and n = 3 one block."""
        rng = random.Random(31)
        met = set()
        for n in [2, 3, 5] * 10 + [rng.randint(2, 11) for _ in range(300)]:
            r = rng.randint(1, 3 * n)
            h = UniformMorphism(n, *("".join(rng.choice("01") for _ in range(r)) for _ in "01"))
            met |= _window_case(h, monkeypatch)
        assert met >= {"pass", "found by a window", "b < 1", "decided by the runs",
                       "one window is the whole word", "one block"}, met

    @pytest.mark.parametrize("n", [255, 256, 300])
    def test_large_alphabet(self, n, monkeypatch):
        """At 255 letters, the widest alphabet, the decodings are ``bytes``
        holding the letter 255, relabelled by one translation table; these
        short probes repeat factors long enough that one window is the
        whole word.  Above 255 letters no morphism is built."""
        rng = random.Random(n)
        met = set()
        for r in (3, 7, 20):
            images = ["".join(rng.choice("01") for _ in range(r)) for _ in "01"]
            if n > 255:
                with pytest.raises(ValueError, match=wide(n)):
                    UniformMorphism(n, *images)
                continue
            h = UniformMorphism(n, *images)
            word = _Probe(h).table.word
            assert type(word) is bytes and max(word) == 255
            met |= _window_case(h, monkeypatch)
        assert n > 255 or met >= {"found by a window", "one window is the whole word"}

    def test_legal_image_pairs(self, monkeypatch):
        """Every pair of distinct legal 9-bit images at n = 5.  Among them
        are the morphisms of ``test_repetitions_need_every_block``."""
        images = []
        enumerate_legal(5, 9, images.append)
        assert len(images) == 16
        met = set()
        for h0 in images:
            for h1 in images:
                if h0 != h1:
                    met |= _window_case(UniformMorphism(5, h0, h1), monkeypatch)
        assert met >= {"found by a window", "decided by the runs"}

    @pytest.mark.parametrize("bound", [11, 10])
    def test_repetitions_need_every_block(self, bound, monkeypatch):
        """Every repetition above 5/4 of this probe word has period 10 and
        14 or 17 letters, and straddles a block boundary.  Its bound is b =
        11, so the period is b - 1.  A repetition above n/(n-1) of period
        exactly b never occurred in 3,000 random decodings at n = 4..7,
        though b - 1 did in half of them, so the second case sets b = 10,
        the period of these repetitions: the window scan and the full scan
        both read that b, and the window verdict must still find them.
        Either way the window is k = 2 blocks of r = 9 bits: one block and
        the n-1 letters before it hold 13 letters, fewer than any of the
        repetitions, so k - 1 blocks would find none."""
        h = UniformMorphism(5, "011011011", "010101101")
        assert _power_bound(5, _Probe(h).table.repeat) == 11
        monkeypatch.setattr(dejean.verifier, "_power_bound", lambda n, repeat: bound)
        probe = _Probe(h)
        full = _power_runs(probe.table.word, 5, probe.runs, probe.table.repeat)
        assert len(full) == 21 and {o.period for o in full} == {10}
        assert {o.length for o in full} == {14, 17}
        # block j's letters start at n-1 + jr
        assert all(any(o.start < 4 + 9 * j < o.end for j in range(36)) for o in full)
        assert _window_case(h, monkeypatch) >= {"found by a window"}

    @pytest.mark.parametrize("n,h0,h1,bound", [(6, "011", "010", 5), (7, "010", "110", 6)])
    def test_least_length_at_the_bound(self, n, h0, h1, bound, monkeypatch):
        """With b set to the period of the repetitions above n/(n-1) of
        this probe word, each has the least length L = b + b//(n-1) + 1
        that such a repetition can have, and L - n = 1 mod r = 3: k - 1
        blocks, or a window sized for L - 1 letters, hold none of them."""
        h = UniformMorphism(n, h0, h1)
        monkeypatch.setattr(dejean.verifier, "_power_bound", lambda n, repeat: bound)
        probe = _Probe(h)
        full = _power_runs(probe.table.word, n, probe.runs, probe.table.repeat)
        least = bound + bound // (n - 1) + 1
        assert {o.period for o in full} == {bound} and {o.length for o in full} == {least}
        assert (least - n) % 3 == 1
        assert _window_case(h, monkeypatch) >= {"found by a window"}

    def test_relabelling_premise_is_enforced(self, monkeypatch):
        """A letter changed at the end of any window's first occurrence, a
        position no earlier window holds, fails the check with an error."""
        h = builtin(15)
        decoded = []
        decode = dejean.verifier._decode_image
        monkeypatch.setattr(dejean.verifier, "_decode_image",
                            lambda g, x: decoded.append(x) or decode(g, x))
        clean = _Probe(h)
        assert _window_verdict(clean) is True
        u, r, n = clean.blocks, h.r, h.n
        windows = decoded[1:]  # the first decoding is the probe word's
        assert len(windows) > 1
        for x in windows:
            j = u.index(x)
            end = j * r + len(x) * r + n - 2  # the window's last letter
            probe = _Probe(h)
            word = bytearray(probe.table.word)
            word[end] = word[end] % n + 1
            probe.table.word = bytes(word)
            result = _run("power_free", dict(_CHECKS)["power_free"], probe)
            assert not result.passed, x
            assert result.witness == (f"error: the decoding of h(x) for the block window x ="
                                      f" u[{j}:{j + len(x)}], relabelled by decoder state {j * r},"
                                      f" differs from the probe word"), x
