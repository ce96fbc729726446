"""Tests of the benchmark's own code: mutant generator, output gate, span arithmetic."""

import json
import random

import pytest

import gate
import mutants
from dejean import (UniformMorphism, builtin, canonical_prefix, decode, is_kernel_word,
                    verify)
from tracer import Spans


def test_generator_is_deterministic_per_seed():
    assert mutants.generate(7) == mutants.generate(7)
    assert mutants.generate(7) != mutants.generate(8)


@pytest.mark.parametrize("seed", [mutants.DEFAULT_SEED, 2, 12345])
def test_mutants_keep_image_length_and_change_the_morphism(seed):
    mix = mutants.generate(seed)
    assert len(mix) == 14
    assert {m.kind for m in mix} == {"flip", "swap", "window0", "window1"}
    for m in mix:
        h = builtin(m.n)
        assert len(m.image0) == len(m.image1) == h.r
        assert (m.image0, m.image1) != (h.image0, h.image1)


def test_independent_decode_and_kernel_test_agree_with_the_program():
    rng = random.Random(5)
    for n in (3, 5, 15):
        for _ in range(30):
            bits = "".join(rng.choice("01") for _ in range(rng.randrange(1, 40)))
            assert tuple(gate.decode(bits, n)) == decode(bits, canonical_prefix(n)).letters
            assert gate.maps_to_identity(bits, n) == is_kernel_word(bits, n)


def _window_mutant_report():
    m = next(m for m in mutants.generate(mutants.DEFAULT_SEED) if m.kind == "window0")
    return m, verify(UniformMorphism(m.n, m.image0, m.image1)).to_json()


def test_witness_recheck_accepts_real_witnesses_and_rejects_forged_ones():
    m, report = _window_mutant_report()
    failing = {c["name"] for c in report["checks"] if not c["pass"]}
    assert set(gate.REPETITION_CHECKS) <= failing
    assert gate.recheck_witnesses(m.n, m.image0, m.image1, report) == []
    for name in gate.REPETITION_CHECKS:
        for field, shift in (("start", 1), ("start", -1), ("length", -1), ("period", 1)):
            forged = json.loads(json.dumps(report))
            check = next(c for c in forged["checks"] if c["name"] == name)
            found = gate._FIRST_WITNESS.search(check["witness"])
            value = int(found.group(("start", "period", "length").index(field) + 1))
            check["witness"] = check["witness"].replace(f"{field}={value}",
                                                        f"{field}={value + shift}", 1)
            problems = gate.recheck_witnesses(m.n, m.image0, m.image1, forged)
            assert problems and problems[0].startswith(name), (name, field, shift)


def test_report_comparison_ignores_only_ms():
    report = {"n": 15, "r": 56, "overall": True, "checks": [
        {"name": "structure", "pass": True, "witness": "r=56", "ms": 3},
        {"name": "power_free", "pass": True, "witness": "none", "ms": 200}]}
    stored = [gate.without_ms(report)]
    assert "ms" not in stored[0]

    def changed(edit):
        copy = json.loads(json.dumps(report))
        edit(copy)
        return gate.compare_reports([copy], stored)

    assert changed(lambda r: r["checks"][1].update(ms=9999)) == []
    assert changed(lambda r: r["checks"][1].update(witness="nonE"))
    assert changed(lambda r: r["checks"][0].update({"pass": False}))
    assert changed(lambda r: r.update(overall=False))
    assert changed(lambda r: r.update(extra=1))
    assert changed(lambda r: r["checks"].reverse())
    assert changed(lambda r: r["checks"][0].pop("ms"))
    assert gate.compare_reports([report, report], stored)


def test_span_self_time_leaves_out_children_and_probe_gaps():
    spans = Spans([["outer", 0.0, 10.0, None, 1, None],
                   ["inner", 2.0, 5.0, 0, 1, None]], gaps=[(3.0, 4.0), (7.0, 8.0)])
    assert spans.duration == [8.0, 2.0]
    assert spans.self_time == [6.0, 2.0]
    assert spans.by_name()["outer"] == {"calls": 1, "total_s": 8.0, "self_s": 6.0}
