"""Output checks behind the benchmark's ``failed`` count.

Reports are compared as the program prints them (``json.dumps`` of one
report) with every check's ``ms`` field removed and nothing else.  Failing
repetition checks are re-derived here from the morphism alone, with plain
loops and integer cross-multiplication, independently of the program's
scanners, its decoder and its permutation code.
"""

import json
import re
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

REPETITION_CHECKS = ("kernel_free", "big_excess_free", "power_free")
_FIRST_WITNESS = re.compile(r"first: start=(\d+) period=(\d+) length=(\d+)")


def without_ms(report: dict) -> str:
    """The report's JSON text with the ``ms`` field of every check removed.

    Each check must carry an integer ``ms``; its value is all that is ignored.
    """
    checks = []
    for check in report["checks"]:
        if not isinstance(check.get("ms"), int):
            raise ValueError(f"check {check.get('name')!r} has no integer ms")
        checks.append({k: v for k, v in check.items() if k != "ms"})
    return json.dumps({**report, "checks": checks})


def load_expected(name: str) -> list[str] | None:
    """Stored reports (one ms-free JSON line each), or None if none are stored."""
    path = EXPECTED_DIR / name
    if not path.is_file():
        return None
    return path.read_text(encoding="utf-8").splitlines()


def compare_reports(reports: list[dict], expected: list[str]) -> list[str]:
    """Problems found comparing reports with stored ms-free lines."""
    if len(reports) != len(expected):
        return [f"{len(reports)} reports, {len(expected)} stored"]
    problems = []
    for k, (report, line) in enumerate(zip(reports, expected)):
        try:
            text = without_ms(report)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"report {k} is malformed: {exc}")
            continue
        if text != line:
            problems.append(f"report {k} differs from the stored one: {text[:200]}")
    return problems


def _image(h0: str, h1: str, word: str) -> str:
    return "".join(h1 if c == "1" else h0 for c in word)


def probe_bits(h0: str, h1: str) -> str:
    """h(h(0110))."""
    return _image(h0, h1, _image(h0, h1, "0110"))


def decode(bits: str, n: int) -> list[int]:
    """Pansiot decoding over the prefix 1 2 ... n-1: bit 0 repeats the
    letter n-1 places back, bit 1 writes the letter missing from the window."""
    letters = list(range(1, n))
    missing = n
    for b in bits:
        oldest = letters[len(letters) - (n - 1)]
        if b == "0":
            letters.append(oldest)
        else:
            letters.append(missing)
            missing = oldest
    return letters


def maps_to_identity(bits: str, n: int) -> bool:
    """Whether the left-to-right product of the bit generators (0: the
    (n-1)-cycle fixing n, 1: the n-cycle) is the identity permutation; the
    last bit's generator acts on a point first."""
    point_images = list(range(1, n + 1))
    for b in reversed(bits):
        cycle = n if b == "1" else n - 1
        point_images = [p if p > cycle else p % cycle + 1 for p in point_images]
    return point_images == list(range(1, n + 1))


def is_maximal_run(seq, start: int, period: int, length: int) -> bool:
    """seq[start:start+length] has the period, is longer than it, and can be
    extended by neither a letter on the left nor one on the right."""
    end = start + length
    if start < 0 or period < 1 or length <= period or end > len(seq):
        return False
    if any(seq[k] != seq[k + period] for k in range(start, end - period)):
        return False
    if start > 0 and seq[start - 1] == seq[start - 1 + period]:
        return False
    return end == len(seq) or seq[end] != seq[end - period]


def recheck_witnesses(n: int, h0: str, h1: str, report: dict) -> list[str]:
    """Problems with the first witness of each failing repetition check."""
    problems = []
    bits = probe_bits(h0, h1)
    word = None
    for check in report["checks"]:
        name = check["name"]
        if name not in REPETITION_CHECKS or check["pass"]:
            continue
        found = _FIRST_WITNESS.search(check["witness"])
        if found is None:
            problems.append(f"{name}: no first witness in {check['witness']!r}")
            continue
        start, period, length = map(int, found.groups())
        if name == "kernel_free":
            seq = bits
            holds = (period <= 9 * n * n - 6 * n + 1
                     and maps_to_identity(bits[start:start + period], n))
        else:
            seq = word = word or decode(bits, n)
            if name == "big_excess_free":
                holds = length - period >= n - 1
            else:
                holds = length * (n - 1) > n * period
        if not (holds and is_maximal_run(seq, start, period, length)):
            problems.append(f"{name}: witness start={start} period={period} "
                            f"length={length} does not hold")
    return problems
