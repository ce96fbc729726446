import io
import json
import os
import subprocess
import sys

import pytest

import dejean.cli as cli
from dejean.cli import main
from dejean.morphisms import builtin, emit_morphism_file, parse_morphism_file
from dejean.pansiot import canonical_prefix, decode, encode
from dejean.search import search_convenient
from dejean.verifier import find_kernel_repetitions
from dejean.words import SigmaWord, max_exponent, parse_symbols

from helpers import PERFBENCH, load_perfbench_mutants

# The ms-free reports of ``dejean verify all --json``, one JSON line per
# morphism, as the benchmark stores them: the builtins, and the mutants of
# perfbench/mutants.py's default seed.
EXPECTED_VERIFY_ALL = PERFBENCH / "expected" / "verify-all.jsonl"
EXPECTED_VERIFY_MUTANTS = PERFBENCH / "expected" / "verify-mutants-seed1.jsonl"


def assert_reports_match(out, expected_path, count):
    """Each JSON line of ``out`` equals the stored line once its checks'
    ``ms`` are removed."""
    lines = out.splitlines()
    expected = expected_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(expected) == count
    for line, want in zip(lines, expected):
        report = json.loads(line)
        for check in report["checks"]:
            assert type(check.pop("ms")) is int
        assert json.dumps(report) == want


def stub_search(monkeypatch, found):
    """Replace the CLI's ``search_convenient`` with a stub that returns
    ``found`` and records each call's (n, length, limit)."""
    calls = []

    def stub(n, length, limit, *, progress):
        calls.append((n, length, limit))
        return found

    monkeypatch.setattr(cli, "search_convenient", stub)
    return calls


def run_cli(argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    return main(argv)


class TestVerifyCommand:
    def test_single_n_text(self, capsys):
        assert main(["verify", "15"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out and "n=15" in out

    def test_single_n_json(self, capsys):
        assert main(["verify", "15", "--json"]) == 0
        data = json.loads(capsys.readouterr().out.strip())
        assert data["n"] == 15 and data["overall"] is True
        assert [c["name"] for c in data["checks"]][0] == "structure"

    def test_out_of_range_without_file(self, capsys):
        assert main(["verify", "14"]) == 2
        assert "supply --morphism-file" in capsys.readouterr().err

    def test_bad_target(self, capsys):
        assert main(["verify", "lots"]) == 2
        assert capsys.readouterr().err == "error: target must be an integer or 'all', got 'lots'\n"
        assert main(["verify", "-3"]) == 2
        assert capsys.readouterr().err.startswith("error: n=-3 is outside the embedded range 15..26")

    @pytest.mark.parametrize("target", ["+15", " 15 ", "1_5"])
    def test_target_accepts_int_spellings(self, capsys, target):
        assert main(["verify", target, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 15

    def test_morphism_file(self, tmp_path, capsys):
        path = tmp_path / "morphs.txt"
        path.write_text(emit_morphism_file([builtin(15)]))
        assert main(["verify", "15", "--morphism-file", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["overall"] is True

    def test_morphism_file_missing_n(self, tmp_path, capsys):
        path = tmp_path / "morphs.txt"
        path.write_text(emit_morphism_file([builtin(15)]))
        assert main(["verify", "16", "--morphism-file", str(path)]) == 2

    def test_unreadable_file(self, capsys):
        assert main(["verify", "15", "--morphism-file", "/nonexistent/x"]) == 2

    def test_failing_morphism_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("n=15\nr=4\nh0=0110\nh1=1100\n")
        assert main(["verify", "all", "--morphism-file", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_usage_error_exit_2(self):
        assert main(["verify"]) == 2

    @pytest.mark.parametrize("text,message", [
        ("n=1\nr=2\nh0=01\nh1=10\n", "line 1: alphabet size must be >= 2, got 1"),
        ("n=3\nr=0\nh0=\nh1=\n", "line 1: images must be nonempty and of equal length, got 0 and 0"),
        ("# one letter a byte\n\nn=256\nr=2\nh0=01\nh1=10\n",
         "line 3: alphabet size must be <= 255, got 256"),
        ("n=3\nr=x\nh0=01\nh1=10\n", "line 2: r must be a decimal integer"),
    ], ids=["n=1", "empty-images", "n=256", "r=x"])
    def test_rejected_morphism_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "morphs.txt"
        path.write_text(text)
        assert main(["verify", "all", "--morphism-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("target", ["all", "15"])
    def test_file_without_stanza_exits_2(self, tmp_path, capsys, target):
        path = tmp_path / "morphs.txt"
        path.write_text("# only a comment\n")
        assert main(["verify", target, "--morphism-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {path}: no morphism stanza\n"

    def test_verify_all_json_emits_twelve_reports(self, capsys):
        assert main(["verify", "all", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        reports = [json.loads(line) for line in lines]
        assert [r["n"] for r in reports] == list(range(15, 27))
        assert all(r["overall"] for r in reports)
        for r in reports:
            assert [c["name"] for c in r["checks"]] == [
                "structure", "algebraic_condition", "factor_set_2",
                "markability_r", "iteration_bound", "kernel_free",
                "big_excess_free", "power_free",
            ]


class TestVerifyAll:
    def test_reports_match_the_stored_ones(self, capsys):
        """Byte for byte apart from each check's ms."""
        assert main(["verify", "all", "--json"]) == 0
        assert_reports_match(capsys.readouterr().out, EXPECTED_VERIFY_ALL, 12)

    def test_mutant_reports_match_the_stored_ones(self, capsys, tmp_path):
        """The benchmark's seed-1 mutants, byte for byte apart from ms; the
        n = 20 flip mutant's markability_r witness pins the conflict order."""
        mutants = load_perfbench_mutants()
        path = tmp_path / "mutants.txt"
        path.write_text(mutants.stanza_text(mutants.generate(1)), encoding="utf-8")
        assert main(["verify", "all", "--json", "--morphism-file", str(path)]) == 1
        assert_reports_match(capsys.readouterr().out, EXPECTED_VERIFY_MUTANTS, 14)

    def test_verify_error_propagates_after_one_call(self, capsys, monkeypatch):
        class VerifyFailure(Exception):
            pass

        calls = []

        def failing_verify(h):
            calls.append((os.getpid(), h.n))
            raise VerifyFailure(f"verify failed for n={h.n}")

        monkeypatch.setattr(cli, "verify", failing_verify)
        with pytest.raises(VerifyFailure):
            main(["verify", "all", "--json"])
        assert calls == [(os.getpid(), 15)]
        assert capsys.readouterr().out == ""


class TestSearchCommand:
    def test_tiny_space_exits_1(self, capsys):
        assert main(["search", "15", "--length", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""

    def test_default_length_rule(self, capsys, monkeypatch):
        # n=21 defaults to length 4n = 84, too big to run: the stub records it
        calls = stub_search(monkeypatch, [builtin(21)])
        assert main(["search", "21"]) == 0
        assert calls == [(21, 84, 1)]
        capsys.readouterr()
        # the real search_convenient rejects --limit 0 before its walk
        monkeypatch.undo()
        assert main(["search", "21", "--limit", "0"]) == 2
        assert capsys.readouterr().err == "error: limit must be >= 1, got 0\n"

    def test_search_error_propagates(self, capsys, monkeypatch):
        def failing_search(n, length, limit, *, progress):
            raise RuntimeError("search failed")

        monkeypatch.setattr(cli, "search_convenient", failing_search)
        with pytest.raises(RuntimeError, match="^search failed$"):
            main(["search", "15"])
        assert capsys.readouterr().out == ""

    def test_small_alphabet_argument_validation(self):
        assert main(["search", "1"]) == 2

    def test_alphabet_beyond_one_byte_exits_2(self, capsys):
        assert main(["search", "256", "--length", "8"]) == 2
        assert "alphabet size must be <= 255, got 256" in capsys.readouterr().err


class TestWordCommands:
    def test_encode(self, capsys, monkeypatch):
        assert run_cli(["encode", "--n", "3"], "1213\n", monkeypatch) == 0
        assert capsys.readouterr().out.strip() == "01"

    def test_encode_rejects_invalid(self, capsys, monkeypatch):
        assert run_cli(["encode", "--n", "3"], "1123\n", monkeypatch) == 2

    def test_decode_default_prefix(self, capsys, monkeypatch):
        assert run_cli(["decode", "--n", "3"], "01\n", monkeypatch) == 0
        assert capsys.readouterr().out.strip() == "1213"

    def test_decode_custom_prefix(self, capsys, monkeypatch):
        assert run_cli(["decode", "--n", "3", "--prefix", "21"], "01\n", monkeypatch) == 0
        assert capsys.readouterr().out.strip() == "2123"

    def test_decode_large_alphabet_output_dotted(self, capsys, monkeypatch):
        assert run_cli(["decode", "--n", "12"], "0\n", monkeypatch) == 0
        assert capsys.readouterr().out.strip() == "1.2.3.4.5.6.7.8.9.10.11.1"

    def test_exponent(self, capsys, monkeypatch):
        assert run_cli(["exponent"], "010\n", monkeypatch) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("3/2")
        assert "start=0 period=2 length=3" in out

    def test_exponent_integer_result(self, capsys, monkeypatch):
        assert run_cli(["exponent"], "0101\n", monkeypatch) == 0
        assert capsys.readouterr().out.strip().startswith("2 ")

    def test_exponent_dotted_word(self, capsys, monkeypatch):
        assert run_cli(["exponent"], "1.2.1\n", monkeypatch) == 0
        assert capsys.readouterr().out.strip().startswith("3/2")

    def test_exponent_no_repetition(self, capsys, monkeypatch):
        assert run_cli(["exponent"], "123\n", monkeypatch) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_exponent_empty_input(self, capsys, monkeypatch):
        assert run_cli(["exponent"], "\n", monkeypatch) == 2

    @pytest.mark.parametrize("command,text,k", [
        (["exponent"], "1..2", 1),
        (["encode", "--n", "3"], "1.2.", 2),
        (["encode", "--n", "12"], "1 .2", 1),
    ], ids=["exponent", "encode", "encode-spaced"])
    def test_empty_field_exits_2(self, capsys, monkeypatch, command, text, k):
        assert run_cli(command, text, monkeypatch) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: empty field at index {k} in word {text!r}\n"

    def test_decode_prefix_empty_field_exits_2(self, capsys, monkeypatch):
        assert run_cli(["decode", "--n", "3", "--prefix", ".1"], "01\n", monkeypatch) == 2
        assert capsys.readouterr().err == "error: empty field at index 0 in word '.1'\n"

    def test_spaced_and_dotted_forms_still_parse(self, capsys, monkeypatch):
        assert run_cli(["encode", "--n", "3"], "1 2 1 3\n", monkeypatch) == 0
        assert run_cli(["encode", "--n", "3"], "1.2.1.3\n", monkeypatch) == 0
        assert run_cli(["decode", "--n", "3", "--prefix", "2.1"], "01\n", monkeypatch) == 0
        assert run_cli(["exponent"], "1 2\t1\n", monkeypatch) == 0
        assert capsys.readouterr().out.splitlines() == [
            "01", "01", "2123", "3/2 start=0 period=2 length=3 exponent=3/2"]

    def test_kernel_scan(self, capsys, monkeypatch):
        assert run_cli(["kernel-scan", "--n", "5"], "111111\n", monkeypatch) == 0
        captured = capsys.readouterr()
        assert "period=5" in captured.out
        assert "occurrence(s)" in captured.err

    def test_kernel_scan_clean_word(self, capsys, monkeypatch):
        assert run_cli(["kernel-scan", "--n", "5"], "10110\n", monkeypatch) == 0
        assert capsys.readouterr().out == ""

    def test_kernel_scan_bad_input(self, capsys, monkeypatch):
        assert run_cli(["kernel-scan", "--n", "5"], "10x\n", monkeypatch) == 2

    def test_file_argument(self, tmp_path, capsys):
        path = tmp_path / "word.txt"
        path.write_text("010\n")
        assert main(["exponent", str(path)]) == 0
        assert capsys.readouterr().out.startswith("3/2")


def _unreadable(tmp_path, case):
    """A path that cannot be read as UTF-8 text, with the reason its error
    message must end with."""
    if case == "missing":
        return tmp_path / "absent.txt", "No such file or directory"
    if case == "directory":
        return tmp_path, "Is a directory"
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"0\xff1\n")
    return path, "can't decode byte 0xff in position 1: invalid start byte"


class TestUnreadableInput:
    """An input FILE that is missing, a directory or not UTF-8 is an input
    error: exit 2 with one line naming the file and the reason."""

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
    @pytest.mark.parametrize("command", [["encode", "--n", "3"], ["decode", "--n", "3"],
                                         ["exponent"], ["kernel-scan", "--n", "5"]],
                             ids=lambda command: command[0])
    def test_word_file(self, tmp_path, capsys, command, case):
        path, reason = _unreadable(tmp_path, case)
        assert main([*command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ") and err.endswith(f"{reason}\n")

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
    def test_morphism_file(self, tmp_path, capsys, case):
        path, reason = _unreadable(tmp_path, case)
        assert main(["verify", "15", "--morphism-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ") and err.endswith(f"{reason}\n")


class TestLibraryMessages:
    """A bad argument exits 2 with the message of the ValueError that the
    library raises for the same arguments; the CLI adds only ``error: ``."""

    @pytest.mark.parametrize("argv,stdin_text,call", [
        (["search", "1"], None, lambda: search_convenient(1, 0, 1)),
        (["search", "256"], None, lambda: search_convenient(256, 1020, 1)),
        (["search", "15", "--length", "0"], None, lambda: search_convenient(15, 0, 1)),
        (["search", "15", "--limit", "0"], None, lambda: search_convenient(15, 56, 0)),
        (["decode", "--n", "3"], "01x", lambda: decode("01x", canonical_prefix(3))),
        (["decode", "--n", "3", "--prefix", "11"], "01",
         lambda: decode("01", SigmaWord.from_text("11", 3))),
        (["decode", "--n", "256"], "01", lambda: decode("01", canonical_prefix(256))),
        (["kernel-scan", "--n", "5"], "10x", lambda: find_kernel_repetitions("10x", 5)),
        (["kernel-scan", "--n", "1"], "0110", lambda: find_kernel_repetitions("0110", 1)),
        (["kernel-scan", "--n", "256"], "0110", lambda: find_kernel_repetitions("0110", 256)),
        (["encode", "--n", "3"], "1214", lambda: encode(SigmaWord.from_text("1214", 3))),
        (["exponent"], "1..2", lambda: max_exponent(parse_symbols("1..2", digits=False))),
    ], ids=["search-n=1", "search-n=256", "search-length=0", "search-limit=0",
            "decode-non-binary", "decode-prefix=11", "decode-n=256", "kernel-scan-non-binary",
            "kernel-scan-n=1", "kernel-scan-n=256", "encode-letter", "exponent-empty-field"])
    def test_exits_2_with_library_message(self, capsys, monkeypatch, argv, stdin_text, call):
        with pytest.raises(ValueError) as info:
            call()
        assert run_cli(argv, stdin_text, monkeypatch) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {info.value}\n"


class TestKernelScanMaxPeriod:
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_below_one_exits_2(self, capsys, monkeypatch, value):
        assert run_cli(["kernel-scan", "--n", "5", "--max-period", value],
                       "111111\n", monkeypatch) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: max-period must be >= 1, got {value}\n"


class TestSearchStanzaOutput:
    def test_seeded_search_emits_stanza(self, capsys, monkeypatch):
        # the library seam returns the builtin pair, so the command succeeds
        # at once with the default length 4n-4 and prints a parseable stanza
        h = builtin(15)
        calls = stub_search(monkeypatch, [h])
        assert main(["search", "15"]) == 0
        assert parse_morphism_file(capsys.readouterr().out) == [h]
        assert calls == [(15, 56, 1)]


class TestEntryPoints:
    def test_module_invocation(self):
        # The child imports the package under test, installed or not.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "dejean", "verify", "15", "--json"],
            capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["overall"] is True

    @pytest.mark.parametrize("target", ["all", "26"])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_closed_stdout_exits_quietly(self, target, buffered):
        """stdout is a pipe whose read end is already closed, so the first
        write to it raises: in ``print`` when unbuffered, and at the latest
        in ``main``'s flush.  Exit 1, nothing on stderr."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "dejean", "verify", target],
                                  stdout=write_end, stderr=subprocess.PIPE, timeout=300, env=env)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
