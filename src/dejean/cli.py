"""Command-line interface.

Commands: verify (reports for embedded or user-supplied morphisms), search
(rediscover convenient morphisms), and the word utilities encode, decode,
exponent, kernel-scan.  Results go to stdout; diagnostics and progress go
to stderr.  Exit codes: 0 success, 1 a requested check failed or a search
came up empty, 2 usage or input errors.

One error path: a command body calls the library, which checks its own
arguments, and lets its ``ValueError`` rise; ``main`` alone prints it as
``error: <message>`` and exits 2.  The bodies raise ``ValueError`` only for
what the library never sees (the input files, an empty word, the verify
target, ``--max-period``) and to reword encode's window error.  Any other
exception propagates, but a closed stdout (``dejean verify 26 | head -2``)
ends the command with exit code 1 and nothing on stderr.
"""

import argparse
import os
import sys

from . import __version__
from .morphisms import (BUILTIN_SIZES, MorphismFormatError, UniformMorphism,
                        builtin, emit_morphism_file, parse_morphism_file)
from .pansiot import WindowDistinctnessError, canonical_prefix, decode, encode
from .search import search_convenient
from .verifier import find_kernel_repetitions, verify
from .words import SigmaWord, max_exponent, parse_symbols


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # strerror: the reason without the path
        raise ValueError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _read_word(args) -> str:
    text = (_read_file(args.file) if args.file else sys.stdin.read()).strip()
    if not text:
        raise ValueError("empty input word")
    return text


def _morphism_sources(path: str | None) -> list[UniformMorphism]:
    """The stanzas of the file at ``path``, else the embedded table."""
    if not path:
        return [builtin(n) for n in BUILTIN_SIZES]
    try:
        morphs = parse_morphism_file(_read_file(path))
    except MorphismFormatError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not morphs:
        raise ValueError(f"{path}: no morphism stanza")
    return morphs


def _cmd_verify(args) -> int:
    selected = _morphism_sources(args.morphism_file)
    if args.target != "all":
        try:
            n = int(args.target)
        except ValueError:
            raise ValueError(f"target must be an integer or 'all', got {args.target!r}") from None
        selected = [h for h in selected if h.n == n]
        if not selected and args.morphism_file:
            raise ValueError(f"no morphism for n={n} in the supplied file")
        if not selected:
            raise ValueError(f"n={n} is outside the embedded range "
                             f"{BUILTIN_SIZES[0]}..{BUILTIN_SIZES[-1]}; supply --morphism-file")
    reports = [verify(h) for h in selected]
    for report in reports:
        print(report.to_json_text() if args.json else report.render_text())
    return 0 if all(report.overall for report in reports) else 1


def _cmd_search(args) -> int:
    length = args.length
    if length is None:
        length = 4 * args.n if args.n == 21 else 4 * args.n - 4
    found = search_convenient(
        args.n, length, args.limit,
        progress=lambda msg: print(f"search: {msg}", file=sys.stderr),
    )
    if not found:
        print("search: no convenient morphism found", file=sys.stderr)
        return 1
    sys.stdout.write(emit_morphism_file(found))
    return 0


def _cmd_encode(args) -> int:
    word = SigmaWord.from_text(_read_word(args), args.n)
    try:
        print(encode(word))
    except WindowDistinctnessError as exc:
        raise ValueError(f"input is not Pansiot-encodable: {exc} (window index {exc.index})") from None
    return 0


def _cmd_decode(args) -> int:
    bits = _read_word(args)
    if args.prefix is None:
        prefix = canonical_prefix(args.n)
    else:
        prefix = SigmaWord.from_text(args.prefix, args.n)
    print(decode(bits, prefix).text())
    return 0


def _cmd_exponent(args) -> int:
    exponent, witness = max_exponent(parse_symbols(_read_word(args), digits=False))
    print(exponent if witness is None else f"{exponent} {witness.describe()}")
    return 0


def _cmd_kernel_scan(args) -> int:
    if args.max_period is not None and args.max_period < 1:
        raise ValueError(f"max-period must be >= 1, got {args.max_period}")
    occs = find_kernel_repetitions(_read_word(args), args.n, args.max_period)
    for occ in occs:
        print(occ.describe())
    print(f"kernel-scan: {len(occs)} occurrence(s)", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dejean",
        description="Repetition-threshold verification for alphabets of 15..26 letters",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("target", help="alphabet size, or 'all'")
    p.add_argument("--json", action="store_true", help="one JSON report per line")
    p.add_argument("--morphism-file", metavar="PATH",
                   help="stanza file to verify instead of the embedded table")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="search for convenient morphisms")
    p.add_argument("n", type=int, help="alphabet size")
    p.add_argument("--length", type=int, default=None,
                   help="image length (default 4n-4, or 4n for n=21)")
    p.add_argument("--limit", type=int, default=1, help="morphisms to find (default 1)")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("encode", help="Pansiot-encode a word read from stdin or FILE")
    p.add_argument("--n", type=int, required=True, help="alphabet size")
    p.add_argument("file", nargs="?", help="input file (default: stdin)")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode a binary word read from stdin or FILE")
    p.add_argument("--n", type=int, required=True, help="alphabet size")
    p.add_argument("--prefix", help="starting letters (default 1 2 ... n-1)")
    p.add_argument("file", nargs="?", help="input file (default: stdin)")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("exponent", help="largest exact fractional exponent of a word")
    p.add_argument("file", nargs="?", help="input file (default: stdin)")
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("kernel-scan", help="list kernel repetitions of a binary word")
    p.add_argument("--n", type=int, required=True, help="alphabet size")
    p.add_argument("--max-period", type=int, default=None, help="cap the scanned period")
    p.add_argument("file", nargs="?", help="input file (default: stdin)")
    p.set_defaults(func=_cmd_kernel_scan)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
