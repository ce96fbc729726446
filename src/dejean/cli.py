"""Command-line interface.

Commands: verify (reports for embedded or user-supplied morphisms), search
(rediscover convenient morphisms), and the word utilities encode, decode,
exponent, kernel-scan.  Results go to stdout; diagnostics and progress go
to stderr.  Exit codes: 0 success, 1 a requested check failed or a search
came up empty, 2 usage or input errors.
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
from .words import SigmaWord, check_binary, max_exponent, parse_symbols

MORPHISM_FILE_ENV = "DEJEAN_MORPHISMS"


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


class _InputError(Exception):
    """An input file that cannot be read or parsed; main exits 2."""


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # strerror: the reason without the path
        raise _InputError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _read_word(args) -> str:
    text = (_read_file(args.file) if getattr(args, "file", None) else sys.stdin.read()).strip()
    if not text:
        raise _InputError("empty input word")
    return text


def _morphism_sources(args) -> list[UniformMorphism]:
    """Morphisms the verify command should consider."""
    path = args.morphism_file or os.environ.get(MORPHISM_FILE_ENV)
    if path:
        try:
            morphs = parse_morphism_file(_read_file(path))
        except MorphismFormatError as exc:
            raise _InputError(f"{path}: {exc}") from None
        if not morphs:
            raise _InputError(f"{path}: no morphism stanza")
        return morphs
    return [builtin(n) for n in BUILTIN_SIZES]


def _cmd_verify(args) -> int:
    morphs = _morphism_sources(args)
    if args.target == "all":
        selected = morphs
    else:
        try:
            n = int(args.target)
        except ValueError:
            return _fail(f"target must be an integer or 'all', got {args.target!r}")
        selected = [h for h in morphs if h.n == n]
        if not selected:
            if args.morphism_file or os.environ.get(MORPHISM_FILE_ENV):
                return _fail(f"no morphism for n={n} in the supplied file")
            return _fail(f"n={n} is outside the embedded range "
                         f"{BUILTIN_SIZES[0]}..{BUILTIN_SIZES[-1]}; supply --morphism-file")
    reports = [verify(h) for h in selected]
    for report in reports:
        print(report.to_json_text() if args.json else report.render_text())
    return 0 if all(report.overall for report in reports) else 1


def _cmd_search(args) -> int:
    if args.n < 2:
        return _fail(f"alphabet size must be >= 2, got {args.n}")
    if args.n > 255:
        return _fail(f"alphabet size must be <= 255, got {args.n}")
    length = args.length
    if length is None:
        length = 4 * args.n if args.n == 21 else 4 * args.n - 4
    if length < 1:
        return _fail(f"length must be >= 1, got {length}")
    if args.limit < 1:
        return _fail(f"limit must be >= 1, got {args.limit}")
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
    text = _read_word(args)
    try:
        word = SigmaWord.from_text(text, args.n)
        print(encode(word))
    except WindowDistinctnessError as exc:
        return _fail(f"input is not Pansiot-encodable: {exc} (window index {exc.index})")
    except ValueError as exc:
        return _fail(str(exc))
    return 0


def _cmd_decode(args) -> int:
    text = _read_word(args)
    try:
        bits = check_binary(text)
        if args.prefix is not None:
            prefix = SigmaWord.from_text(args.prefix, args.n)
        else:
            prefix = canonical_prefix(args.n)
        print(decode(bits, prefix).text())
    except ValueError as exc:
        return _fail(str(exc))
    return 0


def _cmd_exponent(args) -> int:
    text = _read_word(args)
    try:
        exponent, witness = max_exponent(parse_symbols(text, digits=False))
    except ValueError as exc:
        return _fail(str(exc))
    if witness is None:
        print(exponent)
    else:
        print(f"{exponent} {witness.describe()}")
    return 0


def _cmd_kernel_scan(args) -> int:
    if args.max_period is not None and args.max_period < 1:
        return _fail(f"max-period must be >= 1, got {args.max_period}")
    text = _read_word(args)
    try:
        bits = check_binary(text)
        occs = find_kernel_repetitions(bits, args.n, args.max_period)
    except ValueError as exc:
        return _fail(str(exc))
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
                   help=f"stanza file to verify instead of the embedded table "
                        f"(default: ${MORPHISM_FILE_ENV})")
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
        return args.func(args)
    except _InputError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
