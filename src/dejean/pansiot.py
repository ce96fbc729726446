"""Pansiot encoding: window-distinct words over {1..n} vs binary codewords.

A word v over {1..n} in which every factor of length n-1 has n-1 distinct
letters is encoded by one bit per position past the first n-1 letters: bit i
is 0 when the letter n-1 places later repeats letter i, else 1.  Window
distinctness forces the "1" letter to be the unique letter absent from the
preceding window, so the word is recoverable from the bits plus its first
n-1 letters.

Decoding only copies the oldest window letter or the missing letter, so it
commutes with relabelling the alphabet: from a state (window, missing
letter), a chunk of bits emits the letters it emits from the canonical
state, each relabelled by the state.  So ``decode`` tables, per n, where
each 8-bit chunk sends the letters of the state and applies it by
``bytes.translate``; the last len(bits) % 8 bits run the plain loop.  A
letter is one byte, so every decoding takes alphabets of at most 255
letters, and ``_letters``, which each one runs, rejects larger ones;
``encode`` decodes nothing and takes any n.
``decode_letters`` returns the letters unchecked, as ``bytes``; ``decode``
wraps them in a checked ``SigmaWord``.  Given the images (h(0), h(1)) of a
binary morphism h, ``decode_letters`` decodes h(bits) with the same loop,
one image per step: the two images are its chunks.  ``end_state`` reads
the decoder state off the last n-1 letters of ``decode_letters``.
"""

from collections.abc import Iterable
from functools import lru_cache

from .words import SigmaWord, check_binary


class WindowDistinctnessError(ValueError):
    """A length-(n-1) window holds a repeated letter.  ``index`` is the
    0-based start of the first offending window."""

    def __init__(self, index: int, message: str | None = None):
        super().__init__(message or f"repeated letter in the window starting at index {index}")
        self.index = index


def canonical_prefix(n: int) -> SigmaWord:
    """The word 1 2 ... n-1 over the alphabet {1..n}; ``SigmaWord`` checks n."""
    return SigmaWord(n, tuple(range(1, n)))


def encode(v: SigmaWord) -> str:
    """Binary codeword of a window-distinct word; output length |v| - (n-1)."""
    n = v.n
    if len(v) < n - 1:
        raise ValueError(f"word of length {len(v)} is shorter than n-1 = {n - 1}")
    bad = v.window_violation()
    if bad is not None:
        raise WindowDistinctnessError(bad)
    letters = v.letters
    shift = n - 1
    return "".join("0" if letters[i] == letters[i + shift] else "1"
                   for i in range(len(letters) - shift))


def decode(bits: str, prefix: SigmaWord) -> SigmaWord:
    """Inverse of :func:`encode` given the first n-1 letters.

    Bit 0 repeats the letter n-1 places back; bit 1 introduces the unique
    letter missing from the preceding window.  The output is window distinct
    by construction, and ``encode(decode(bits, p)) == bits``.
    """
    n = prefix.n
    if len(prefix) != n - 1:
        raise ValueError(f"prefix length {len(prefix)} != n-1 = {n - 1}")
    if len(set(prefix.letters)) != n - 1:
        raise ValueError("prefix letters are not distinct")
    # The single letter of 1..n not present in the prefix.
    missing = n * (n + 1) // 2 - sum(prefix.letters)
    return SigmaWord(n, tuple(_letters(bits, prefix.letters, missing)))


def decode_letters(bits: str, n: int, images: tuple[str, str] | None = None) -> bytes:
    """The letters of ``decode(bits, canonical_prefix(n))`` without its
    ``SigmaWord`` check, as ``bytes``.  Given ``images`` = (h(0), h(1)),
    the letters of the decoding of h(bits), one image per step; h(bits) is
    never built."""
    return _letters(bits, canonical_prefix(n).letters, n, images)


def end_state(bits: str, n: int) -> tuple[int, ...]:
    """The decoder state after ``bits`` from ``canonical_prefix(n)``: the
    last n-1 letters of the decoding, then the missing letter."""
    window = decode_letters(bits, n)[1 - n:]
    return (*window, n * (n + 1) // 2 - sum(window))


def _letters(bits: str, prefix: tuple[int, ...], missing: int,
             images: tuple[str, str] | None = None) -> bytes:
    n = len(prefix) + 1
    if n > 255:  # one byte a letter
        raise ValueError(f"alphabet size must be <= 255, got {n}")
    bits = check_binary(bits)
    if images is not None:
        steps = [_step(check_binary(image), n) for image in images]
        return _decode_chunks(map(int, bits), steps, prefix, missing)
    full = len(bits) - len(bits) % 8
    codes = int(bits[:full] or "0", 2).to_bytes(full // 8, "big")
    return _decode_chunks(codes, _chunk_steps(n), prefix, missing, bits[full:])


def _decode_loop(bits: str, prefix: tuple[int, ...], missing: int) -> list[int]:
    """The letters of the decoding, one bit at a time."""
    letters, width = list(prefix), len(prefix)
    for ch in bits:
        oldest = letters[len(letters) - width]
        if ch == "0":
            letters.append(oldest)
        else:
            letters.append(missing)
            missing = oldest
    return letters


def _step(chunk: str, n: int) -> tuple[bytes, bytes]:
    """The positions in the state 0..n-1 (window, then missing letter) of
    the letters that ``chunk`` emits and of the state it leaves."""
    letters = _decode_loop(chunk, tuple(range(n - 1)), n - 1)
    window = letters[1 - n:]
    return bytes(letters[n - 1:]), bytes(window + [n * (n - 1) // 2 - sum(window)])


@lru_cache(maxsize=None)
def _chunk_steps(n: int) -> list[tuple[bytes, bytes]]:
    """The :func:`_step` of each 8-bit chunk, by value."""
    return [_step(f"{c:08b}", n) for c in range(256)]


def _decode_chunks(codes: Iterable[int], steps: list[tuple[bytes, bytes]],
                   prefix: tuple[int, ...], missing: int, tail: str = "") -> bytes:
    """The letters of the decoding from the state (prefix, missing): one
    step of ``steps`` per code, its letters relabelled by the state, then
    the bits of ``tail`` one at a time."""
    state, pad = bytes(prefix) + bytes((missing,)), bytes(255 - len(prefix))
    out = [bytes(prefix)]
    for code in codes:
        emit, nxt = steps[code]
        table = state + pad
        out.append(emit.translate(table))
        state = nxt.translate(table)
    out.append(bytes(_decode_loop(tail, state[:-1], state[-1])[len(prefix):]))
    return b"".join(out)
