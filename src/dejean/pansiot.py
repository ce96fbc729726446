"""Pansiot encoding: window-distinct words over {1..n} vs binary codewords.

A word v over {1..n} in which every factor of length n-1 has n-1 distinct
letters is encoded by one bit per position past the first n-1 letters: bit i
is 0 when the letter n-1 places later repeats letter i, else 1.  Window
distinctness forces the "1" letter to be the unique letter absent from the
preceding window, so the word is recoverable from the bits plus its first
n-1 letters.

Decoding only copies the oldest window letter or the missing letter, so it
commutes with relabelling the alphabet: from a state (window, missing
letter), a word of bits emits the letters it emits from the canonical
state, each relabelled by the state.  So every decoding runs one loop,
``_letters``: given the images (h(0), h(1)) of a binary morphism h, it
decodes h(bits) one image per step, each image's letters and end state
tabled once from the canonical state and applied by ``bytes.translate``;
h(bits) is never built.  Raw bits are the images of the identity
morphism, ("0", "1"), so they decode one bit per step.  A letter is one
byte, so every decoding takes alphabets of at most 255 letters, and
``_letters``, which each one runs, rejects larger ones; ``encode`` decodes
nothing and takes any n.
``decode_letters`` returns the letters unchecked, as ``bytes``; ``decode``
wraps them in a checked ``SigmaWord``.  ``perms.word_permutation`` reads
the decoder state off the last n-1 letters of ``decode_letters``.
"""

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


def decode_letters(bits: str, n: int, images: tuple[str, str] = ("0", "1")) -> bytes:
    """The letters of ``decode(bits, canonical_prefix(n))`` without its
    ``SigmaWord`` check, as ``bytes``.  Given ``images`` = (h(0), h(1)),
    the letters of the decoding of h(bits), one image per step; h(bits) is
    never built.  The default images are the identity's, so raw bits
    decode themselves."""
    return _letters(bits, canonical_prefix(n).letters, n, images)


def _letters(bits: str, prefix: tuple[int, ...], missing: int,
             images: tuple[str, str] = ("0", "1")) -> bytes:
    """The letters of the decoding of h(bits) from the state (prefix,
    missing), h with the images (h(0), h(1)): one :func:`_step` per bit of
    ``bits``, its image's letters relabelled by the state, which its end
    state relabels in turn."""
    n = len(prefix) + 1
    if n > 255:  # one byte a letter
        raise ValueError(f"alphabet size must be <= 255, got {n}")
    bits = check_binary(bits)
    steps = dict(zip("01", (_step(check_binary(image), n) for image in images)))
    state, pad = bytes(prefix) + bytes((missing,)), bytes(255 - len(prefix))
    out = [bytes(prefix)]
    for bit in bits:
        emit, nxt = steps[bit]
        table = state + pad
        out.append(emit.translate(table))
        state = nxt.translate(table)
    return b"".join(out)


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


def _step(image: str, n: int) -> tuple[bytes, bytes]:
    """The positions in the state 0..n-1 (window, then missing letter) of
    the letters that ``image`` emits and of the state it leaves."""
    letters = _decode_loop(image, tuple(range(n - 1)), n - 1)
    window = letters[1 - n:]
    return bytes(letters[n - 1:]), bytes(window + [n * (n - 1) // 2 - sum(window)])
