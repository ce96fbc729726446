"""Uniform binary morphisms: the embedded table for n = 15..26, morphism
application, and the factor sets of the limit word.

The embedded images are carried in ``data/morphisms.txt`` in the same stanza
format accepted from user files, so the parser is exercised on every load.
"""

import importlib.resources
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .words import check_binary

BUILTIN_SIZES = tuple(range(15, 27))


class MorphismFormatError(ValueError):
    """Malformed stanza text; the message carries the line number."""


class PrefixStabilityError(ValueError):
    """No iteration scheme from a single letter extends its previous output."""


@dataclass(frozen=True)
class UniformMorphism:
    """Binary morphism with images of one common length r, tied to an
    alphabet-size parameter n for the verification checks."""

    n: int
    image0: str
    image1: str

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.n}")
        if self.n > 255:  # the decoder holds a letter in one byte
            raise ValueError(f"alphabet size must be <= 255, got {self.n}")
        if not self.image0 or len(self.image0) != len(self.image1):
            raise ValueError(
                f"images must be nonempty and of equal length, got {len(self.image0)} and {len(self.image1)}"
            )
        for name, img in (("image0", self.image0), ("image1", self.image1)):
            if img.strip("01") != "":
                raise ValueError(f"{name} holds non-binary symbols: {img!r}")

    @property
    def r(self) -> int:
        return len(self.image0)

    def apply(self, w: str) -> str:
        """Image of a binary word: the concatenation of letter images.  Any
        symbol other than 0 and 1, whitespace included, is rejected."""
        img0, img1 = self.image0, self.image1
        return "".join(img1 if c == "1" else img0 for c in check_binary(w))


@dataclass(frozen=True)
class FactorSet:
    """All length-k factors of the limit word of a morphism."""

    length: int
    members: frozenset[str]

    def __post_init__(self) -> None:
        for m in self.members:
            if len(m) != self.length:
                raise ValueError(f"member {m!r} does not have length {self.length}")

    def __contains__(self, w: str) -> bool:
        return w in self.members

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)


@lru_cache(maxsize=1)
def _builtin_table() -> dict[int, UniformMorphism]:
    text = importlib.resources.files("dejean").joinpath("data/morphisms.txt").read_text()
    table = {h.n: h for h in parse_morphism_file(text)}
    if tuple(sorted(table)) != BUILTIN_SIZES:
        raise RuntimeError(f"embedded table holds sizes {sorted(table)}, expected {BUILTIN_SIZES}")
    return table


def builtin(n: int) -> UniformMorphism:
    """The embedded morphism for an alphabet of n letters, 15 <= n <= 26."""
    table = _builtin_table()
    if n not in table:
        raise ValueError(f"no embedded morphism for n={n}; available: {BUILTIN_SIZES[0]}..{BUILTIN_SIZES[-1]}")
    return table[n]


# Iteration schemes tried for the limit word, in order: seed letter and the
# power of h applied per step.  A scheme is usable when its first iterate
# properly extends the seed.
_LIMIT_SCHEMES = (("0", 1), ("0", 2), ("1", 1), ("1", 2))


def _factors(s: str, k: int) -> set[str]:
    """Length-k factors of a binary word.  When the word is much longer
    than the 2^k binary k-words, testing each of those for membership is
    cheaper than sliding a window, and gives the same set."""
    if 2 ** k < len(s) // 8:
        return {u for u in map("".join, product("01", repeat=k)) if u in s}
    return {s[i : i + k] for i in range(len(s) - k + 1)}


def factor_closure(h: UniformMorphism, k: int) -> FactorSet:
    """The set of all length-k factors of the limit word.

    Any length-k factor extends to the image of a factor of length
    m = floor((k + 2(r-1)) / r), so the set is the least fixed point of
    taking length-k factors of images.  For k <= 2 the map is from the set
    to itself and is iterated from the k-factors of the first iterate of
    the first usable scheme among h from "0", h twice from "0", h from "1",
    h twice from "1": h(a) or h(h(a)), usable when it properly extends the
    seed letter a, so that iterating it grows a one-sided fixed point.
    Because both letters occur in both images for the morphisms of
    interest, the set does not depend on the scheme chosen.  Longer k
    recurse on the strictly smaller m.
    """
    if k < 1:
        raise ValueError(f"factor length must be >= 1, got {k}")
    r = h.r
    m = (k + 2 * (r - 1)) // r
    if m >= k:
        for seed, power in _LIMIT_SCHEMES:
            first = h.apply(seed) if power == 1 else h.apply(h.apply(seed))
            if first.startswith(seed) and len(first) > len(seed):
                break
        else:
            raise PrefixStabilityError("no prefix-stable iteration from either letter")
        members = _factors(first, k)
        while True:
            grown = set(members)
            for u in members:
                grown |= _factors(h.apply(u), k)
            if grown == members:
                break
            members = grown
        return FactorSet(k, frozenset(members))
    base = factor_closure(h, m)
    members = set()
    for u in base.members:
        members |= _factors(h.apply(u), k)
    return FactorSet(k, frozenset(members))


def iteration_bound(ell: int, r: int) -> int:
    """floor((floor((ell + 2(r-1)) / r) + 2(r-1)) / r).

    Length bound on a factor whose second image under the morphism covers
    any length-ell factor of the limit word.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    return ((ell + 2 * (r - 1)) // r + 2 * (r - 1)) // r


def parse_morphism_file(text: str) -> list[UniformMorphism]:
    """Parse stanza text: lines n=, r= (ASCII digits), h0=, h1= per morphism,
    stanzas separated by blank lines, '#' lines ignored."""
    morphisms = []
    fields: dict[str, tuple[str, int]] = {}

    def flush() -> None:
        if not fields:
            return
        first = min(line for _, line in fields.values())  # names the whole stanza
        missing = [k for k in ("n", "r", "h0", "h1") if k not in fields]
        if missing:
            raise MorphismFormatError(f"line {first}: stanza is missing field(s) {', '.join(missing)}")
        for key in ("n", "r"):
            value, line = fields[key]
            if not (value.isascii() and value.isdigit()):
                raise MorphismFormatError(f"line {line}: {key} must be a decimal integer")
        n, r = int(fields["n"][0]), int(fields["r"][0])
        for value, line in (fields["h0"], fields["h1"]):
            if value.strip("01") != "":
                raise MorphismFormatError(f"line {line}: image holds non-binary symbols")
            if len(value) != r:
                raise MorphismFormatError(
                    f"line {line}: image length {len(value)} does not match declared r={r}"
                )
        try:
            morphisms.append(UniformMorphism(n, fields["h0"][0], fields["h1"][0]))
        except ValueError as exc:
            raise MorphismFormatError(f"line {first}: {exc}") from None
        fields.clear()

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            flush()
            continue
        if line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in ("n", "r", "h0", "h1"):
            raise MorphismFormatError(f"line {line_no}: expected 'n=', 'r=', 'h0=' or 'h1='")
        if key in fields:
            raise MorphismFormatError(f"line {line_no}: duplicate field {key!r} in stanza")
        fields[key] = (value.strip(), line_no)
    flush()
    return morphisms


def emit_morphism_file(morphisms) -> str:
    """Stanza text for a list of morphisms, in ascending n."""
    blocks = []
    for h in sorted(morphisms, key=lambda m: (m.n, m.image0, m.image1)):
        blocks.append(f"n={h.n}\nr={h.r}\nh0={h.image0}\nh1={h.image1}\n")
    return "\n".join(blocks)
