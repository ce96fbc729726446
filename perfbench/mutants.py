"""Seeded mutants of the builtin morphisms, handed to the program as stanza text.

The mix is fixed and only the positions depend on the seed, so every seed
asks for about the same amount of work:

* for each n in 15..20, one single bit flip and one swap of two adjacent
  unequal bits.  These break the permutation image, so they fail
  ``algebraic_condition`` (often ``factor_set_2`` too) and ``power_free``
  with 80-500 witnesses each: the decisive scans run on their failure
  path, where many periods pass the mask test and witness extraction does
  the work;
* at n = 15 and n = 16, a window of 2n equal bits (zeros at 15, ones at 16)
  overwritten into one image.  0^(n-1) and 1^n both map to the identity, so
  the probe encoding carries a kernel repetition and its decoding a
  repetition of excess >= n-1: ``kernel_free``, ``big_excess_free`` and
  ``power_free`` all fail.  A bounded ``power_free`` whose premise is
  ``big_excess_free`` must fall back to the full scan here.

Every mutant keeps the image length of the morphism it came from.
"""

import random
from dataclasses import dataclass

from dejean import builtin

DEFAULT_SEED = 1

POINT_SIZES = range(15, 21)
WINDOW_SIZES = {15: "0", 16: "1"}


@dataclass(frozen=True)
class Mutant:
    kind: str       # "flip", "swap", "window0" or "window1"
    n: int
    image: int      # which image was changed: 0 or 1
    position: int   # first bit changed
    image0: str
    image1: str


def _mutate(rng: random.Random, n: int, kind: str) -> Mutant:
    h = builtin(n)
    which = rng.randrange(2)
    bits = list(h.image1 if which else h.image0)
    r = len(bits)
    if kind == "flip":
        p = rng.randrange(r)
        bits[p] = "1" if bits[p] == "0" else "0"
    elif kind == "swap":
        p = rng.choice([i for i in range(r - 1) if bits[i] != bits[i + 1]])
        bits[p], bits[p + 1] = bits[p + 1], bits[p]
    else:
        fill = kind[-1] * (2 * n)
        p = rng.choice([i for i in range(r - 2 * n + 1)
                        if "".join(bits[i:i + 2 * n]) != fill])
        bits[p:p + 2 * n] = fill
    image = "".join(bits)
    if which:
        return Mutant(kind, n, which, p, h.image0, image)
    return Mutant(kind, n, which, p, image, h.image1)


def generate(seed: int) -> list[Mutant]:
    """The mutant mix for one seed; the same seed gives the same mutants."""
    rng = random.Random(seed)
    out = []
    for n in POINT_SIZES:
        out.append(_mutate(rng, n, "flip"))
        out.append(_mutate(rng, n, "swap"))
    for n, bit in WINDOW_SIZES.items():
        out.append(_mutate(rng, n, "window" + bit))
    return out


def stanza_text(mutants: list[Mutant]) -> str:
    """Stanza file text in generation order, one comment line per mutant."""
    return "\n".join(
        f"# {m.kind} of image{m.image} at bit {m.position}\n"
        f"n={m.n}\nr={len(m.image0)}\nh0={m.image0}\nh1={m.image1}\n"
        for m in mutants)
