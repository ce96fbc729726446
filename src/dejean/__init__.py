"""Machine checks for repetition-threshold morphisms on alphabets of 15 to
26 letters: Pansiot encoding, permutation conditions, markability, bounded
repetition searches, and a backtracking search for convenient morphisms.
"""

__version__ = "0.1.0"

from .morphisms import (BUILTIN_SIZES, FactorSet, MorphismFormatError,
                        PrefixStabilityError, UniformMorphism, builtin,
                        emit_morphism_file, factor_closure, iteration_bound,
                        parse_morphism_file)
from .markability import (MarkabilityReport, PhaseConflict,
                          check_all_length_r_factors_markable)
from .pansiot import WindowDistinctnessError, canonical_prefix, decode, encode
from .perms import (Permutation, PrefixPermutationTable, find_conjugator,
                    is_kernel_word, step0, step1, word_permutation)
from .search import enumerate_legal, legal_length_counts, search_convenient
from .verifier import (Bounds, CheckResult, VerificationReport, compute_bounds,
                       find_kernel_repetitions, probe_encoding, probe_word,
                       run_check, verify)
from .words import (RepetitionOccurrence, SigmaWord, find_repetitions_exceeding,
                    find_repetitions_with_excess_at_least, max_exponent)

__all__ = [
    "BUILTIN_SIZES", "Bounds", "CheckResult", "FactorSet", "MarkabilityReport",
    "MorphismFormatError", "Permutation", "PhaseConflict",
    "PrefixPermutationTable", "PrefixStabilityError", "RepetitionOccurrence",
    "SigmaWord", "UniformMorphism", "VerificationReport",
    "WindowDistinctnessError", "builtin", "canonical_prefix",
    "check_all_length_r_factors_markable",
    "compute_bounds", "decode", "emit_morphism_file", "encode",
    "enumerate_legal", "factor_closure", "find_conjugator",
    "find_kernel_repetitions", "find_repetitions_exceeding",
    "find_repetitions_with_excess_at_least", "is_kernel_word",
    "iteration_bound", "legal_length_counts", "max_exponent",
    "parse_morphism_file", "probe_encoding", "probe_word", "run_check",
    "search_convenient", "step0", "step1", "verify", "word_permutation",
]
