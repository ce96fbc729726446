"""Spans around calls into the modules of ``dejean``, recorded from outside.

A span is recorded wherever a caller looks a layer's function up: the
tracer replaces the attribute in the calling module for the length of the
traced step and puts it back afterwards, so no file of the program changes.
Per-node helpers (``perms._compose``, the pairing done per leaf) are never
wrapped: at millions of calls per search the wrapper would cost more than
the work it measures.  ``search._walk`` (once per search) and
``search._screen_pair`` (once per candidate pair) are the two private
boundaries wrapped, because the walk and the screen have no public entry.
"""

import importlib
import time
from bisect import bisect_left
from collections import defaultdict


def _size(result) -> int:
    return len(result)


def _markability(result) -> list[int]:
    return [result.factor_count, len(result.failures)]


def _report(result) -> dict:
    return {"overall": result.overall, "ms": {c.name: c.ms for c in result.checks}}


# (calling module, attribute, span name, what to keep of the result)
SITES = (
    ("dejean.verifier", "verify", "verifier.verify", _report),
    ("dejean.verifier", "find_kernel_repetitions", "verifier.find_kernel_repetitions", _size),
    ("dejean.verifier", "PrefixPermutationTable", "perms.PrefixPermutationTable", None),
    ("dejean.verifier", "find_repetitions_exceeding", "words.find_repetitions_exceeding", _size),
    ("dejean.verifier", "find_repetitions_with_excess_at_least",
     "words.find_repetitions_with_excess_at_least", _size),
    ("dejean.verifier", "decode", "pansiot.decode", None),
    ("dejean.verifier", "probe_encoding", "verifier.probe_encoding", None),
    ("dejean.verifier", "probe_word", "verifier.probe_word", None),
    ("dejean.verifier", "factor_closure", "morphisms.factor_closure", None),
    ("dejean.verifier", "check_all_length_r_factors_markable",
     "markability.check_all_length_r_factors_markable", _markability),
    ("dejean.markability", "factor_closure", "morphisms.factor_closure", None),
    ("dejean.search", "search_convenient", "search.search_convenient", None),
    ("dejean.search", "_walk", "search._walk", int),
    ("dejean.search", "_screen_pair", "search._screen_pair", None),
    ("dejean.search", "verify", "verifier.verify", _report),
    ("dejean.search", "factor_closure", "morphisms.factor_closure", None),
    ("dejean.search", "has_repetition_exceeding", "words.has_repetition_exceeding", None),
    ("dejean.search", "has_repetition_with_excess_at_least",
     "words.has_repetition_with_excess_at_least", None),
    ("dejean.search", "probe_word", "verifier.probe_word", None),
    ("dejean.search", "probe_encoding", "verifier.probe_encoding", None),
    ("dejean.search", "find_kernel_repetitions", "verifier.find_kernel_repetitions", _size),
    ("dejean.search", "check_all_length_r_factors_markable",
     "markability.check_all_length_r_factors_markable", _markability),
)


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, run id, kept result].

    Each call made from outside any span (one operation of the benchmark)
    opens a new run id, which its descendants share.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, function, name, keep):
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            if not open_spans:
                self.run_id += 1
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else None, self.run_id, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_spans.pop()
            if keep is not None:
                span[5] = keep(result)
            return result

        return traced

    def __enter__(self):
        for module_name, attr, name, keep in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, keep))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


class Spans:
    """Totals, self times and counts over recorded spans.

    ``gaps`` are (start, end) intervals that ran inside spans but are not
    the program's work (the speed probe); each span's duration leaves out
    the gaps that started within it.
    """

    def __init__(self, spans: list[list], gaps=()):
        self.spans = spans
        gaps = sorted(gaps)
        starts = [g[0] for g in gaps]
        covered = [0.0]
        for g0, g1 in gaps:
            covered.append(covered[-1] + g1 - g0)
        self.duration = [s[2] - s[1] - (covered[bisect_left(starts, s[2])]
                                        - covered[bisect_left(starts, s[1])])
                         for s in spans]
        self.self_time = list(self.duration)
        for k, s in enumerate(spans):
            if s[3] is not None:
                self.self_time[s[3]] -= self.duration[k]

    def _ancestors(self, index: int):
        parent = self.spans[index][3]
        while parent is not None:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def select(self, name: str, parent: str | None = None, within: str | None = None):
        """Indices of spans with this name, optionally with a given direct
        parent span name or with some ancestor of the given name."""
        out = []
        for k, s in enumerate(self.spans):
            if s[0] != name:
                continue
            if parent is not None and (s[3] is None or self.spans[s[3]][0] != parent):
                continue
            if within is not None and within not in self._ancestors(k):
                continue
            out.append(k)
        return out

    def total(self, indices) -> float:
        return sum(self.duration[k] for k in indices)

    def own(self, indices) -> float:
        return sum(self.self_time[k] for k in indices)

    def kept(self, indices) -> list:
        return [self.spans[k][5] for k in indices]

    def by_name(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for k, s in enumerate(self.spans):
            row = table[s[0]]
            row[0] += 1
            row[1] += self.duration[k]
            row[2] += self.self_time[k]
        return {name: {"calls": c, "total_s": t, "self_s": o} for name, (c, t, o) in table.items()}
