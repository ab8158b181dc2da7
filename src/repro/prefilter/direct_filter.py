"""DFC-style direct filter: bitmap, compact hash table, AC verification.

Stage one of the two-stage prefilter (the cheap one, run over every
byte).  The layout follows the Direct Filter Classification shape
(Choi et al., DFC; see SNIPPETS.md):

1. **direct filter** — a 65536-bit bitmap over 2-byte windows; a window
   survives iff some literal starts with those two bytes.  The scan
   itself is compiled into one :mod:`re` alternation (grouped by first
   byte, second bytes as a character class, wrapped in a zero-width
   lookahead so overlapping candidates are all enumerated), which keeps
   the per-byte work in C instead of a Python loop;
2. **compact hash table** — a dict from surviving 2-byte windows to the
   candidate literals sharing that prefix; short candidates verify with
   a direct slice compare at the candidate position;
3. **verification/fallback for long literals** — candidates at or above
   :data:`LONG_LITERAL_LEN` are confirmed by the Aho-Corasick trie-NFA
   (:meth:`AhoCorasick.to_automaton
   <repro.baselines.aho_corasick.AhoCorasick.to_automaton>`) replayed
   with a :class:`~repro.sim.engine.BitsetEngine` over the merged
   candidate regions only — exhaustive within a region, and regions are
   rare exactly when the filter is earning its keep.

The scan's contract is **exhaustive**: ``scan(data).ends`` contains the
end position of *every* occurrence of *every* literal (verified, no
false positives).  The gate builds its replay windows from those ends,
so a missed occurrence would break bit-exactness; extra ends only cost
wasted cycles.
"""

import re

from ..baselines.aho_corasick import AhoCorasick
from ..errors import PrefilterError

#: Literals at or above this length are verified through the
#: Aho-Corasick trie-NFA instead of per-candidate slice compares.
LONG_LITERAL_LEN = 5


class ScanResult:
    """Outcome of one :meth:`DirectFilter.scan`.

    ``ends`` — sorted tuple of byte positions where a literal occurrence
    ends; ``candidates`` — positions the direct filter passed to
    verification; ``verified`` — verified literal occurrences (may
    exceed ``len(ends)`` when several literals end together).
    """

    __slots__ = ("ends", "candidates", "verified")

    def __init__(self, ends, candidates, verified):
        self.ends = tuple(sorted(ends))
        self.candidates = int(candidates)
        self.verified = int(verified)

    def __repr__(self):
        return ("ScanResult(ends=%d, candidates=%d, verified=%d)"
                % (len(self.ends), self.candidates, self.verified))


def _byte_class(values):
    """Character class matching exactly the given byte values."""
    return b"[" + b"".join(re.escape(bytes([v])) for v in sorted(values)) + b"]"


class DirectFilter:
    """Compiled two-stage scanner for one extracted literal set."""

    def __init__(self, literals):
        self.literals = tuple(sorted(set(bytes(lit) for lit in literals)))
        if any(not lit for lit in self.literals):
            raise PrefilterError("direct filter got an empty literal")
        #: 1-byte literals: any occurrence is already a verified end.
        self.singles = frozenset(lit[0] for lit in self.literals
                                 if len(lit) == 1)
        #: 2-byte window -> tuple of literals starting with it.
        self.buckets = {}
        for lit in self.literals:
            if len(lit) >= 2:
                self.buckets.setdefault(lit[:2], []).append(lit)
        self.buckets = {window: tuple(group)
                        for window, group in self.buckets.items()}
        #: The DFC bitmap: bit ``(b0 << 8) | b1`` set iff the window
        #: survives.  The compiled regex below is its executable form.
        self.bitmap = 0
        for window in self.buckets:
            self.bitmap |= 1 << ((window[0] << 8) | window[1])
        self._pattern = self._compile_pattern()
        long_literals = [lit for lit in self.literals
                         if len(lit) >= LONG_LITERAL_LEN]
        self._long_lengths = {
            window: max(len(lit) for lit in group
                        if len(lit) >= LONG_LITERAL_LEN)
            for window, group in self.buckets.items()
            if any(len(lit) >= LONG_LITERAL_LEN for lit in group)}
        if long_literals:
            self._verifier_automaton = AhoCorasick(
                long_literals).to_automaton(name="prefilter-verifier")
        else:
            self._verifier_automaton = None
        self._verifier_engine = None

    # ------------------------------------------------------------------
    def _compile_pattern(self):
        """One lookahead alternation enumerating every candidate start."""
        branches = []
        if self.singles:
            branches.append(_byte_class(self.singles))
        by_first = {}
        for window in self.buckets:
            by_first.setdefault(window[0], []).append(window[1])
        for first in sorted(by_first):
            branches.append(re.escape(bytes([first]))
                            + _byte_class(by_first[first]))
        if not branches:
            return None
        return re.compile(b"(?=(?:" + b"|".join(branches) + b"))", re.DOTALL)

    def window_survives(self, b0, b1):
        """Direct-filter membership of one 2-byte window (bitmap test)."""
        return bool((self.bitmap >> ((b0 << 8) | b1)) & 1)

    # ------------------------------------------------------------------
    def scan(self, data):
        """Exhaustive verified scan of ``data``; returns a ScanResult."""
        data = bytes(data)
        if self._pattern is None:
            return ScanResult((), 0, 0)
        singles = self.singles
        buckets = self.buckets
        long_lengths = self._long_lengths
        ends = set()
        candidates = 0
        verified = 0
        regions = []
        for match in self._pattern.finditer(data):
            position = match.start()
            candidates += 1
            if data[position] in singles:
                ends.add(position)
                verified += 1
            group = buckets.get(data[position:position + 2])
            if group is None:
                continue
            for lit in group:
                if (len(lit) < LONG_LITERAL_LEN
                        and data.startswith(lit, position)):
                    ends.add(position + len(lit) - 1)
                    verified += 1
            span = long_lengths.get(data[position:position + 2])
            if span is not None:
                regions.append((position, position + span))
        if regions:
            found = self._verify_regions(data, regions)
            verified += len(found)
            ends |= found
        return ScanResult(ends, candidates, verified)

    def _verify_regions(self, data, regions):
        """Long-literal ends inside the merged candidate regions.

        Every long-literal occurrence starts at some candidate position
        (its own 2-byte prefix survives the bitmap), and that
        candidate's region spans the occurrence in full, so replaying
        the trie-NFA from an empty mask per merged region is exhaustive.
        """
        from ..sim.engine import BitsetEngine
        if self._verifier_engine is None:
            self._verifier_engine = BitsetEngine(self._verifier_automaton)
        engine = self._verifier_engine
        merged = []
        for start, end in sorted(regions):
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        ends = set()
        for start, end in merged:
            recorder = engine.run(data[start:min(end, len(data))])
            ends.update(start + position for position in recorder.positions())
        return ends

    def __repr__(self):
        return ("DirectFilter(%d literals, %d windows, %d singles)"
                % (len(self.literals), len(self.buckets), len(self.singles)))
