"""Two-stage literal prefilter for low-match-rate streams.

Most real traffic matches rarely, yet the ungated kernels walk the full
NFA for every byte.  This package compiles a cheap literal scan per
ruleset and wakes the expensive engines only on stream windows that
pass it:

- :mod:`~repro.prefilter.literals` — required-substring extraction from
  the automaton graph (sound by construction, or the machine is marked
  unfilterable and runs ungated);
- :mod:`~repro.prefilter.direct_filter` — DFC-style 2-byte-window
  bitmap + compact hash table + Aho-Corasick verification;
- :mod:`~repro.prefilter.gate` — window planning and gated execution in
  front of :class:`~repro.sim.engine.BitsetEngine` and
  :class:`~repro.core.device.SunderDevice`, fused with the hot/cold
  state split.

See docs/performance.md ("Two-stage prefiltering") for the crossover
analysis — prefiltering wins big on clean traffic and loses on
report-dense streams.
"""

from .direct_filter import LONG_LITERAL_LEN, DirectFilter, ScanResult
from .gate import (PREFILTER_CODEC, PREFILTER_VERSION, Prefilter,
                   PrefilterCodec, build_prefilter,
                   gated_device_run, gated_simulation, plan_windows,
                   record_hotcold_savings, scan_windows)
from .literals import (MAX_LITERAL_LEN, LiteralExtraction, extract_literals)

__all__ = [
    "DirectFilter",
    "LONG_LITERAL_LEN",
    "LiteralExtraction",
    "MAX_LITERAL_LEN",
    "PREFILTER_CODEC",
    "PREFILTER_VERSION",
    "Prefilter",
    "PrefilterCodec",
    "ScanResult",
    "build_prefilter",
    "extract_literals",
    "gated_device_run",
    "gated_simulation",
    "plan_windows",
    "record_hotcold_savings",
    "scan_windows",
]
