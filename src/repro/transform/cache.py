"""Content-addressed cache for transformation pipeline results.

The Section 4 pipeline (``to_nibbles`` -> ``square``/``stride``) is pure:
its output is fully determined by the source automaton's structure and
the transform parameters.  Like Impala's offline 4-bit transformation,
it is a one-time compilation cost — so results are cached under a
content-addressed key and reused across experiments (Table 3 and Table 4
share the intermediate nibble machine), across repeated CLI runs, and
across ``ParallelRunner`` worker processes.

:class:`TransformCache` is the automaton-kind specialization of the
shared two-tier :class:`~repro.runtime.store.ArtifactStore` (the generic
machinery — memory LRU of frozen masters served as they are, atomic disk
artifacts, corruption-degrades-to-miss — lives there; the stage-graph
runtime uses the same store for workload instances and simulation report
streams).  Every transform result is therefore a frozen, shared
automaton: rename one with ``shallow_clone(name=...)`` and mutate a
``copy()``.  This module keeps the transform-specific parts: SHA-256 keys
salted by the pipeline :data:`CODE_VERSION`, the ``transform.cache``
span, and the ``repro_transform_cache_*`` metric family.

The salt (:data:`CODE_VERSION`) must be bumped whenever the semantics of
any cached transform change, which invalidates every existing entry.
"""

import hashlib
import os
import threading

from ..automata.automaton import Automaton
from ..obs import OBS, trace_span
from ..runtime.store import ArtifactStore, Codec, JsonCodec

#: Pipeline code-version salt mixed into every cache key.  Bump this
#: whenever ``to_nibbles``/``square``/``stride``/``minimize`` semantics
#: change so stale artifacts from older code can never be returned.
CODE_VERSION = "2026.08-1"

#: Environment variable naming the on-disk artifact directory.  When
#: unset, the cache is memory-only.
ENV_VAR = "REPRO_TRANSFORM_CACHE"

#: Default capacity (entries) of the in-process LRU tier.
DEFAULT_MEMORY_ENTRIES = 128


class AutomatonCodec(Codec):
    """Artifact codec for compiled automata (compact JSON v1 payloads)."""

    kind = "automaton"

    def encode(self, obj):
        return obj.dumps()

    def decode(self, text):
        # Automaton.loads raises AutomatonError (a ReproError) on any
        # malformed payload, which the store degrades to a corrupt miss.
        return Automaton.loads(text)

    def freeze(self, obj):
        return obj.freeze()


#: Shared codec instance (stateless).
AUTOMATON_CODEC = AutomatonCodec()

#: Codec for tiny presence markers (e.g. "this fingerprint is minimal").
MARKER_CODEC = JsonCodec(kind="marker")


class TransformCache(ArtifactStore):
    """Two-tier (memory LRU + disk directory) automaton store."""

    def __init__(self, directory=None, memory_entries=DEFAULT_MEMORY_ENTRIES):
        super().__init__(directory=directory, memory_entries=memory_entries)

    # -- keys ----------------------------------------------------------
    @staticmethod
    def key(op, source, **params):
        """Content-addressed key: op + salt + source structure + params."""
        digest = hashlib.sha256()
        digest.update(("%s\x00%s\x00%s\x00" % (
            CODE_VERSION, op, source.fingerprint(),
        )).encode("utf-8"))
        for name in sorted(params):
            digest.update(("%s=%r\x00" % (name, params[name])).encode(
                "utf-8", "surrogatepass"))
        return digest.hexdigest()

    # -- lookup / store ------------------------------------------------
    def get(self, key, op="?"):
        """Cached automaton for ``key`` (the frozen master) or ``None``."""
        return super().get(key, AUTOMATON_CODEC, context=op)

    def put(self, key, automaton, op="?"):
        """Store ``automaton`` under ``key`` in every configured tier."""
        super().put(key, automaton, AUTOMATON_CODEC, context=op)

    def fetch(self, op, source, build, **params):
        """Memoize ``build()``: return ``(automaton, hit)``.

        ``hit`` is the serving tier (``"memory"``/``"disk"``) or ``None``
        when ``build`` actually ran; either way the automaton is frozen.
        """
        key = self.key(op, source, **params)
        if OBS.active:
            with trace_span("transform.cache", op=op, key=key[:16]) as span:
                found = self.get(key, op=op)
                span.set_attr(tier=self._last_tier if found is not None
                              else "miss")
        else:
            found = self.get(key, op=op)
        if found is not None:
            return found, self._last_tier
        result = build()
        self.put(key, result, op=op)
        return result, None

    # -- presence markers ----------------------------------------------
    @staticmethod
    def marker_key(op, fingerprint):
        """Content-addressed key for a fingerprint presence marker."""
        digest = hashlib.sha256()
        digest.update(("%s\x00%s\x00%s" % (
            CODE_VERSION, op, fingerprint,
        )).encode("utf-8"))
        return "marker-%s" % digest.hexdigest()

    def has_marker(self, op, fingerprint):
        """Whether a marker for ``(op, fingerprint)`` is on disk.

        Markers skip the memory LRU on purpose: callers keep their own
        in-process memo (see ``repro.automata.ops``), and letting tiny
        flags churn the LRU would evict real automaton masters.
        """
        if self.directory is None:
            return False
        return self._disk_get(self.marker_key(op, fingerprint),
                              MARKER_CODEC, op) is not None

    def put_marker(self, op, fingerprint):
        """Record a ``(op, fingerprint)`` marker in the disk tier."""
        if self.directory is None:
            return
        self._disk_put(self.marker_key(op, fingerprint),
                       MARKER_CODEC.encode(True))

    # -- telemetry -----------------------------------------------------
    def _code_version(self):
        return CODE_VERSION

    def _emit(self, stat, context=None, tier=None):
        if not OBS.active:
            return
        instruments = OBS.instruments
        if stat.endswith("_hits"):
            instruments.transform_cache_hits.labels(tier=tier).inc()
        elif stat == "misses":
            instruments.transform_cache_misses.inc()
        elif stat == "evictions":
            instruments.transform_cache_evictions.inc()
        elif stat == "corrupt":
            instruments.transform_cache_corrupt.inc()

    def _record_written(self, nbytes):
        if OBS.active:
            OBS.instruments.transform_cache_bytes_written.inc(nbytes)


class _ThreadState(threading.local):
    hit = None


_STATE = _ThreadState()
_ACTIVE = None
_ACTIVE_LOCK = threading.Lock()


def get_cache():
    """The process-wide cache (created on first use from :data:`ENV_VAR`)."""
    global _ACTIVE
    if _ACTIVE is None:
        with _ACTIVE_LOCK:
            if _ACTIVE is None:
                _ACTIVE = TransformCache(
                    directory=os.environ.get(ENV_VAR) or None)
    return _ACTIVE


def configure(directory=None, memory_entries=DEFAULT_MEMORY_ENTRIES):
    """Replace the process-wide cache; returns the new one.

    ``ParallelRunner`` workers call this from their initializer so every
    process shares one artifact directory.
    """
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = TransformCache(
            directory=directory, memory_entries=memory_entries)
    return _ACTIVE


def memoize(op, source, build, **params):
    """Serve ``build()`` through the process-wide cache.

    Records whether the *outermost* memoized call of the current
    pipeline stage was a hit (see :func:`last_call_was_hit`): the flag
    is written after ``build`` returns, so inner hits during an outer
    miss — e.g. a cached ``square`` inside an uncached ``stride`` — do
    not mislabel the stage.
    """
    result, tier = get_cache().fetch(op, source, build, **params)
    _STATE.hit = tier is not None
    return result


def last_call_was_hit():
    """Whether the last top-level :func:`memoize` on this thread hit."""
    return bool(_STATE.hit)
