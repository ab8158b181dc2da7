"""The one content-addressed artifact store.

:class:`ArtifactStore` holds every artifact this reproduction caches:
compiled automata (the Section 4 transform results and the ``to_rate``
stage), workload instances, simulation report streams, planner traits,
prefilter builds and plain JSON rows.  It has two tiers: an in-process
LRU of decoded master objects plus an optional on-disk artifact
directory of versioned JSON payloads, addressed by
``CODE_VERSION``-salted SHA-256 keys.  Every ``get``/``put`` names a
:class:`Codec` that owns the (de)serialization and the freezing of one
artifact kind.

Guarantees:

- **memory tier** — an LRU of master objects.  ``put`` and a disk hit
  pass the object through ``codec.freeze``, which makes automata,
  instances and report streams read-only in place, so every hit serves
  that one shared master; plain JSON values are the one kind served as
  a copy;
- **disk tier** — ``<key>.json`` files written through a temporary file
  plus :func:`os.replace`, so concurrent writers and readers never see a
  partial entry; :meth:`ArtifactStore.clear` also removes the temporary
  files a killed writer leaves behind;
- **corruption degrades to a miss** — an undecodable artifact counts as
  ``corrupt`` (``repro_runtime_artifact_corrupt_total``), is left in
  place for post-mortem inspection, and the caller rebuilds;
- **a bad path fails at construction** — a directory path that exists
  but is not a directory raises :class:`~repro.errors.ArtifactError`.

Keys produced by :func:`artifact_key` are prefixed with the codec kind
(``simrun-<sha256>``), which keeps the artifact directory
self-describing and collision-free across kinds.
"""

import hashlib
import json
import os
import threading
from collections import OrderedDict

from ..errors import ArtifactError, ReproError
from ..obs import OBS

#: Code-version salt mixed into every artifact key — the one salt of
#: the one store.  Bump it whenever the semantics of anything stored
#: change (generation, simulation, serialization formats, the
#: ``to_nibbles``/``square``/``stride``/``minimize`` transforms, or the
#: cached Table 4 rows: ``drain_row``, ``place``, ``ReportingPerfModel``,
#: ``ApReportingModel`` and the ``SunderConfig`` defaults) so stale
#: artifacts can never be served.
CODE_VERSION = "2026.10-runtime-2"

#: Environment variable naming the on-disk artifact directory for the
#: process-wide store.  When unset, the store is memory-only.
ENV_VAR = "REPRO_ARTIFACT_DIR"

#: Capacity (entries) of the in-process LRU tier, read when a store is
#: built.  One scorecard holds exactly 269 artifacts at every scale from
#: 0.002 to 0.01 (155 stage artifacts plus 114 transform results), so
#: 272 entries evict nothing.  A warm scorecard reads only its cached
#: rows, so the capacity bounds what a cold run keeps alive.
DEFAULT_MEMORY_ENTRIES = 272

_STAT_KEYS = ("memory_hits", "disk_hits", "misses", "stores",
              "evictions", "corrupt")


class Codec:
    """Serialization contract for one artifact kind.

    Subclasses (or instances built via :func:`json_codec`) provide:

    - ``kind`` — short slug used in key prefixes and diagnostics;
    - ``encode(obj) -> str`` — versioned JSON text;
    - ``decode(text) -> obj`` — inverse; must raise a
      :class:`~repro.errors.ReproError` subclass (usually
      :class:`~repro.errors.ArtifactError`) on any malformed payload so
      the store can degrade to a miss;
    - ``freeze(obj) -> obj`` — make ``obj`` safe to share.  The store
      calls it on ``put``, on a memory hit and on a disk hit, and serves
      what it returns.  The automaton, instance and simulation-run
      codecs freeze ``obj`` in place and return it; the default returns
      ``obj`` as is.
    """

    kind = "artifact"

    def encode(self, obj):
        raise NotImplementedError

    def decode(self, text):
        raise NotImplementedError

    def freeze(self, obj):
        return obj


class JsonCodec(Codec):
    """Codec for plain JSON-serializable values (rows, summaries)."""

    def __init__(self, kind="json"):
        self.kind = kind

    def encode(self, obj):
        return json.dumps({"format": "repro-json", "version": 1,
                           "value": obj}, separators=(",", ":"))

    def decode(self, text):
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, TypeError) as error:
            raise ArtifactError("undecodable json artifact: %s" % error)
        if not isinstance(payload, dict) or payload.get("format") != "repro-json":
            raise ArtifactError("unknown json artifact format")
        if payload.get("version") != 1:
            raise ArtifactError("unsupported json artifact version %r"
                                % (payload.get("version"),))
        try:
            return payload["value"]
        except KeyError:
            raise ArtifactError("json artifact lacks a value")

    def freeze(self, obj):
        # Rows go back to callers as plain dicts, so they are the one
        # kind served as a copy: round-tripping decouples each served
        # value from the master and enforces JSON-serializability at
        # store time.
        return json.loads(json.dumps(obj))


def artifact_key(kind, *parts):
    """Content-addressed key: ``<kind>-sha256(salt, kind, parts...)``.

    ``parts`` are strings (fingerprints, parameter reprs, upstream
    keys); the :data:`CODE_VERSION` salt invalidates every existing
    entry when cached-stage semantics change.
    """
    digest = hashlib.sha256()
    digest.update(("%s\x00%s\x00" % (CODE_VERSION, kind)).encode("utf-8"))
    for part in parts:
        digest.update(("%s\x00" % (part,)).encode("utf-8", "surrogatepass"))
    return "%s-%s" % (kind, digest.hexdigest())


class ArtifactStore:
    """Two-tier (memory LRU + disk directory) content-addressed store."""

    def __init__(self, directory=None):
        self.directory = os.path.abspath(directory) if directory else None
        if self.directory is not None and os.path.exists(self.directory) \
                and not os.path.isdir(self.directory):
            raise ArtifactError(
                "artifact store path %s exists and is not a directory"
                % self.directory)
        self.memory_entries = DEFAULT_MEMORY_ENTRIES
        self._memory = OrderedDict()
        self._lock = threading.Lock()
        self._tls = threading.local()
        self.stats = dict.fromkeys(_STAT_KEYS, 0)

    # -- lookup / store ------------------------------------------------
    def get(self, key, codec):
        """Cached artifact for ``key`` or ``None``.

        What is served is ``codec.freeze(master)``: the shared read-only
        master itself for every kind but plain JSON values, so repeated
        hits return one object.  A disk hit is promoted into the memory
        tier.  Undecodable disk artifacts count as ``corrupt`` misses and
        are left in place for post-mortem inspection (the next store
        overwrites them).
        """
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
        if entry is not None:
            master_codec, master = entry
            self._record("memory_hits", tier="memory")
            return master_codec.freeze(master)
        master = self._disk_get(key, codec)
        if master is not None:
            served = codec.freeze(master)
            self._remember(key, codec, master)
            self._record("disk_hits", tier="disk")
            return served
        self._record("misses")
        return None

    def put(self, key, obj, codec):
        """Store ``obj`` under ``key`` in every configured tier.

        ``codec.freeze(obj)`` becomes the memory tier's master: ``obj``
        itself, frozen in place, for every kind but plain JSON values.
        """
        self._remember(key, codec, codec.freeze(obj))
        self._record("stores")
        if self.directory is None:
            return
        self._disk_put(key, codec.encode(obj))

    def _disk_put(self, key, text):
        """Atomically write one artifact to the disk tier."""
        path = self._path(key)
        tmp = "%s.tmp.%d.%d" % (path, os.getpid(), threading.get_ident())
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def fetch(self, key, codec, build):
        """Memoize ``build()``: return ``(artifact, hit)``.

        ``hit`` is the serving tier (``"memory"``/``"disk"``) or ``None``
        when ``build`` actually ran.
        """
        found = self.get(key, codec)
        if found is not None:
            return found, self._last_tier
        result = build()
        self.put(key, result, codec)
        return result, None

    # -- maintenance ---------------------------------------------------
    def info(self):
        """Snapshot of configuration, occupancy, and counters."""
        disk_entries = 0
        disk_bytes = 0
        for path in self._disk_paths():
            try:
                disk_bytes += os.path.getsize(path)
                disk_entries += 1
            except OSError:
                continue
        with self._lock:
            memory_used = len(self._memory)
        return {
            "directory": self.directory,
            "code_version": CODE_VERSION,
            "memory_entries": self.memory_entries,
            "memory_used": memory_used,
            "disk_entries": disk_entries,
            "disk_bytes": disk_bytes,
            "stats": dict(self.stats),
        }

    def clear(self, memory=True, disk=True):
        """Drop cached entries; returns the number removed.

        Clearing the disk tier also deletes the ``*.json.tmp.*`` files a
        killed writer leaves behind (they are not entries, so they are
        not counted).  A writer racing ``clear`` loses at most its own
        entry.
        """
        removed = 0
        if memory:
            with self._lock:
                removed += len(self._memory)
                self._memory.clear()
        if disk:
            for path in self._disk_paths(temporary=True):
                try:
                    os.unlink(path)
                except OSError:
                    continue
                removed += path.endswith(".json")
        return removed

    # -- internals -----------------------------------------------------
    @property
    def _last_tier(self):
        """Serving tier of this thread's last lookup (None on miss)."""
        return getattr(self._tls, "tier", None)

    def _path(self, key):
        return os.path.join(self.directory, key + ".json")

    def _disk_paths(self, temporary=False):
        """Entry files, plus torn ``*.json.tmp.*`` writes if ``temporary``."""
        if self.directory is None:
            return []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return [os.path.join(self.directory, name) for name in sorted(names)
                if name.endswith(".json")
                or (temporary and ".json.tmp." in name)]

    def _disk_get(self, key, codec):
        if self.directory is None:
            return None
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            return None
        try:
            return codec.decode(text)
        except ReproError:
            self._record("corrupt")
            return None

    def _remember(self, key, codec, master):
        evicted = 0
        with self._lock:
            self._memory[key] = (codec, master)
            self._memory.move_to_end(key)
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)
                evicted += 1
        for _ in range(evicted):
            self._record("evictions")

    def _record(self, stat, tier=None):
        self.stats[stat] += 1
        if stat.endswith("_hits"):
            self._tls.tier = tier
        elif stat == "misses":
            self._tls.tier = None
        elif stat == "corrupt" and OBS.active:
            OBS.instruments.runtime_artifact_corrupt.inc()


_ACTIVE = None
_ACTIVE_LOCK = threading.Lock()


def get_store():
    """The process-wide store (created on first use from :data:`ENV_VAR`)."""
    global _ACTIVE
    if _ACTIVE is None:
        with _ACTIVE_LOCK:
            if _ACTIVE is None:
                _ACTIVE = ArtifactStore(
                    directory=os.environ.get(ENV_VAR) or None)
    return _ACTIVE


def configure(directory=None):
    """Replace the process-wide store; returns the new one.

    The CLI's ``--artifact-dir`` flag and ``ParallelRunner`` worker
    initializers call this so every process shares one artifact
    directory.
    """
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = ArtifactStore(directory=directory)
    return _ACTIVE
