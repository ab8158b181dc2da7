"""Memoization of transformation pipeline results in the artifact store.

The Section 4 pipeline (``to_nibbles`` -> ``square``/``stride``) is pure:
its output is fully determined by the source automaton's structure and
the transform parameters.  Like Impala's offline 4-bit transformation,
it is a one-time compilation cost — so results are stored under a
content-addressed key and reused across experiments (Table 3 and Table 4
share the intermediate nibble machine) and across repeated CLI runs.

They live in the one process-wide
:class:`~repro.runtime.store.ArtifactStore`
(:func:`~repro.runtime.store.get_store`) as ``automaton`` artifacts:
keyed by :func:`~repro.runtime.store.artifact_key`, salted by the
runtime ``CODE_VERSION``, persisted by ``--artifact-dir`` /
``REPRO_ARTIFACT_DIR``.  Every transform result is therefore a frozen,
shared automaton: rename one with ``shallow_clone(name=...)`` and mutate
a ``copy()``.
"""

import threading

from ..runtime.artifacts import AUTOMATON_CODEC
from ..runtime.store import artifact_key, get_store


class _ThreadState(threading.local):
    hit = None


_STATE = _ThreadState()


def key(op, source, **params):
    """Content-addressed key: op + source structure + params."""
    return artifact_key(
        AUTOMATON_CODEC.kind, op, source.fingerprint(),
        *("%s=%r" % (name, params[name]) for name in sorted(params)))


def memoize(op, source, build, **params):
    """Serve ``build()`` through the process-wide artifact store.

    Records whether the *outermost* memoized call of the current
    pipeline stage was a hit (see :func:`last_call_was_hit`): the flag
    is written after ``build`` returns, so inner hits during an outer
    miss — e.g. a stored ``square`` inside an unstored ``stride`` — do
    not mislabel the stage.
    """
    result, tier = get_store().fetch(key(op, source, **params),
                                     AUTOMATON_CODEC, build)
    _STATE.hit = tier is not None
    return result


def last_call_was_hit():
    """Whether the last top-level :func:`memoize` on this thread hit."""
    return bool(_STATE.hit)
