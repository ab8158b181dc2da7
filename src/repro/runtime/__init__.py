"""Stage-graph runtime: content-addressed, deduplicated experiment stages.

Public surface:

- :mod:`repro.runtime.store` — the one two-tier
  :class:`~repro.runtime.store.ArtifactStore` plus the process-wide
  instance (:func:`~repro.runtime.store.get_store` /
  :func:`~repro.runtime.store.configure`), which also holds every
  memoized transform result;
- :mod:`repro.runtime.artifacts` — codecs for automata, workload
  instances, simulation runs, and JSON rows;
- :mod:`repro.runtime.stages` — the registered stage taxonomy;
- :mod:`repro.runtime.graph` — :class:`~repro.runtime.graph.StageGraph`
  construction and the :class:`~repro.runtime.graph.Runtime` scheduler.

Only the store is imported eagerly.  The stages import the transform
pipeline, whose memoization (:mod:`repro.transform.cache`) imports this
package back for the store and the automaton codec —
``runtime.stages`` -> ``transform`` -> ``transform.cache`` ->
``runtime`` — so the higher layers resolve lazily (PEP 562) to keep that
cycle open.
"""

from importlib import import_module

from .store import (ENV_VAR, ArtifactStore, Codec, JsonCodec,  # noqa: F401
                    artifact_key, configure, get_store)

#: Lazily exported names -> the submodule that defines them.
_LAZY = {
    "AUTOMATON_CODEC": "artifacts",
    "INSTANCE_CODEC": "artifacts",
    "JSON_CODEC": "artifacts",
    "SIMRUN_CODEC": "artifacts",
    "SimRun": "artifacts",
    "REGISTRY": "stages",
    "Stage": "stages",
    "canonical": "stages",
    "get_stage": "stages",
    "stage": "stages",
    "Runtime": "graph",
    "StageGraph": "graph",
    "Task": "graph",
}


def __getattr__(name):
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(import_module("." + submodule, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
