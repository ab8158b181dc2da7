"""Stage-graph runtime: content-addressed, deduplicated experiment stages.

Public surface:

- :mod:`repro.runtime.store` — the one two-tier
  :class:`~repro.runtime.store.ArtifactStore` plus the process-wide
  instance (:func:`~repro.runtime.store.get_store` /
  :func:`~repro.runtime.store.configure`);
- :mod:`repro.runtime.artifacts` — codecs for automata, workload
  instances, simulation runs, and JSON rows;
- :mod:`repro.runtime.stages` — the registered stage taxonomy, and
  :func:`~repro.runtime.stages.declare_ladder`, which declares one
  benchmark's rate ladder as a chain of ``to_rate`` tasks;
- :mod:`repro.runtime.graph` — :class:`~repro.runtime.graph.StageGraph`
  construction and the :class:`~repro.runtime.graph.Runtime` scheduler.
"""

from .artifacts import (AUTOMATON_CODEC, INSTANCE_CODEC,  # noqa: F401
                        JSON_CODEC, SIMRUN_CODEC, SimRun)
from .graph import Runtime, StageGraph, Task  # noqa: F401
from .stages import (REGISTRY, Stage, canonical, declare_ladder,  # noqa: F401
                     get_stage, stage)
from .store import (ENV_VAR, ArtifactStore, Codec, JsonCodec,  # noqa: F401
                    artifact_key, configure, get_store)
