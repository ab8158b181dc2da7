"""Coarse progress reporting for long-running stages.

Paper-scale (``--scale 1.0``) runs spend minutes inside a single stage
— a 100k-state squaring pass or a multi-million-cycle simulation — and
a silent process is indistinguishable from a hung one.  This module
gives those kernels a single cheap hook:

- the ``repro_stage_progress`` gauge (labelled by stage) tracks the
  completion fraction ``0..1`` of the most recent execution of each
  long-running stage, so an attached metrics collector (``repro profile
  ...``) can watch a run mid-stage;
- when the ``REPRO_PROGRESS`` environment variable is set (any
  non-empty value), periodic one-line updates go to stderr, rate
  limited to one line per :data:`LOG_INTERVAL` seconds per reporter.

Both outputs are optional and near-free when off: an unattached
collector plus an unset environment variable cost one attribute check
and one comparison per ``update`` call.  Kernels are expected to call
``update`` at natural chunk boundaries (every N states or vectors),
not per item.
"""

import os
import sys
import time

#: Environment variable enabling periodic stderr progress lines.
ENV_VAR = "REPRO_PROGRESS"

#: Minimum seconds between stderr lines from one reporter.
LOG_INTERVAL = 5.0


def enabled():
    """Whether stderr progress lines are requested via :data:`ENV_VAR`."""
    return bool(os.environ.get(ENV_VAR))


class ProgressReporter:
    """Tracks one stage execution's completion fraction.

    ``stage`` labels the gauge (e.g. ``"simulate"``, ``"transform"``);
    ``total`` is the unit count the stage will process (0 is treated as
    already complete).  Call :meth:`update` with the cumulative number
    of units done, and :meth:`finish` (or ``update(total)``) at the
    end.  Reporters are single-threaded like the stages they observe.
    """

    __slots__ = ("stage", "total", "detail", "_gauge", "_log",
                 "_started", "_last_log", "_last_fraction")

    def __init__(self, stage, total, detail=None):
        from . import OBS  # late: obs/__init__ imports this module
        self.stage = stage
        self.total = max(0, int(total))
        self.detail = detail
        self._gauge = (OBS.instruments.stage_progress.labels(stage=stage)
                       if OBS.active else None)
        self._log = enabled()
        self._started = time.perf_counter()
        self._last_log = self._started
        self._last_fraction = -1.0
        if self._gauge is not None:
            self._gauge.set(0.0)

    def update(self, done):
        """Record that ``done`` of ``total`` units are complete."""
        if self._gauge is None and not self._log:
            return
        fraction = 1.0 if self.total == 0 else min(
            1.0, done / float(self.total))
        if fraction <= self._last_fraction:
            return
        self._last_fraction = fraction
        if self._gauge is not None:
            self._gauge.set(fraction)
        if self._log:
            now = time.perf_counter()
            if fraction >= 1.0 or now - self._last_log >= LOG_INTERVAL:
                self._last_log = now
                self._emit(fraction, now)

    def finish(self):
        """Mark the stage complete (idempotent)."""
        self.update(self.total if self.total else 1)

    def _emit(self, fraction, now):
        label = self.stage if not self.detail else (
            "%s[%s]" % (self.stage, self.detail))
        sys.stderr.write("[repro] %s %5.1f%% (%.1fs)\n" % (
            label, fraction * 100.0, now - self._started))
        sys.stderr.flush()


def stage_progress(stage, fraction):
    """Set the progress gauge for ``stage`` directly (one-shot form).

    Used by the stage scheduler to mark stage entry (0.0) and exit
    (1.0) even for stages that never construct a reporter, so the gauge
    always exists for every executed stage.
    """
    from . import OBS
    if OBS.active:
        OBS.instruments.stage_progress.labels(stage=stage).set(
            float(fraction))
