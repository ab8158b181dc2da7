"""Metrics primitives: counters, gauges, histograms, and their registry.

Zero-dependency, Prometheus-flavoured: metrics have a snake_case name, a
help string, and optional label names; labelled metrics hand out child
instances via :meth:`Metric.labels`.  A :class:`MetricsRegistry` owns a
set of uniquely-named metrics and exposes them as a JSON snapshot
(:meth:`MetricsRegistry.snapshot`) and as Prometheus text exposition
(:meth:`MetricsRegistry.render_text`).

The process-global default registry is :data:`REGISTRY`; the
instrumentation hooks throughout ``repro`` record into whatever registry
is attached via :func:`repro.obs.attach` (the default registry unless a
custom one is passed).
"""

import json
import re

from ..errors import ObservabilityError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bucket upper bounds (seconds-flavoured, like
#: Prometheus client defaults).
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Metric:
    """Common machinery for all metric kinds.

    A metric declared with ``labelnames`` is a *parent*: it holds one
    child per distinct label-value tuple and records nothing itself.  A
    metric without labels is its own single sample.
    """

    kind = None

    def __init__(self, name, help="", labelnames=()):
        if not _NAME_RE.match(name or ""):
            raise ObservabilityError("invalid metric name %r" % (name,))
        for label in labelnames:
            if not _LABEL_RE.match(label or ""):
                raise ObservabilityError("invalid label name %r" % (label,))
        if len(set(labelnames)) != len(tuple(labelnames)):
            raise ObservabilityError(
                "duplicate label names in %r" % (tuple(labelnames),)
            )
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children = {}

    # ------------------------------------------------------------------
    def labels(self, **labelvalues):
        """Child metric for one label-value combination (created lazily)."""
        if not self.labelnames:
            raise ObservabilityError(
                "metric %r declares no labels" % (self.name,)
            )
        if set(labelvalues) != set(self.labelnames):
            raise ObservabilityError(
                "metric %r expects labels %r, got %r"
                % (self.name, self.labelnames, tuple(sorted(labelvalues)))
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._new_child()
            self._children[key] = child
        return child

    def _new_child(self):
        raise NotImplementedError

    def _sample_pairs(self):
        """Yield ``(labels_dict, leaf_metric)`` for every sample."""
        if self.labelnames:
            for key, child in sorted(self._children.items()):
                yield dict(zip(self.labelnames, key)), child
        else:
            yield {}, self

    def samples(self):
        """List of plain-dict samples (shape depends on the kind)."""
        return [
            dict(labels=labels, **leaf._sample_body())
            for labels, leaf in self._sample_pairs()
        ]

    def as_dict(self):
        """Snapshot entry for this metric."""
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "samples": self.samples(),
        }


class Counter(Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name, help="", labelnames=()):
        super().__init__(name, help, labelnames)
        self._value = 0

    def _new_child(self):
        return type(self)(self.name, self.help)

    def inc(self, amount=1):
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ObservabilityError(
                "counter %r cannot decrease (inc %r)" % (self.name, amount)
            )
        self._value += amount

    @property
    def value(self):
        return self._value

    def _sample_body(self):
        return {"value": self._value}


class Gauge(Metric):
    """Instantaneous value that can go up and down."""

    kind = "gauge"

    def __init__(self, name, help="", labelnames=()):
        super().__init__(name, help, labelnames)
        self._value = 0

    def _new_child(self):
        return type(self)(self.name, self.help)

    def set(self, value):
        self._value = value

    def inc(self, amount=1):
        self._value += amount

    def dec(self, amount=1):
        self._value -= amount

    @property
    def value(self):
        return self._value

    def _sample_body(self):
        return {"value": self._value}


class Histogram(Metric):
    """Cumulative histogram with fixed bucket upper bounds.

    ``buckets`` are finite, strictly-increasing upper bounds; a +Inf
    bucket is always appended, so ``observe`` never drops a value.
    """

    kind = "histogram"

    def __init__(self, name, help="", labelnames=(), buckets=DEFAULT_BUCKETS):
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ObservabilityError("histogram %r needs >= 1 bucket" % name)
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                "histogram %r buckets must strictly increase: %r"
                % (name, bounds)
            )
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0

    def _new_child(self):
        return type(self)(self.name, self.help, buckets=self.buckets)

    def observe(self, value):
        """Record one observation."""
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[index] += 1
                break
        else:
            self._counts[-1] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self):
        return self._count

    @property
    def sum(self):
        return self._sum

    def bucket_counts(self):
        """Cumulative counts per bucket, ending with the +Inf bucket."""
        cumulative = []
        running = 0
        for count in self._counts:
            running += count
            cumulative.append(running)
        return cumulative

    def _sample_body(self):
        cumulative = self.bucket_counts()
        buckets = [
            {"le": bound, "count": cumulative[index]}
            for index, bound in enumerate(self.buckets)
        ]
        buckets.append({"le": "+Inf", "count": cumulative[-1]})
        return {"count": self._count, "sum": self._sum, "buckets": buckets}


class MetricsRegistry:
    """A uniquely-named collection of metrics.

    Use the :meth:`counter` / :meth:`gauge` / :meth:`histogram` helpers
    to create-and-register in one step; registering (or creating) two
    metrics with the same name raises :class:`ObservabilityError`.
    """

    def __init__(self):
        self._metrics = {}

    # ------------------------------------------------------------------
    def register(self, metric):
        """Add a pre-built metric; returns it for chaining."""
        if metric.name in self._metrics:
            raise ObservabilityError(
                "metric %r is already registered" % (metric.name,)
            )
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name, help="", labelnames=()):
        """Create and register a :class:`Counter`."""
        return self.register(Counter(name, help, labelnames))

    def gauge(self, name, help="", labelnames=()):
        """Create and register a :class:`Gauge`."""
        return self.register(Gauge(name, help, labelnames))

    def histogram(self, name, help="", labelnames=(), buckets=DEFAULT_BUCKETS):
        """Create and register a :class:`Histogram`."""
        return self.register(Histogram(name, help, labelnames, buckets))

    def get(self, name):
        """The registered metric named ``name``, or None."""
        return self._metrics.get(name)

    def unregister(self, name):
        """Remove a metric by name (no error if absent)."""
        self._metrics.pop(name, None)

    def collect(self):
        """All registered metrics, in registration order."""
        return list(self._metrics.values())

    def __contains__(self, name):
        return name in self._metrics

    def __len__(self):
        return len(self._metrics)

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def snapshot(self):
        """JSON-ready snapshot of every metric and sample."""
        return {
            "version": 1,
            "metrics": [metric.as_dict() for metric in self.collect()],
        }

    def render_json(self, indent=2):
        """The snapshot serialized to a JSON string."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=False)

    def render_text(self):
        """Prometheus text exposition format."""
        lines = []
        for metric in self.collect():
            if metric.help:
                lines.append("# HELP %s %s" % (
                    metric.name, _escape_help(metric.help)))
            lines.append("# TYPE %s %s" % (metric.name, metric.kind))
            for labels, leaf in metric._sample_pairs():
                if metric.kind == "histogram":
                    cumulative = leaf.bucket_counts()
                    for index, bound in enumerate(leaf.buckets):
                        bucket_labels = dict(labels)
                        bucket_labels["le"] = _format_number(bound)
                        lines.append("%s_bucket%s %d" % (
                            metric.name, _format_labels(bucket_labels),
                            cumulative[index]))
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = "+Inf"
                    lines.append("%s_bucket%s %d" % (
                        metric.name, _format_labels(bucket_labels),
                        cumulative[-1]))
                    lines.append("%s_sum%s %s" % (
                        metric.name, _format_labels(labels),
                        _format_number(leaf.sum)))
                    lines.append("%s_count%s %d" % (
                        metric.name, _format_labels(labels), leaf.count))
                else:
                    lines.append("%s%s %s" % (
                        metric.name, _format_labels(labels),
                        _format_number(leaf.value)))
        return "\n".join(lines) + "\n"


def _format_labels(labels):
    if not labels:
        return ""
    body = ",".join(
        '%s="%s"' % (name, _escape_label(str(value)))
        for name, value in sorted(labels.items())
    )
    return "{%s}" % body


def _escape_label(value):
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _escape_help(text):
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _format_number(value):
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


#: Process-global default registry; ``attach()`` uses it unless told
#: otherwise.
REGISTRY = MetricsRegistry()
