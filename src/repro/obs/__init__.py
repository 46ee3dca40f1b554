"""repro.obs — observability for the pruning pipeline.

One import gives instrumented code everything it needs::

    from repro import obs

    with obs.span("mate-search", netlist=netlist.name):
        obs.counter("search.candidates.generated").inc(tried)
        obs.histogram("search.cone.gates").observe(cone.num_gates)

and gives operators one-call reporting::

    print(obs.summary())          # aligned text tables
    obs.write_json("metrics.json")
    obs.prometheus_text()

Components
----------
- :mod:`repro.obs.metrics` — process-global :class:`MetricsRegistry` of
  named counters, gauges, and histograms (thread-safe, resettable);
- :mod:`repro.obs.spans` — hierarchical wall-time spans (``with
  span("phase"):``) aggregated per path and streamed as events;
- :mod:`repro.obs.events` — structured JSONL event sink;
- :mod:`repro.obs.export` — JSON snapshot / summary table / Prometheus
  text exporters;
- :mod:`repro.obs.progress` — TTY progress meter (rate, ETA) for long
  loops, silent in batch runs;
- :mod:`repro.obs.http` — embedded live console (``/metrics``,
  ``/status.json``, SSE dashboard) for the coordinator and ``--serve``;
- :mod:`repro.obs.resource` — /proc host-footprint sampler (CPU%, RSS,
  fds, I/O) published as ``resource.*`` gauges;
- :mod:`repro.obs.flame` — collapsed-stack folding + self-contained
  flamegraph rendering from span aggregates;
- :mod:`repro.obs.health` — declarative campaign-health rules
  (``obs.health.*`` gauges, alert edges).

Metric names follow ``subsystem.phase.metric`` (see README, "Metrics
naming"). Tests get a fresh registry per test via the autouse fixture in
``tests/conftest.py`` which calls :func:`reset`.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs import events, remote, resource
from repro.obs.dashboard import CampaignDashboard
from repro.obs.events import JsonlSink, clear_sinks, emit, install_sink, remove_sink
from repro.obs.export import (
    aligned_table,
    prometheus_text,
    snapshot,
    summary,
    write_json,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SpanStats,
    counter,
    gauge,
    get_registry,
    histogram,
    labeled_name,
    set_registry,
    split_labeled_name,
)
from repro.obs.progress import Progress, progress_enabled, progress_iter, set_progress
from repro.obs.remote import MergedTelemetry, TelemetryWriter, collect
from repro.obs.resource import ResourceSample, ResourceSampler, sample_self
from repro.obs.spans import Span, current_path, is_enabled, set_enabled, span, timed
from repro.util.lazy import lazy_exports

# The console (asyncio), flamegraph, health and trace-export modules load on
# first use, so instrumented code that only counts and times pays for none.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "flame": ("collapsed_stacks", "render_flamegraph", "write_flamegraph"),
        "health": ("Alert", "HealthMonitor", "default_rules"),
        "http": (
            "ConsoleProvider",
            "ConsoleServer",
            "merged_metrics_text",
            "start_in_thread",
        ),
        "traceevent": ("write_trace",),
    },
)


def configure(
    jsonl_path: str | Path | None = None,
    progress: bool | None = None,
    enabled: bool | None = None,
) -> None:
    """One-call setup of the observability layer.

    ``jsonl_path`` installs a JSONL event sink at that path; ``progress``
    forces TTY progress reporting on/off (``None`` keeps auto-detect);
    ``enabled`` switches span recording globally.
    """
    if jsonl_path is not None:
        install_sink(JsonlSink(jsonl_path))
    if progress is not None:
        set_progress(progress)
    if enabled is not None:
        set_enabled(enabled)


def reset() -> None:
    """Restore a pristine state: empty registry, no sinks, defaults on.

    Used by the test suite (autouse fixture) to isolate metrics between
    tests; safe to call any time.
    """
    get_registry().reset()
    clear_sinks()
    remote.reset()
    resource.reset()
    set_progress(None)
    set_enabled(True)


__all__ = [
    "Alert",
    "CampaignDashboard",
    "ConsoleProvider",
    "ConsoleServer",
    "Counter",
    "Gauge",
    "HealthMonitor",
    "Histogram",
    "JsonlSink",
    "MergedTelemetry",
    "MetricsRegistry",
    "Progress",
    "ResourceSample",
    "ResourceSampler",
    "Span",
    "SpanStats",
    "TelemetryWriter",
    "aligned_table",
    "clear_sinks",
    "collapsed_stacks",
    "collect",
    "configure",
    "counter",
    "current_path",
    "default_rules",
    "emit",
    "events",
    "flame",
    "gauge",
    "get_registry",
    "health",
    "histogram",
    "http",
    "install_sink",
    "is_enabled",
    "labeled_name",
    "merged_metrics_text",
    "progress_enabled",
    "progress_iter",
    "prometheus_text",
    "remote",
    "remove_sink",
    "render_flamegraph",
    "reset",
    "resource",
    "sample_self",
    "set_enabled",
    "set_progress",
    "set_registry",
    "snapshot",
    "span",
    "split_labeled_name",
    "start_in_thread",
    "summary",
    "timed",
    "traceevent",
    "write_flamegraph",
    "write_json",
]
