"""Unified observability layer: metrics, tracing, structured events.

Layering contract
-----------------
``repro.obs`` sits at the *bottom* of the dependency graph:

* **obs imports nothing from the service stack** — not
  :mod:`repro.service`, :mod:`repro.net`, :mod:`repro.protocols`,
  :mod:`repro.engine`, or :mod:`repro.crypto`; it is standard-library
  only (not even numpy), so importing it can never create a cycle or
  drag in heavyweight dependencies;
* **everything may import obs** — the engine, the crypto cache, the
  frontend, the network layer, the CLI, and the benches all talk to
  the same process-wide singleton below.

Components therefore instrument themselves unconditionally; whether the
signals cost anything is a runtime property of the singleton (the
``enabled`` flags), not a compile-time property of the import graph.

Surface
-------
* :class:`MetricsRegistry` / :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` — process-wide instruments with interpolated
  p50/p95/p99 estimates (:mod:`repro.obs.metrics`);
* :class:`Tracer` / :class:`Span` / :func:`mint_trace_id` — per-request
  trace ids, thread-local binding, bounded span ring
  (:mod:`repro.obs.tracing`);
* :class:`EventLog` — optional JSONL stream absorbing spans and audit
  events (:mod:`repro.obs.events`);
* :func:`render_prometheus` / :func:`parse_prometheus` /
  :func:`render_table` / :func:`render_traces` — exports over the
  JSON-ready sample shape (:mod:`repro.obs.export`);
* module-level conveniences :data:`registry`, :data:`tracer`,
  :data:`events`, and :func:`configure` — the singleton every layer
  shares.
"""

from __future__ import annotations

from .events import EventLog
from .export import (
    parse_prometheus,
    render_prometheus,
    render_table,
    render_traces,
)
from .metrics import (
    DEFAULT_LATENCY_EDGES_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile_from_buckets,
)
from .tracing import DEFAULT_SPAN_CAPACITY, SPAN_NAMES, Span, Tracer, mint_trace_id

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_EDGES_S",
    "DEFAULT_SPAN_CAPACITY",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SPAN_NAMES",
    "Span",
    "Tracer",
    "configure",
    "events",
    "mint_trace_id",
    "parse_prometheus",
    "quantile_from_buckets",
    "registry",
    "render_prometheus",
    "render_table",
    "render_traces",
    "set_enabled",
    "tracer",
]

#: Process-wide metrics registry every component instruments against.
registry = MetricsRegistry(enabled=True)

#: Process-wide tracer holding the bounded span ring.
tracer = Tracer()

#: Process-wide event log; inert until pointed at a path.
events = EventLog()


def _forward_span(span: Span) -> None:
    """Mirror each recorded span into the JSONL event log."""
    if events.path is not None:  # skip building the dict while inert
        events.emit("span", **span.as_dict())


tracer.on_span = _forward_span


def configure(metrics_enabled: bool | None = None,
              tracing_enabled: bool | None = None,
              events_path: str | None = None) -> None:
    """Reconfigure the process-wide observability singletons in place.

    ``None`` leaves a setting untouched.  Passing ``events_path``
    opens (or switches) the JSONL event log; there is no way to close
    it here by design — call :meth:`EventLog.close` explicitly, which
    only the owning entry point (``repro serve``) should do.
    """
    if metrics_enabled is not None:
        registry.enabled = metrics_enabled
    if tracing_enabled is not None:
        tracer.enabled = tracing_enabled
    if events_path is not None:
        events.open(events_path)


def set_enabled(enabled: bool) -> None:
    """Toggle metrics *and* tracing together (the overhead bench's knob)."""
    registry.enabled = enabled
    tracer.enabled = enabled
