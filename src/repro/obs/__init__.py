"""``repro.obs`` -- stdlib-only observability for the serving stack.

* :mod:`~repro.obs.metrics` -- :class:`MetricsRegistry` (thread-safe
  counters/gauges/histograms with log-scale latency buckets), the
  process-global :func:`get_registry`, Prometheus text rendering
  (``GET /metrics``) and the compact JSON snapshot worker heartbeats
  carry;
* :mod:`~repro.obs.trace` -- :class:`Trace`, the span tracer stamping
  every job and fleet chunk with a trace id and contiguous,
  non-overlapping timed phases (monotonic clock throughout);
* :mod:`~repro.obs.logs` -- the ``repro.*`` logger hierarchy:
  :func:`get_logger` for libraries, :func:`configure_logging` (plain
  or one-line-JSON) for the CLI entry points;
* :mod:`~repro.obs.watch` -- ``repro watch URL``: the poll-and-render
  live dashboard over ``/stats`` + ``/metrics`` (curses with a plain
  fallback; ``--once --format json`` for scripts and CI).
"""

from .._lazy import lazy_exports

__all__ = [
    "JsonLineFormatter",
    "configure_logging",
    "get_logger",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "Trace",
    "build_snapshot",
    "parse_prometheus_text",
    "render_text",
    "watch",
]

# ``watch`` pulls in ``repro.serve`` (for :class:`ServeClient`), and the
# serve stack itself imports ``repro.obs.metrics``: only a lazy
# re-export keeps instrumented modules from closing that cycle.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "logs": ("JsonLineFormatter", "configure_logging", "get_logger"),
        "metrics": (
            "DEFAULT_LATENCY_BUCKETS",
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "get_registry",
        ),
        "trace": ("Trace",),
        "watch": ("build_snapshot", "parse_prometheus_text", "render_text", "watch"),
    },
)
