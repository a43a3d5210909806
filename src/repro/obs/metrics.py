"""A thread-safe, stdlib-only metrics registry for the serving stack.

The service's counters used to live as ad-hoc instance attributes
(e.g. ``Fleet.leases_granted``) surfaced only through
``GET /stats`` JSON -- fine for a quick poll, useless for a scraper or
a rate panel.  :class:`MetricsRegistry` is the shared substrate:

* **counters** (monotone floats), **gauges** (set-or-add floats), and
  **histograms** (fixed log-scale latency buckets with ``sum`` and
  ``count``), all label-aware with a bounded, fixed label-name set per
  family;
* one process-global default registry (:func:`get_registry`) that the
  server, engine, journal, and record memo instrument into, plus
  private per-instance registries where isolation matters (each
  :class:`~repro.serve.fleet.FleetWorker` keeps its own so heartbeats
  carry worker-local numbers even when embedded in-process);
* :meth:`MetricsRegistry.render` emits the Prometheus text exposition
  format behind ``GET /metrics``; :meth:`MetricsRegistry.snapshot`
  emits the compact JSON twin that worker heartbeats ship;
* **collectors** -- callbacks run at render/snapshot time -- pull in
  values that are cheaper to read than to maintain (lru_cache info,
  job-table counts, per-worker heartbeat age);
* ``enabled=False`` turns every mutation into a no-op, which is how
  ``benchmarks/bench_obs_overhead.py`` measures the instrumentation
  tax against an uninstrumented run of the same code path.

Everything mutates under one lock per registry; increments are a dict
update inside it, cheap enough that the hot evaluation path amortizes
them per chunk, not per record (the overhead gate in CI pins ≤5%).
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Fixed log-scale (1-2.5-5 ladder) latency buckets, in seconds: fine
#: enough at the bottom for cache hits and journal writes, wide enough
#: at the top for multi-minute fleet chunks.  ``+Inf`` is implicit.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def _escape_label(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    # Integral values render without a trailing ``.0`` -- counters are
    # overwhelmingly integers and scrapers prefer them bare.
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_body(labelnames: tuple[str, ...], key: tuple) -> str:
    return ",".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(labelnames, key)
    )


class _Family:
    """Shared machinery: one named metric with a fixed label-name set."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: Iterable[str] = ()):
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)

    def _key(self, labels: dict) -> tuple:
        if tuple(sorted(labels)) != tuple(sorted(self.labelnames)):
            raise ValueError(
                f"{self.name} wants labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)


class Counter(_Family):
    """A monotone counter; negative increments are rejected."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        registry = self._registry
        if not registry.enabled:
            return
        key = self._key(labels)
        with registry._lock:
            values = registry._values[self.name]
            values[key] = values.get(key, 0.0) + amount


class Gauge(_Family):
    """A value that can go anywhere; ``set`` replaces, ``inc`` adds."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        key = self._key(labels)
        with registry._lock:
            registry._values[self.name][key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        key = self._key(labels)
        with registry._lock:
            values = registry._values[self.name]
            values[key] = values.get(key, 0.0) + amount


class Histogram(_Family):
    """Fixed-bucket distribution; per label set: buckets + sum + count."""

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: Iterable[str] = (),
                 buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS):
        super().__init__(registry, name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket")
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        value = float(value)
        key = self._key(labels)
        with registry._lock:
            values = registry._values[self.name]
            state = values.get(key)
            if state is None:
                state = values[key] = [[0] * len(self.buckets), 0.0, 0]
            counts, _, _ = state
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[index] += 1
                    break
            state[1] += value
            state[2] += 1


class MetricsRegistry:
    """A set of metric families behind one lock.

    Families are created idempotently -- asking for an existing name
    returns the existing family object (a mismatched kind raises), so
    modules can declare their instruments at import time without
    coordinating.  ``enabled=False`` (or :meth:`set_enabled`) turns
    every mutation into a cheap no-op; :meth:`reset` clears sample
    values but keeps families and collectors, which is what tests and
    the overhead benchmark want between runs.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        # name -> {label-value tuple: float | [bucket counts, sum, count]}
        self._values: dict[str, dict] = {}
        self._collectors: dict[object, Callable[["MetricsRegistry"], None]] = {}

    # -- family creation ------------------------------------------------
    def _family(self, cls, name: str, help: str, labelnames, **kwargs):
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if not isinstance(family, cls):
                    raise ValueError(
                        f"metric {name} already registered as {family.kind}"
                    )
                return family
            family = cls(self, name, help, labelnames, **kwargs)
            self._families[name] = family
            self._values[name] = {}
            return family

    def counter(self, name: str, help: str = "",
                labelnames: Iterable[str] = ()) -> Counter:
        return self._family(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Iterable[str] = ()) -> Gauge:
        return self._family(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Iterable[str] = (),
                  buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
                  ) -> Histogram:
        return self._family(Histogram, name, help, labelnames,
                            buckets=buckets)

    # -- lifecycle ------------------------------------------------------
    def set_enabled(self, enabled: bool) -> None:
        self.enabled = bool(enabled)

    def reset(self) -> None:
        """Clear every sample value; families and collectors survive."""
        with self._lock:
            for values in self._values.values():
                values.clear()

    def add_collector(
        self, collector: Callable[["MetricsRegistry"], None],
        key: object = None,
    ) -> None:
        """Run ``collector(registry)`` before every render/snapshot.

        A ``key`` makes registration replacing instead of appending --
        a restarted service re-registers its collector under the same
        key and the stale closure is dropped with it.
        """
        with self._lock:
            self._collectors[key if key is not None else collector] = collector

    def _collect(self) -> None:
        if not self.enabled:
            return
        with self._lock:
            collectors = list(self._collectors.values())
        for collector in collectors:
            try:
                collector(self)
            except Exception:  # noqa: BLE001 - a scrape must not 500
                # A collector reading live service state can race a
                # teardown; losing its gauges beats failing the scrape.
                pass

    # -- output ---------------------------------------------------------
    def render(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        self._collect()
        lines: list[str] = []
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                values = self._values[name]
                lines.append(f"# HELP {name} {_escape_help(family.help)}")
                lines.append(f"# TYPE {name} {family.kind}")
                for key in sorted(values):
                    body = _label_body(family.labelnames, key)
                    if isinstance(family, Histogram):
                        counts, total, count = values[key]
                        cumulative = 0
                        for bound, bucket in zip(family.buckets, counts):
                            cumulative += bucket
                            le = f'le="{_format_value(bound)}"'
                            label = f"{{{body},{le}}}" if body else f"{{{le}}}"
                            lines.append(
                                f"{name}_bucket{label} {cumulative}"
                            )
                        inf = 'le="+Inf"'
                        label = f"{{{body},{inf}}}" if body else f"{{{inf}}}"
                        lines.append(f"{name}_bucket{label} {count}")
                        suffix = f"{{{body}}}" if body else ""
                        lines.append(
                            f"{name}_sum{suffix} {_format_value(total)}"
                        )
                        lines.append(f"{name}_count{suffix} {count}")
                    else:
                        suffix = f"{{{body}}}" if body else ""
                        lines.append(
                            f"{name}{suffix} {_format_value(values[key])}"
                        )
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """A compact JSON-able dump (what worker heartbeats carry).

        ``{"counters": {...}, "gauges": {...}, "histograms": {...}}``,
        each keyed by family name; sample values pair a label dict with
        a value (histograms: ``sum`` and ``count`` -- buckets stay
        local, a heartbeat does not need them).
        """
        self._collect()
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        with self._lock:
            for name, family in self._families.items():
                samples = []
                for key, value in self._values[name].items():
                    labels = dict(zip(family.labelnames, key))
                    if isinstance(family, Histogram):
                        _, total, count = value
                        samples.append(
                            {"labels": labels, "sum": total, "count": count}
                        )
                    else:
                        samples.append({"labels": labels, "value": value})
                if samples:
                    out[family.kind + "s"][name] = samples
        return out


#: The process-global registry the serving stack instruments into.
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return _DEFAULT
