"""Observability: metrics primitives and whole-system reports.

Long-running grid services need to be observable while they evolve;
this package provides the one event stream every layer publishes its
transitions on (:class:`EventBus`), the counters/timers used by
examples, and a :func:`collect_system_report` that snapshots every
built-in counter in a runtime (network, caches, bindings, invokers,
DFMs, managers) into one structured report.
"""

from repro.obs.bus import Event, EventBus
from repro.obs.health import HealthRegistry, PeerHealth
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, Timer
from repro.obs.report import SystemReport, collect_system_report, render_report
from repro.obs.slo import SLO, SLOMonitor, SLOStatus

__all__ = [
    "Counter",
    "Event",
    "EventBus",
    "Gauge",
    "HealthRegistry",
    "MetricsRegistry",
    "PeerHealth",
    "SLO",
    "SLOMonitor",
    "SLOStatus",
    "SystemReport",
    "Timer",
    "collect_system_report",
    "render_report",
]
