"""Durable streaming service over the monitoring server.

An always-on front-end for the paper's monitoring engine: clients stream
object/query/edge updates over a socket API
(:class:`~repro.service.server.StreamingService` /
:class:`~repro.service.client.ServiceClient`), ticks fire on demand or on a
wall clock, and result deltas push to subscribers watch-mode style.

Durability comes from composition
(:class:`~repro.service.durable.DurableMonitoringServer`): every normalized
update batch is appended to a length-prefixed, CRC-framed event log
(:class:`~repro.service.eventlog.EventLog`) *before* it is applied, and
periodic checkpoints let a crashed service restart and replay the log tail
to the exact pre-crash state — byte-identical to an uninterrupted run,
which :mod:`repro.service.faults` verifies by actually SIGKILLing the
process.  The log doubles as a workload capture that
``python -m repro.service.replay`` feeds back through the differential
oracle harness.
"""

from repro.utils import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.service.durable": (
            "DurableMonitoringServer",
            "InitialState",
            "load_initial_state",
        ),
        "repro.service.eventlog": ("EventLog", "read_event_log", "scan_event_log"),
        "repro.service.faults": (
            "FaultInjectionReport",
            "build_scenario_server",
            "pick_kill_tick",
            "run_fault_injection",
        ),
        "repro.service.client": ("ServiceClient",),
        "repro.service.server": ("StreamingService",),
    },
)
