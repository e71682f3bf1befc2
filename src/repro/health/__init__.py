"""Failure detection and membership: the layer between fault and truth.

``repro.health`` turns the repo's fault story from *oracular* (the
supervisor magically knows the instant a node dies) into *detected*
(a heartbeat monitor infers death from silence, through the same
fabric the application uses).  The distinction matters because the
fabric lies: a partitioned or congested link silences a perfectly
healthy node, and every consumer of this layer must stay correct
under that false suspicion.

Pieces:

* :mod:`repro.health.state` — the per-node belief machine
  (``HEALTHY → SUSPECTED → DEAD → REPAIRING → HEALTHY`` plus
  administrative ``DRAINING``) and the epoch-numbered
  :class:`Membership` view.
* :mod:`repro.health.detectors` — pluggable verdict functions:
  :class:`FixedTimeoutDetector` and :class:`PhiAccrualDetector`.
* :mod:`repro.health.monitor` — :class:`HeartbeatMonitor`, the sim
  process that pumps heartbeats through the fabric, feeds a detector,
  and drives the membership machine; configured by
  :class:`DetectionSpec`, summarised by :class:`DetectionOutcome`.
  Both monitors share the :class:`MembershipMonitor` base (membership
  machine, death bookkeeping, supervisor surface).
* :mod:`repro.health.gossip` — :class:`GossipMonitor`, the SWIM-style
  decentralized alternative: every node probes (direct ping + k
  indirect relays) and membership updates piggyback on probe traffic,
  so detection is O(1) per node and survives partitions that blind a
  central host.  :func:`build_monitor` picks the monitor the
  ``DetectionSpec.detector`` field asks for.
* :mod:`repro.health.scheduling` — :class:`DegradedBatchSimulator`,
  the library's one batch simulator under failures: it pays detection
  latency, activates spares, and requeues killed jobs with backoff (at
  zero detection lag it is the oracular model bench E15 sweeps).
* :mod:`repro.health.spares` — :class:`SparePool`, the deterministic
  lowest-id-first reserve-capacity pool shared by the degraded
  scheduler and the detector-driven activation wrapper in
  :mod:`repro.fault.availability`.

Layering: health sits above ``sim``/``network``/``scheduler``/``obs``
and below ``fault`` (campaigns consume detection; detection never
imports campaigns).
"""

from repro.health.detectors import (
    FailureDetector,
    FixedTimeoutDetector,
    PhiAccrualDetector,
    Verdict,
)
from repro.health.gossip import (
    GossipMonitor,
    GossipStats,
    GossipStatus,
    build_monitor,
)
from repro.health.monitor import (
    DeathRecord,
    DetectionOutcome,
    DetectionSpec,
    HeartbeatMonitor,
    MembershipMonitor,
)
from repro.health.scheduling import (
    DegradedBatchSimulator,
    DegradedScheduleResult,
    DrainWindow,
)
from repro.health.spares import SparePool
from repro.health.state import (
    HealthEvent,
    Membership,
    MembershipView,
    NodeHealthState,
)

__all__ = [
    "DeathRecord",
    "DegradedBatchSimulator",
    "DegradedScheduleResult",
    "DetectionOutcome",
    "DetectionSpec",
    "DrainWindow",
    "FailureDetector",
    "FixedTimeoutDetector",
    "GossipMonitor",
    "GossipStats",
    "GossipStatus",
    "HealthEvent",
    "HeartbeatMonitor",
    "Membership",
    "MembershipMonitor",
    "MembershipView",
    "build_monitor",
    "NodeHealthState",
    "PhiAccrualDetector",
    "SparePool",
    "Verdict",
]
