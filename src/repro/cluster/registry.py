"""Shard liveness: heartbeats, live → stale → dead, probation hysteresis.

The :class:`LivenessRegistry` is the cluster-level sibling of
:class:`repro.resilience.health.HealthRegistry` — the same design
rules apply: every transition is a pure function of the event sequence
and the observation times the *caller* supplies, the registry draws no
randomness and never reads the wall clock, and iteration is sorted, so
shard-kill traces replay bit-identically (asserted by
``tests/test_cluster.py``).  Times are sim-time floats from the event
kernel; using ``time.time()`` anywhere here would make heartbeat
expiry depend on host speed and break replay.

The automaton follows the RuntimeRegistry live/stale/dead heartbeat
pattern::

    live ──silence ≥ stale_after──▶ stale ──silence ≥ dead_after──▶ dead
      ▲                               │beat                           │beat
      │                               ▼                               ▼
      └──── probation elapsed ──── probation ◀────(keeps beating)─────┘
                                      │silence (flapped)
                                      ▼
                                    dead

``stale`` keeps receiving traffic (one missed beat is usually a hiccup,
and a single beat restores ``live``); ``dead`` does not.  A dead shard
that starts beating again enters *probation* — the hysteresis window:
it must beat cleanly for ``policy.probation`` sim-time before the
router trusts it again, so a flapping shard cannot oscillate between
trusted and demoted on every beat.  Fault storms are the second
demotion trigger: :meth:`note_fault` counts faults in a sliding
window and demotes a shard whose recent fault density crosses the
policy threshold even while its heartbeats still arrive.

``generation`` increments on every transition.  The cluster folds it
into its composite capacity epoch (see
:class:`repro.cluster.service.ClusterManager`), which is what keeps
epoch-stamped observations of the cluster sound across demotions and
revivals: a revival adds capacity without touching any shard-local
epoch, so without the generation two observations of different
clusters could compare equal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "LivenessPolicy",
    "LivenessRegistry",
    "LivenessTransition",
    "ShardLiveness",
]


class ShardLiveness(enum.StrEnum):
    """Liveness of one shard; values appear in trace records."""

    LIVE = "live"
    #: heartbeats missed recently — still routable, benefit of the doubt
    STALE = "stale"
    #: demoted: heartbeats silent past the deadline, or a fault storm
    DEAD = "dead"
    #: beating again after death — not yet routable (hysteresis)
    PROBATION = "probation"


#: states the router may send traffic to
ROUTABLE_STATES = frozenset((ShardLiveness.LIVE, ShardLiveness.STALE))


@dataclass(frozen=True)
class LivenessPolicy:
    """Tunables of the liveness automaton (all times are sim-time).

    ``stale_after``/``dead_after`` are heartbeat-silence deadlines;
    ``probation`` is the clean-beating window a revived shard must
    survive before it is routable again; ``storm_faults`` faults
    within ``storm_window`` sim-time demote a shard outright even
    while its heartbeats still arrive.
    """

    heartbeat_interval: float = 1.0
    stale_after: float = 2.5
    dead_after: float = 5.0
    probation: float = 3.0
    storm_faults: int = 3
    storm_window: float = 10.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if not self.heartbeat_interval <= self.stale_after < self.dead_after:
            raise ValueError(
                "need heartbeat_interval <= stale_after < dead_after"
            )
        if self.probation <= 0:
            raise ValueError("probation must be positive")
        if self.storm_faults < 1:
            raise ValueError("storm_faults must be at least 1")
        if self.storm_window <= 0:
            raise ValueError("storm_window must be positive")

    def describe(self) -> dict:
        """JSON-able parameters (recipe headers round-trip through this)."""
        return {
            "heartbeat_interval": self.heartbeat_interval,
            "stale_after": self.stale_after,
            "dead_after": self.dead_after,
            "probation": self.probation,
            "storm_faults": self.storm_faults,
            "storm_window": self.storm_window,
        }

    @classmethod
    def from_params(cls, params: dict | None) -> "LivenessPolicy":
        return cls(**(params or {}))


@dataclass(frozen=True)
class LivenessTransition:
    """One shard state change, for trace records and metrics."""

    shard_id: str
    previous: ShardLiveness
    state: ShardLiveness
    reason: str


class _ShardRecord:
    """Mutable liveness record of one shard."""

    __slots__ = ("state", "last_beat", "probation_since", "fault_times")

    def __init__(self, now: float) -> None:
        self.state = ShardLiveness.LIVE
        self.last_beat = now
        self.probation_since = 0.0
        self.fault_times: list[float] = []


class LivenessRegistry:
    """Per-shard heartbeat liveness, driven by caller-supplied sim-time."""

    def __init__(self, policy: LivenessPolicy | None = None) -> None:
        self.policy = policy or LivenessPolicy()
        self._records: dict[str, _ShardRecord] = {}
        #: bumps on every transition; folded into the cluster epoch
        self.generation = 0

    # -- registration --------------------------------------------------------

    def register(self, shard_id: str, now: float = 0.0) -> None:
        if shard_id in self._records:
            raise ValueError(f"shard {shard_id!r} is already registered")
        self._records[shard_id] = _ShardRecord(now)

    @property
    def shard_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._records))

    # -- event hooks ---------------------------------------------------------

    def heartbeat(self, shard_id: str, now: float) -> list[LivenessTransition]:
        """A beat arrived: refresh the deadline, maybe start revival."""
        record = self._record(shard_id)
        record.last_beat = now
        if record.state is ShardLiveness.DEAD:
            record.probation_since = now
            return [self._move(shard_id, record, ShardLiveness.PROBATION,
                               "revived")]
        if record.state is ShardLiveness.STALE:
            return [self._move(shard_id, record, ShardLiveness.LIVE,
                               "heartbeat_resumed")]
        return []

    def note_fault(self, shard_id: str, now: float) -> list[LivenessTransition]:
        """Count a fault against the shard; demote on a storm.

        The sliding ``storm_window`` keeps old faults from haunting a
        shard forever — only recent density demotes.
        """
        record = self._record(shard_id)
        horizon = now - self.policy.storm_window
        record.fault_times = [t for t in record.fault_times if t > horizon]
        record.fault_times.append(now)
        if (len(record.fault_times) >= self.policy.storm_faults
                and record.state is not ShardLiveness.DEAD):
            return [self._move(shard_id, record, ShardLiveness.DEAD,
                               "fault_storm")]
        return []

    def demote(self, shard_id: str, now: float,
               reason: str = "demoted") -> list[LivenessTransition]:
        """Force a shard dead (operator action, external detector)."""
        record = self._record(shard_id)
        if record.state is ShardLiveness.DEAD:
            return []
        return [self._move(shard_id, record, ShardLiveness.DEAD, reason)]

    def observe(self, now: float) -> list[LivenessTransition]:
        """Advance every silence deadline and probation that elapsed.

        Deterministic given the call times; iteration is sorted so the
        emitted transition order never depends on dict history.
        """
        policy = self.policy
        transitions: list[LivenessTransition] = []
        for shard_id in sorted(self._records):
            record = self._records[shard_id]
            silence = now - record.last_beat
            state = record.state
            if state in (ShardLiveness.LIVE, ShardLiveness.STALE):
                if silence >= policy.dead_after:
                    transitions.append(self._move(
                        shard_id, record, ShardLiveness.DEAD,
                        "missed_heartbeats",
                    ))
                elif (state is ShardLiveness.LIVE
                        and silence >= policy.stale_after):
                    transitions.append(self._move(
                        shard_id, record, ShardLiveness.STALE,
                        "missed_heartbeats",
                    ))
            elif state is ShardLiveness.PROBATION:
                if silence >= policy.stale_after:
                    # flapped: went quiet again before earning trust
                    transitions.append(self._move(
                        shard_id, record, ShardLiveness.DEAD, "flapped"
                    ))
                elif now - record.probation_since >= policy.probation:
                    transitions.append(self._move(
                        shard_id, record, ShardLiveness.LIVE,
                        "probation_elapsed",
                    ))
        return transitions

    # -- queries -------------------------------------------------------------

    def state(self, shard_id: str) -> ShardLiveness:
        return self._record(shard_id).state

    def routable(self, shard_id: str) -> bool:
        return self._record(shard_id).state in ROUTABLE_STATES

    def routable_ids(self) -> tuple[str, ...]:
        return tuple(
            shard_id for shard_id in sorted(self._records)
            if self._records[shard_id].state in ROUTABLE_STATES
        )

    def summary(self) -> dict:
        """State counts, JSON-able (metrics and the CLI render this)."""
        counts: dict[str, int] = {}
        for shard_id in sorted(self._records):
            value = self._records[shard_id].state.value
            counts[value] = counts.get(value, 0) + 1
        return {
            "tracked": len(self._records),
            "states": dict(sorted(counts.items())),
            "generation": self.generation,
        }

    # -- internals -----------------------------------------------------------

    def _record(self, shard_id: str) -> _ShardRecord:
        try:
            return self._records[shard_id]
        except KeyError:
            raise KeyError(f"unknown shard {shard_id!r}") from None

    def _move(
        self,
        shard_id: str,
        record: _ShardRecord,
        state: ShardLiveness,
        reason: str,
    ) -> LivenessTransition:
        previous = record.state
        record.state = state
        self.generation += 1
        return LivenessTransition(shard_id, previous, state, reason)
