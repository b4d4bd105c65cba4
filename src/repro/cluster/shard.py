"""One admission shard: a region of the platform behind its own façade.

A :class:`Shard` owns a disjoint sub-platform and a private
:class:`~repro.manager.kairos.Kairos` + its
:class:`~repro.api.AdmissionController` — the same stack an unsharded
deployment runs, which is what makes the single-shard cluster
bit-identical to the plain service (the lockstep test in
``tests/test_cluster.py``).  ``alive`` models the region process: a
killed shard wipes its allocation state (the crash loses everything
resident) and answers every request with a structured
:data:`~repro.reasons.ReasonCode.SHARD_DOWN` decision until revived,
so the router's spill-over sees an ordinary rejection during the
kill-to-detection window instead of an exception.
"""

from __future__ import annotations

from repro.api.controller import Decision, Plan
from repro.apps.taskgraph import Application
from repro.arch.builders import mesh
from repro.arch.topology import Platform
from repro.core.cost import BOTH
from repro.manager.kairos import Kairos
from repro.manager.layout import Phase, PhaseTimings
from repro.obs import DISABLED, Observability
from repro.reasons import ReasonCode

__all__ = ["Shard", "band_width", "build_shards"]


class Shard:
    """A region-owning admission controller with a liveness flag."""

    def __init__(
        self,
        shard_id: str,
        platform: Platform,
        weights=BOTH,
        fastpath: bool = True,
        obs: Observability | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.platform = platform
        self.obs = DISABLED if obs is None else obs
        self.manager = Kairos(
            platform, weights=weights, validation_mode="skip",
            fastpath=fastpath, obs=obs,
        )
        self.controller = self.manager.controller
        self.alive = True
        registry = self.obs.registry
        self._c_admitted = registry.counter(f"shard.{shard_id}.admitted")
        self._c_rejected = registry.counter(f"shard.{shard_id}.rejected")
        self._c_heartbeats = registry.counter(f"shard.{shard_id}.heartbeats")
        self._c_kills = registry.counter(f"shard.{shard_id}.kills")

    # -- admission ----------------------------------------------------------

    def admit(self, app: Application, app_id: str) -> Decision:
        """One-shot admission on this shard (down shards reject)."""
        if not self.alive:
            return self.down_decision(app_id)
        decision = self.controller.admit(app, app_id)
        (self._c_admitted if decision.admitted else self._c_rejected).inc()
        return decision

    def plan(self, app: Application, app_id: str) -> Plan | None:
        """A free probe on this shard; ``None`` when the shard is down."""
        if not self.alive:
            return None
        return self.controller.plan(app, app_id)

    def commit(self, plan: Plan) -> Decision:
        """Commit a plan; a shard killed since planning rejects cleanly."""
        if not self.alive:
            return self.down_decision(plan.app_id)
        decision = self.controller.commit(plan)
        (self._c_admitted if decision.admitted else self._c_rejected).inc()
        return decision

    def release(self, app_id: str) -> bool:
        """Release if resident; a wiped shard has nothing to release."""
        if app_id not in self.manager.admitted:
            return False
        self.manager.release(app_id)
        return True

    # -- lifecycle ----------------------------------------------------------

    def kill(self) -> tuple[str, ...]:
        """Crash the region: wipe state, stop beating, reject requests.

        Returns the app_ids that were resident (and are now lost until
        recovery re-places them elsewhere).
        """
        lost = tuple(sorted(self.manager.admitted))
        self.alive = False
        self._c_kills.inc()
        self.manager.release_all()
        return lost

    def revive(self) -> None:
        """The region process is back (empty); heartbeats resume.

        Routability returns only after the liveness registry's
        probation elapses — revival restores capacity, not trust.
        """
        self.alive = True

    def beat(self) -> None:
        self._c_heartbeats.inc()

    # -- views --------------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self.manager.state.epoch

    def utilization(self) -> float:
        return self.manager.utilization()

    def down_decision(self, app_id: str) -> Decision:
        # Phase.BINDING: the request never entered the pipeline — it
        # died at the shard boundary, which precedes every phase
        timings = PhaseTimings()
        return Decision(
            admitted=False,
            app_id=app_id,
            epoch=self.manager.state.epoch,
            phase=Phase.BINDING,
            reason=f"shard {self.shard_id} is not accepting requests",
            code=ReasonCode.SHARD_DOWN,
            timings=timings,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "up" if self.alive else "down"
        return (
            f"<Shard {self.shard_id} [{status}]: "
            f"{len(self.manager.admitted)} resident>"
        )


def band_width(cols: int, count: int) -> int:
    """Columns per shard when ``count`` equal bands split ``cols``.

    The one shard-count check: recipe building runs it without
    building anything, :func:`build_shards` before building.
    """
    if count < 1:
        raise ValueError("shard count must be at least 1")
    if cols % count != 0:
        raise ValueError(
            f"cannot split {cols} columns into {count} equal shards"
        )
    return cols // count


def build_shards(
    rows: int,
    cols: int,
    count: int,
    weights=BOTH,
    fastpath: bool = True,
    obs: Observability | None = None,
) -> list[Shard]:
    """Partition a ``rows`` x ``cols`` mesh into ``count`` column bands.

    Each band is built as its own mesh platform — shards own disjoint
    regions with no shared links, the model behind the coordinator's
    "cut channels are not routed" limitation (see ``docs/cluster.md``).
    With ``count == 1`` the platform is byte-identical to
    ``mesh(rows, cols)`` (same default name), the precondition of the
    single-shard lockstep contract.
    """
    band = band_width(cols, count)
    if count == 1:
        platforms = [mesh(rows, cols)]
    else:
        platforms = [
            mesh(rows, band, name=f"shard{index}_{rows}x{band}")
            for index in range(count)
        ]
    return [
        Shard(
            f"s{index}", platform, weights=weights,
            fastpath=fastpath, obs=obs,
        )
        for index, platform in enumerate(platforms)
    ]
