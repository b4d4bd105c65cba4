"""The brownout controller: announced quality degradation under pressure.

Under sustained queue pressure the service trades placement *quality*
for decision *throughput* in announced, reversible steps — the
brownout pattern.  The controller is a hysteresis: consecutive
high-occupancy observations raise pressure, consecutive low ones
raise relief, and crossing the configured step counts moves one level
up or down the ladder:

====== =================== ===========================================
level  action              effect
====== =================== ===========================================
1      ``mapper_first_fit``  swap the annealing/kairos mapper for the
                             cheap first-fit baseline
2      ``depth_capped``      cap the per-layer ring-search radius at
                             ``ring_cap``
====== =================== ===========================================

Levels are cumulative (level 2 includes level 1) and fully unwound on
recovery: level 0 restores the manager's original pipeline and
mapping options *objects*, so a run that browned out and recovered
ends configured exactly as it started.

Every transition is traced and — because levels change the decision
function — bumps the manager's capacity epoch via ``state.touch()``,
keeping the negative-result memo sound.
Observations happen at the kernel's TICK events with queue occupancy
as the pressure signal, so the whole controller is a deterministic
function of the event stream and replays bit-identically.
"""

from __future__ import annotations

from dataclasses import replace

from repro.overload.config import BrownoutPolicy

__all__ = ["BrownoutController", "BrownoutLevers", "LEVEL_ACTIONS"]

#: level -> the announced action entering it ("normal" is level 0)
LEVEL_ACTIONS = {
    0: "normal",
    1: "mapper_first_fit",
    2: "depth_capped",
}


class BrownoutLevers:
    """Apply / unwind the degradation ladder on one Kairos manager."""

    def __init__(self, manager) -> None:
        self.manager = manager
        self._original_pipeline = manager.pipeline
        self._original_options = manager.mapping_options
        self._degraded_pipeline = None
        self._capped_options = None

    def _build_degraded_pipeline(self):
        from repro.api.pipeline import PhasePipeline

        original = self._original_pipeline
        return PhasePipeline(
            binder=original.binder,
            mapper="first_fit",
            router=(
                original.router_instance
                if original.router_instance is not None
                else original.router
            ),
            validator=original.validator,
            binder_params=original.binder_params,
            router_params=original.router_params,
            validator_params=original.validator_params,
        )

    def apply(self, level: int, ring_cap: int) -> None:
        manager = self.manager
        if level >= 1:
            if self._degraded_pipeline is None:
                self._degraded_pipeline = self._build_degraded_pipeline()
            manager.pipeline = self._degraded_pipeline
        else:
            manager.pipeline = self._original_pipeline
        if level >= 2:
            if self._capped_options is None:
                original = self._original_options
                cap = (
                    ring_cap if original.max_rings is None
                    else min(ring_cap, original.max_rings)
                )
                self._capped_options = replace(original, max_rings=cap)
            manager.mapping_options = self._capped_options
        else:
            manager.mapping_options = self._original_options


class BrownoutController:
    """Pressure hysteresis over one or more managers' levers.

    ``targets`` are Kairos managers (for a cluster: every shard's
    manager — a cluster-wide pressure signal degrades all shards in
    lockstep, which keeps the trace schema shard-free).
    """

    def __init__(self, policy: BrownoutPolicy, targets) -> None:
        self.policy = policy
        self.levers = [BrownoutLevers(target) for target in targets]
        self.level = 0
        self.max_level_seen = 0
        self._pressure = 0
        self._relief = 0

    def observe(self, occupancy: float) -> list[tuple[int, int, str]]:
        """One occupancy observation; returns ``(was, level, action)``
        transitions (at most one per observation)."""
        policy = self.policy
        if occupancy >= policy.high:
            self._relief = 0
            self._pressure += 1
            if self._pressure >= policy.step_up and (
                self.level < policy.max_level
            ):
                self._pressure = 0
                return [self._move(self.level + 1)]
        elif occupancy <= policy.low:
            self._pressure = 0
            self._relief += 1
            if self._relief >= policy.step_down and self.level > 0:
                self._relief = 0
                return [self._move(self.level - 1)]
        else:
            self._pressure = 0
            self._relief = 0
        return []

    def _move(self, level: int) -> tuple[int, int, str]:
        was = self.level
        self.level = level
        self.max_level_seen = max(self.max_level_seen, level)
        for lever in self.levers:
            lever.apply(level, self.policy.ring_cap)
        action = LEVEL_ACTIONS[level] if level > was else "restored"
        return (was, level, action)

    def describe_state(self) -> dict:
        return {
            "level": self.level,
            "max_level_seen": self.max_level_seen,
            "action": LEVEL_ACTIONS[self.level],
        }
