"""Online admission: applications arriving and leaving at run time.

The scenario the paper motivates in its introduction: "at design-time,
it is unknown when, and what combinations of applications are
requested to be executed."  A stream of start/stop requests hits the
resource manager; we track admissions, rejections (by phase), external
fragmentation and utilization over time, and show how departures free
capacity for applications that were previously rejected.

Run:  python examples/online_admission.py
"""

from __future__ import annotations

import random

from repro import CostWeights, Kairos, crisp, make_dataset
from repro.apps.datasets import DatasetSpec


def main() -> None:
    rng = random.Random(2026)
    platform = crisp()
    manager = Kairos(platform, weights=CostWeights(1.0, 1.0),
                     validation_mode="skip")

    # a mixed workload pool: small/medium communication + computation
    pool = (
        make_dataset(DatasetSpec("communication", "small"), count=15, seed=1)
        + make_dataset(DatasetSpec("computation", "small"), count=15, seed=2)
        + make_dataset(DatasetSpec("communication", "medium"), count=10, seed=3)
    )
    rng.shuffle(pool)

    running: list[str] = []
    admitted = rejected = departed = 0
    retry_queue = []

    print(f"{'step':>4}  {'event':<26} {'running':>7} {'util %':>6} "
          f"{'frag %':>6}")
    for step in range(60):
        # departures become likelier as the platform fills
        if running and rng.random() < 0.35:
            app_id = running.pop(rng.randrange(len(running)))
            manager.release(app_id)
            departed += 1
            event = f"stop  {app_id.split('#')[0][:20]}"
        else:
            app = retry_queue.pop(0) if retry_queue and rng.random() < 0.5 \
                else pool[step % len(pool)]
            decision = manager.controller.admit(app)
            if decision.admitted:
                running.append(decision.app_id)
                admitted += 1
                event = f"start {app.name[:20]}"
            else:
                rejected += 1
                retry_queue.append(app)
                event = f"REJECT {app.name[:16]} ({decision.phase.value})"
        print(f"{step:>4}  {event:<26} {len(running):>7} "
              f"{manager.utilization() * 100:>6.1f} "
              f"{manager.external_fragmentation():>6.1f}")

    print()
    print(f"admitted {admitted}, rejected {rejected}, departed {departed}; "
          f"{len(running)} still running")
    print(f"final utilization {manager.utilization() * 100:.1f}%, "
          f"fragmentation {manager.external_fragmentation():.1f}%")

    # drain: everything releases cleanly
    for app_id in running:
        manager.release(app_id)
    assert manager.utilization() == 0.0
    print("drained: all resources returned")


if __name__ == "__main__":
    main()
