"""Plan/commit: what-if admission probing with the repro.api façade.

Demonstrates the two-phase admission protocol of the
:class:`repro.api.AdmissionController`:

1. ``plan(app)`` runs binding → mapping → routing → validation inside
   a transaction and unwinds it — the returned epoch-stamped ``Plan``
   describes exactly what the platform *would* do, while holding no
   resources (probing is free);
2. ``commit(plan)`` applies the planned layout atomically when the
   capacity epoch is unchanged, and transparently **replans** when a
   concurrent admission moved it;
3. failures arrive as structured ``Decision``/``Plan`` objects with
   machine-readable ``ReasonCode``s — no exception handling.

Run:  python examples/plan_commit.py
"""

from __future__ import annotations

from repro import AdmissionController, GeneratorConfig, generate, mesh


def make_app(seed: int, internals: int = 4):
    return generate(
        GeneratorConfig(inputs=1, internals=internals, outputs=1,
                        utilization_low=0.2, utilization_high=0.5),
        seed=seed,
        name=f"job{seed}",
    )


def main() -> None:
    controller = AdmissionController(mesh(6, 6), validation_mode="skip")
    print(f"platform: {controller.platform}")

    # -- 1. a free what-if probe -------------------------------------------
    probe = controller.plan(make_app(1))
    print("\n== plan (no resources held) ==")
    print(probe.describe())
    print(f"platform utilization after planning: "
          f"{controller.manager.utilization():.1%}")

    # -- 2. commit at the unchanged epoch: cheap apply ----------------------
    decision = controller.commit(probe)
    print("\n== commit ==")
    print(f"admitted={decision.admitted} replanned={decision.replanned} "
          f"epoch={decision.epoch}")
    print(f"utilization now: {controller.manager.utilization():.1%}")

    # -- 3. a stale plan replans transparently ------------------------------
    stale = controller.plan(make_app(2), "stale-job")
    interloper = controller.admit(make_app(3), "interloper")
    print("\n== epoch conflict ==")
    print(f"planned at epoch {stale.epoch}, but '{interloper.app_id}' "
          f"moved the state to epoch {controller.state.epoch}")
    decision = controller.commit(stale)
    print(f"commit -> admitted={decision.admitted} "
          f"replanned={decision.replanned}")

    # -- 4. structured rejections ------------------------------------------
    monster = make_app(99, internals=200)
    verdict = controller.plan(monster)
    print("\n== structured rejection ==")
    print(f"{monster.name}: ok={verdict.ok} phase={verdict.phase} "
          f"code={verdict.code}")
    print(f"reason: {verdict.reason}")

    # -- teardown -----------------------------------------------------------
    controller.release_all()
    print(f"\nreleased everything: utilization "
          f"{controller.manager.utilization():.1%}")


if __name__ == "__main__":
    main()
