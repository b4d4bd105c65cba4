"""Shared fixtures: platforms, applications, and allocation states.

Also registers the tiered Hypothesis profiles (select one with the
``HYPOTHESIS_PROFILE`` environment variable):

``dev``
    10 examples — fast local iteration,
``default``
    25 examples — the normal test-suite budget,
``determinism``
    500 examples — hammers the profile-governed lockstep /
    bit-identity property tests (binary round-trips, replay and
    drain-to-zero under churn + fault storm + repair) before trusting
    a determinism-sensitive change; CI runs the validation engine's
    oracle property (``tests/test_mcr.py``) at this tier.

Property tests that decorate with ``@settings(deadline=None)`` (no
explicit ``max_examples``) inherit the selected profile's example
budget; tests with an explicit count are pinned deliberately.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import pytest
from hypothesis import settings as _hypothesis_settings

_hypothesis_settings.register_profile(
    "dev", max_examples=10, deadline=None
)
_hypothesis_settings.register_profile(
    "default", max_examples=25, deadline=None
)
_hypothesis_settings.register_profile(
    "determinism", max_examples=500, deadline=None
)
_hypothesis_settings.load_profile(
    os.environ.get("HYPOTHESIS_PROFILE", "default")
)

from repro.apps import (
    Application,
    GeneratorConfig,
    Implementation,
    Task,
    beamforming_application,
    generate,
)
from repro.arch import (
    AllocationState,
    ElementType,
    ResourceVector,
    crisp,
    mesh,
)
from repro.manager.kairos import AdmissionGate


@pytest.fixture
def mesh3x3():
    """A 3x3 homogeneous DSP mesh."""
    return mesh(3, 3)


@pytest.fixture
def mesh4x4():
    return mesh(4, 4)


@pytest.fixture
def crisp_platform():
    return crisp()


@pytest.fixture
def state3x3(mesh3x3):
    return AllocationState(mesh3x3)


@pytest.fixture
def crisp_state(crisp_platform):
    return AllocationState(crisp_platform)


def simple_dsp_task(name: str, cycles: int = 40, memory: int = 8) -> Task:
    """A task with one DSP implementation (test helper)."""
    return Task(
        name,
        (
            Implementation(
                name=f"{name}_impl",
                requirement=ResourceVector(cycles=cycles, memory=memory),
                execution_time=1.0,
                cost=1.0,
                target_kind=ElementType.DSP,
            ),
        ),
    )


def chain_app(length: int = 4, cycles: int = 40) -> Application:
    """t0 -> t1 -> ... -> t{n-1}, all DSP tasks."""
    app = Application(f"chain{length}")
    previous = None
    for index in range(length):
        task = app.add_task(simple_dsp_task(f"t{index}", cycles=cycles))
        if previous is not None:
            app.connect(previous, task, bandwidth=5.0)
        previous = task
    return app


def diamond_app(cycles: int = 40) -> Application:
    """a -> (b, c) -> d."""
    app = Application("diamond")
    for name in "abcd":
        app.add_task(simple_dsp_task(name, cycles=cycles))
    app.connect("a", "b", bandwidth=5.0)
    app.connect("a", "c", bandwidth=5.0)
    app.connect("b", "d", bandwidth=5.0)
    app.connect("c", "d", bandwidth=5.0)
    return app


def admit_or_raise(manager, app, app_id=None):
    """Admit through the façade; return the layout or raise the
    decision's :class:`AllocationFailure` (exception-style assertions)."""
    decision = manager.controller.admit(app, app_id)
    if not decision.admitted:
        raise decision.failure
    return decision.layout


@contextmanager
def unmemoized(*managers):
    """Memo replay off inside the block — for ``managers`` only, or for
    every manager when none is named: each attempt runs the pipeline,
    the oracle a memoized manager's decisions must equal.  Rejections
    are still recorded, so the memo is warm when the block ends."""
    off = {id(manager._gate) for manager in managers}
    replay = AdmissionGate.check_memo

    def check_memo(gate, digest, app_id):
        if managers and id(gate) not in off:
            replay(gate, digest, app_id)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AdmissionGate, "check_memo", check_memo)
        yield


@pytest.fixture
def chain4():
    return chain_app(4)


@pytest.fixture
def diamond():
    return diamond_app()


@pytest.fixture
def beamformer():
    return beamforming_application()


@pytest.fixture
def small_generated():
    """A deterministic small generated application."""
    return generate(
        GeneratorConfig(inputs=1, internals=3, outputs=1), seed=11
    )
