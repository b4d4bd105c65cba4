"""repro.api — the public admission entry layer (plan/commit façade).

* :class:`AdmissionController` — ``admit`` / ``plan`` / ``commit``
  over a :class:`~repro.manager.kairos.Kairos`, with structured
  :class:`Decision` results and epoch-stamped :class:`Plan` objects
  (see :mod:`repro.api.controller`).
* :class:`PhasePipeline` + the strategy registry — named binder /
  mapper / router / validator strategies, including the four
  :mod:`repro.baselines` algorithms (see :mod:`repro.api.pipeline`).
* :class:`ReasonCode` — machine-readable failure classification,
  re-exported from :mod:`repro.reasons`.

The package ``__init__`` resolves its exports lazily (PEP 562): the
manager imports :mod:`repro.api.pipeline` while this package's
controller imports the manager, and laziness is what keeps that pair
acyclic.
"""

from __future__ import annotations

__all__ = [
    "AdmissionController",
    "Decision",
    "PhaseContext",
    "PhasePipeline",
    "Plan",
    "ReasonCode",
    "available_strategies",
    "register_binder",
    "register_mapper",
    "register_router",
    "register_validator",
]

_CONTROLLER_EXPORTS = {"AdmissionController", "Decision", "Plan"}
_PIPELINE_EXPORTS = {
    "PhaseContext",
    "PhasePipeline",
    "available_strategies",
    "register_binder",
    "register_mapper",
    "register_router",
    "register_validator",
}


def __getattr__(name: str):
    if name in _CONTROLLER_EXPORTS:
        from repro.api import controller

        return getattr(controller, name)
    if name in _PIPELINE_EXPORTS:
        from repro.api import pipeline

        return getattr(pipeline, name)
    if name == "ReasonCode":
        from repro.reasons import ReasonCode

        return ReasonCode
    raise AttributeError(f"module 'repro.api' has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
