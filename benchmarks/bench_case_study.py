"""E6 — the Section IV-A case-study timing breakdown.

Paper (200 MHz ARM926): binding 70.4 ms, mapping 21.7 ms, routing
7.4 ms, validation 20.6 ms.  We report host-Python milliseconds; the
claim under test is the *shape*: binding is the bottleneck for the
53-task application ("although binding is fast for small applications,
here it is actually the bottleneck") while mapping "scales quite well"
and routing stays cheapest.

Known deviation: binding no longer dominates mapping.  The binder
answers its best-fit queries from the allocation state's capacity
index (one test per distinct free vector of an element class), so
binding the beamformer on CRISP takes about 1.5 ms against mapping's
5.2 ms (best of three, 2-vCPU linux VM; 10.6 ms when every query
rescanned every element).  That claim is kept as the strict expected
failure ``tests/test_experiments.py::TestFig10::
test_case_study_binding_dominates_mapping``; the two claims that still
hold are asserted here.  Routing now undercuts binding by only about
8 % (1.4 ms), so heavy CPU contention during one run can flip it.
"""

from __future__ import annotations

from repro.experiments import PAPER_CASE_STUDY_MS, case_study_timing


def bench_case_study(benchmark, platform):
    timings = benchmark.pedantic(
        case_study_timing,
        kwargs={"platform": platform, "repeats": 1},
        iterations=1, rounds=3,
    )
    ms = timings.as_milliseconds()
    print()
    print("case study per-phase ms (measured):",
          {k: round(v, 1) for k, v in ms.items()})
    print("case study per-phase ms (paper):   ", PAPER_CASE_STUDY_MS)

    assert ms["routing"] < ms["binding"], "routing should be cheapest"
    assert ms["mapping"] < 200, "mapping must stay in run-time range"
