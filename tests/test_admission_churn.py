"""Admission-churn acceptance tests: speedup, determinism, rollback cost.

These assert the perf claims of the transactional/interned admission
pipeline against the frozen seed reference (``benchmarks/seed_reference``,
a verbatim copy of the repository's original implementation):

* the 12x12-mesh churn workload runs >= 3x faster than the seed
  snapshot/restore implementation,
* placements and routes are bit-identical between the seed reference
  and the transaction journal,
* failed-attempt rollback cost no longer scales with platform size
  (16x16 within ~2x of 4x4).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.arch import mesh
from repro.experiments import (
    CHURN_BENCH_CONFIG as CONFIG,
    CHURN_BENCH_POOL_SIZE,
    churn_pool,
    measure_mesh_rollback_seconds,
    run_admission_churn,
)

from benchmarks.seed_reference.kairos import run_seed_churn

POOL = churn_pool(count=CHURN_BENCH_POOL_SIZE, seed=0)

#: acceptance thresholds (measured ~4.8x and ~1.1x on an idle machine;
#: generous slack absorbs CI noise without weakening the claims)
MIN_SPEEDUP = 3.0
MAX_ROLLBACK_RATIO = 2.0


@pytest.fixture(scope="module")
def churn_runs():
    """One timed run of each implementation over the same workload."""
    seed = min(
        (run_seed_churn(POOL, mesh(12, 12), CONFIG) for _ in range(2)),
        key=lambda r: r.elapsed_seconds,
    )
    transaction = min(
        (run_admission_churn(POOL, mesh(12, 12), CONFIG) for _ in range(2)),
        key=lambda r: r.elapsed_seconds,
    )
    return seed, transaction


class TestChurnEquivalence:
    def test_workload_exercises_fill_and_churn(self, churn_runs):
        _seed, transaction = churn_runs
        assert transaction.fill_admitted > 10
        assert transaction.released >= CONFIG.steps - 1
        assert transaction.admitted > transaction.fill_admitted
        assert transaction.final_utilization > 0.5

    def test_matches_seed_implementation_layouts(self, churn_runs):
        seed, transaction = churn_runs
        assert transaction.layouts == seed.layouts
        assert transaction.admitted == seed.admitted
        assert transaction.rejected == seed.rejected


@pytest.mark.perf
class TestChurnSpeedup:
    def test_at_least_3x_faster_than_seed(self, churn_runs):
        seed, transaction = churn_runs
        speedup = seed.elapsed_seconds / transaction.elapsed_seconds
        assert speedup >= MIN_SPEEDUP, (
            f"churn speedup {speedup:.2f}x below the {MIN_SPEEDUP}x floor "
            f"(seed {seed.elapsed_seconds:.3f}s, "
            f"transaction {transaction.elapsed_seconds:.3f}s)"
        )


@pytest.mark.perf
class TestRollbackScaling:
    def test_rollback_cost_flat_in_platform_size(self):
        """The same failed attempt must cost the same to undo on a
        16x16 mesh as on a 4x4 mesh — rollback is O(mutations).
        Measured by the same shared helper the benchmark runner
        reports, so the CI gate and BENCH_admission.json track one
        scenario."""
        small = measure_mesh_rollback_seconds(4)
        large = measure_mesh_rollback_seconds(16)
        ratio = large / small
        assert ratio <= MAX_ROLLBACK_RATIO, (
            f"rollback on 16x16 costs {ratio:.2f}x a 4x4 rollback "
            f"({large * 1e6:.1f}us vs {small * 1e6:.1f}us)"
        )
