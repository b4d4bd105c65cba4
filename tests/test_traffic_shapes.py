"""Named traffic shapes: registry, determinism, recipe round-trips."""

from __future__ import annotations

from random import Random

import pytest

from repro.sim import (
    TRAFFIC_SHAPES,
    MMPPProcess,
    SimulationConfig,
    build_recipe,
    default_traffic_classes,
    diurnal_mmpp_classes,
    flash_crowd_classes,
    hot_spot_classes,
    make_policy,
    make_traffic_classes,
    run_recipe,
    run_simulation,
    trace_digest,
)
from repro.sim.recipe import platform_from_spec


class TestRegistry:
    def test_all_shapes_registered(self):
        assert sorted(TRAFFIC_SHAPES) == [
            "default", "diurnal_mmpp", "flash_crowd", "hot_spot",
        ]

    def test_make_resolves_each_shape(self):
        for shape in TRAFFIC_SHAPES:
            classes = make_traffic_classes(shape, seed=1, rate_scale=2.0)
            assert classes
            names = [cls.name for cls in classes]
            assert len(set(names)) == len(names)

    def test_unknown_shape_lists_registry(self):
        with pytest.raises(ValueError, match="hot_spot"):
            make_traffic_classes("nope")

    def test_params_forwarded(self):
        hot, background = make_traffic_classes(
            "hot_spot", rate_scale=1.0, hot_share=0.5
        )
        assert hot.arrivals.rate == pytest.approx(
            background.arrivals.rate
        )

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            hot_spot_classes(hot_share=1.5)
        with pytest.raises(ValueError):
            diurnal_mmpp_classes(night_fraction=0.0)
        with pytest.raises(ValueError):
            flash_crowd_classes(surge=-1.0)


class TestShapes:
    def test_hot_spot_total_rate_matches_default_mix(self):
        classes = hot_spot_classes(rate_scale=3.0)
        total = sum(cls.arrivals.mean_rate() for cls in classes)
        # 1.92/unit at rate_scale=1: the default mix's stationary total
        assert total == pytest.approx(1.92 * 3.0)

    def test_hot_spot_share_split(self):
        hot, background = hot_spot_classes(rate_scale=1.0, hot_share=0.8)
        assert hot.name == "hot" and background.name == "background"
        assert hot.arrivals.rate == pytest.approx(
            4 * background.arrivals.rate
        )
        assert hot.priority > background.priority

    def test_diurnal_classes_are_mmpp(self):
        classes = diurnal_mmpp_classes(night_fraction=0.25)
        assert all(
            isinstance(cls.arrivals, MMPPProcess) for cls in classes
        )
        for cls in classes:
            (busy, _), (calm, _) = cls.arrivals.phases
            assert calm == pytest.approx(busy * 0.25)

    def test_flash_crowd_is_scaled_default_mix(self):
        surged = flash_crowd_classes(seed=5, rate_scale=1.5, surge=4.0)
        scaled = default_traffic_classes(seed=5, rate_scale=6.0)
        for a, b in zip(surged, scaled):
            assert a.name == b.name
            assert a.arrivals.mean_rate() == pytest.approx(
                b.arrivals.mean_rate()
            )

    def test_shape_pools_deterministic(self):
        for shape in TRAFFIC_SHAPES:
            a = make_traffic_classes(shape, seed=9)
            b = make_traffic_classes(shape, seed=9)
            for cls_a, cls_b in zip(a, b):
                assert [app.name for app in cls_a.pool] == [
                    app.name for app in cls_b.pool
                ]

    def test_arrival_streams_deterministic(self):
        for shape in TRAFFIC_SHAPES:
            draws = []
            for _ in range(2):
                classes = make_traffic_classes(shape, seed=4)
                rng = Random(42)
                for cls in classes:
                    reset = getattr(cls.arrivals, "reset", None)
                    if reset is not None:
                        reset()
                draws.append([
                    cls.arrivals.next_interarrival(rng)
                    for cls in classes for _ in range(5)
                ])
            assert draws[0] == draws[1]


class TestRecipes:
    def test_recipe_round_trip_per_shape(self):
        for shape in TRAFFIC_SHAPES:
            recipe = build_recipe(
                platform="6x6", duration=8.0, seed=3, traffic=shape,
            )
            assert recipe["classes"]["kind"] == shape
            first = run_recipe(recipe)
            second = run_recipe(recipe)
            assert trace_digest(first.trace) == trace_digest(second.trace)

    def test_traffic_params_serialized_and_applied(self):
        recipe = build_recipe(
            platform="6x6", duration=8.0, seed=3,
            traffic="hot_spot", traffic_params={"hot_share": 0.6},
        )
        assert recipe["classes"]["params"] == {"hot_share": 0.6}
        result = run_recipe(recipe)
        assert set(result.metrics.per_class) <= {"hot", "background"}

    def test_default_recipe_stanza_unchanged(self):
        recipe = build_recipe(platform="6x6", duration=8.0, seed=3)
        assert recipe["classes"] == {
            "kind": "default", "seed": 3,
            "rate_scale": 1.0, "pool_size": 8,
        }
        assert "params" not in recipe["classes"]

    def test_bad_shape_rejected_at_build_time(self):
        with pytest.raises(ValueError):
            build_recipe(traffic="nope")
        with pytest.raises(TypeError):
            build_recipe(traffic="hot_spot",
                         traffic_params={"bogus": 1})

    def test_building_a_recipe_generates_no_pool(self, monkeypatch):
        """``build_recipe`` checks the traffic arguments; the pools are
        generated once, by ``run_recipe``."""
        from repro.sim import traffic

        def refuse(*args, **kwargs):
            raise AssertionError("recipe building generated an application")

        monkeypatch.setattr(traffic, "generate", refuse)
        for shape in TRAFFIC_SHAPES:
            assert build_recipe(traffic=shape)["classes"]["kind"] == shape
        for bad in (
            {"rate_scale": 0.0},
            {"pool_size": 0},
            {"traffic": "hot_spot", "traffic_params": {"hot_share": 1}},
            {"traffic": "flash_crowd", "traffic_params": {"surge": 0}},
        ):
            with pytest.raises(ValueError):
                build_recipe(**bad)

    def test_flash_crowd_recipe_matches_scaled_default(self):
        surged = build_recipe(
            platform="6x6", duration=10.0, seed=0, rate_scale=2.0,
            traffic="flash_crowd", traffic_params={"surge": 3.0},
        )
        scaled = build_recipe(
            platform="6x6", duration=10.0, seed=0, rate_scale=6.0,
        )
        assert trace_digest(run_recipe(surged).trace) == trace_digest(
            run_recipe(scaled).trace
        )


class TestMapperAxis:
    def test_mapper_key_emitted_only_when_set(self):
        plain = build_recipe(platform="6x6", duration=5.0)
        assert "mapper" not in plain
        swapped = build_recipe(
            platform="6x6", duration=5.0, mapper="first_fit"
        )
        assert swapped["mapper"] == "first_fit"

    def test_unknown_mapper_rejected(self):
        with pytest.raises(ValueError):
            build_recipe(mapper="bogus")

    def test_mappers_change_decisions(self):
        digests = {}
        for mapper in ("kairos", "first_fit", "random"):
            recipe = build_recipe(
                platform="6x6", duration=10.0, seed=1,
                rate_scale=2.0, mapper=mapper,
            )
            digests[mapper] = trace_digest(run_recipe(recipe).trace)
        assert len(set(digests.values())) == len(digests)

    def test_run_simulation_mapper_kwarg(self):
        platform = platform_from_spec("4x4")
        result = run_simulation(
            platform,
            make_traffic_classes("default", seed=0, rate_scale=2.0),
            make_policy("fifo", {}),
            SimulationConfig(duration=5.0, seed=0),
            mapper="random",
            mapper_params={"seed": 3},
        )
        assert result.metrics.offered > 0
