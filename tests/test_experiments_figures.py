"""Smoke and trend tests for every figure function (scaled-down runs)."""

import pytest

from repro.experiments import (
    figure_04,
    figure_05,
    figure_06,
    figure_07,
    figure_08,
    figure_09,
    figure_10,
    figure_11,
    figure_12,
    figure_13,
    figure_14,
    figure_15,
    figure_16,
    figure_17,
    figure_18,
    figure_19,
    figure_r1,
)
from repro.experiments.config import DEFAULT_CONFIG
from repro.experiments.security_figs import fused_security_points
from repro.utils.rng import ensure_rng

SMALL = DEFAULT_CONFIG.with_(
    deadlines=(120.0, 480.0, 1080.0),
    compromise_rates=(0.1, 0.3, 0.5),
)


def _final(series):
    return series.points[-1][1]


class TestDeliveryFigures:
    def test_figure_04_trends(self):
        result = figure_04(
            group_sizes=(1, 5), config=SMALL, graphs=2, sessions_per_graph=25, seed=0
        )
        assert result.labels == (
            "Analysis: g=1",
            "Analysis: g=5",
            "Simulation: g=1",
            "Simulation: g=5",
        )
        # larger groups deliver more, in both model and simulation
        assert _final(result.get("Analysis: g=5")) > _final(result.get("Analysis: g=1"))
        assert _final(result.get("Simulation: g=5")) > _final(
            result.get("Simulation: g=1")
        )

    def test_figure_05_trends(self):
        result = figure_05(
            onion_router_counts=(3, 10),
            config=SMALL,
            graphs=2,
            sessions_per_graph=25,
            seed=1,
        )
        # fewer onion routers deliver more
        assert _final(result.get("Analysis: 3 onions")) > _final(
            result.get("Analysis: 10 onions")
        )
        assert _final(result.get("Simulation: 3 onions")) >= _final(
            result.get("Simulation: 10 onions")
        )

    def test_figure_10_trends(self):
        result = figure_10(
            copy_counts=(1, 5), config=SMALL, graphs=2, sessions_per_graph=25, seed=2
        )
        assert _final(result.get("Analysis: L=5")) >= _final(
            result.get("Analysis: L=1")
        )
        assert _final(result.get("Simulation: L=5")) >= _final(
            result.get("Simulation: L=1")
        )


class TestCostFigure:
    def test_figure_11_ordering(self):
        result = figure_11(
            copy_counts=(1, 3),
            onion_router_counts=(3,),
            config=SMALL,
            graphs=1,
            sessions_per_graph=15,
            seed=3,
        )
        non_anon = result.get("Non-anonymous")
        analysis = result.get("Analysis: K=3")
        simulation = result.get("Simulation: K=3")
        for copies in (1.0, 3.0):
            # non-anonymous cheapest; simulation below the analytical bound
            assert non_anon.y_at(copies) < analysis.y_at(copies)
            assert simulation.y_at(copies) <= analysis.y_at(copies)
        # cost grows with L
        assert simulation.y_at(3.0) > simulation.y_at(1.0)


class TestSecurityFigures:
    def test_figure_06_analysis_close_to_simulation(self):
        result = figure_06(onion_router_counts=(3,), config=SMALL, trials=800, seed=4)
        for rate in SMALL.compromise_rates:
            model = result.get("Analysis: 3 onions").y_at(rate)
            sim = result.get("Simulation: 3 onions").y_at(rate)
            assert sim == pytest.approx(model, abs=0.05)

    def test_figure_07_decreasing_in_relays(self):
        result = figure_07(
            compromise_rates=(0.2,),
            onion_router_counts=(1, 5, 10),
            config=SMALL,
            trials=400,
            seed=5,
        )
        ys = result.get("Analysis: c/n=20%").ys
        assert list(ys) == sorted(ys, reverse=True)

    def test_figure_08_group_size_helps(self):
        result = figure_08(group_sizes=(1, 10), config=SMALL, trials=500, seed=6)
        assert _final(result.get("Analysis: g=10")) > _final(
            result.get("Analysis: g=1")
        )
        assert _final(result.get("Simulation: g=10")) > _final(
            result.get("Simulation: g=1")
        )

    def test_figure_09_increasing_in_group_size(self):
        result = figure_09(
            compromise_rates=(0.2,),
            group_sizes=(1, 5, 10),
            config=SMALL,
            trials=400,
            seed=7,
        )
        ys = result.get("Analysis: c/n=20%").ys
        assert list(ys) == sorted(ys)

    def test_figure_12_copies_hurt_anonymity(self):
        result = figure_12(copy_counts=(1, 5), config=SMALL, trials=500, seed=8)
        assert _final(result.get("Analysis: L=5")) < _final(
            result.get("Analysis: L=1")
        )
        assert _final(result.get("Simulation: L=5")) < _final(
            result.get("Simulation: L=1")
        )

    def test_figure_13_shape(self):
        result = figure_13(
            copy_counts=(1, 3),
            group_sizes=(2, 8),
            config=SMALL,
            trials=400,
            seed=9,
        )
        series = result.get("Analysis: L=1")
        assert series.y_at(8.0) > series.y_at(2.0)


class TestSecurityFusion:
    """Each Simulation series equals direct fused calls in the documented order:
    one call per group size, in first-appearance order, cells line-major."""

    def test_figure_09_one_block_per_group_size(self):
        rates, group_sizes = (0.1, 0.3), (4, 2, 6)
        result = figure_09(
            compromise_rates=rates, group_sizes=group_sizes, config=SMALL,
            trials=60, seed=3,
        )
        generator = ensure_rng(3)
        columns = [
            fused_security_points(
                SMALL.n, g, [(SMALL.onion_routers, 1, rate) for rate in rates],
                60, 1, generator,
            )
            for g in group_sizes
        ]
        for row, rate in enumerate(rates):
            expected = tuple(
                (float(g), column[row][1])
                for g, column in zip(group_sizes, columns)
            )
            assert result.get(f"Simulation: c/n={rate:.0%}").points == expected

    def test_figure_07_one_rate_major_block(self):
        rates, onion_router_counts = (0.3, 0.1), (1, 3, 5)
        result = figure_07(
            compromise_rates=rates, onion_router_counts=onion_router_counts,
            config=SMALL, trials=60, seed=4,
        )
        scored = fused_security_points(
            SMALL.n,
            SMALL.group_size,
            [(k, 1, rate) for rate in rates for k in onion_router_counts],
            60,
            1,
            ensure_rng(4),
        )
        width = len(onion_router_counts)
        for row, rate in enumerate(rates):
            expected = tuple(
                (float(k), scored[row * width + col][0])
                for col, k in enumerate(onion_router_counts)
            )
            assert result.get(f"Simulation: c/n={rate:.0%}").points == expected


class TestInvalidSizes:
    @pytest.mark.parametrize("figure", [figure_04, figure_05, figure_10, figure_11])
    def test_zero_graphs_rejected(self, figure):
        with pytest.raises(ValueError, match="graphs must be positive"):
            figure(config=SMALL, graphs=0, sessions_per_graph=2)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "figure, size, keyword",
        [
            (figure_04, "sessions_per_graph", "sessions_per_variant"),
            (figure_14, "sessions", "sessions_per_variant"),
            (figure_r1, "sessions", "sessions"),
            (figure_06, "trials", "trials"),
        ],
    )
    def test_zero_size_names_the_count(self, figure, size, keyword, workers):
        with pytest.raises(ValueError, match=f"^{keyword} must be positive"):
            figure(**{size: 0}, workers=workers)

    def test_figure_14_rejects_empty_deadlines(self):
        with pytest.raises(ValueError, match="deadlines must not be empty"):
            figure_14(deadlines=(), sessions=2)


class TestTraceFigures:
    def test_figure_14_reaches_high_delivery(self):
        result = figure_14(deadlines=(300.0, 900.0, 1800.0), sessions=20, seed=10)
        sim = result.get("Simulation: L=1")
        assert sim.y_at(1800.0) >= 0.6
        assert sim.ys == tuple(sorted(sim.ys))

    def test_figure_15_traceable_trend(self):
        result = figure_15(compromise_rates=(0.1, 0.4), trials=300, seed=11)
        sim = result.get("Simulation: 3 onions")
        assert sim.y_at(0.4) > sim.y_at(0.1)

    def test_figure_16_anonymity_trend(self):
        result = figure_16(compromise_rates=(0.1, 0.4), trials=300, seed=12)
        sim = result.get("Simulation: L=1")
        assert sim.y_at(0.4) < sim.y_at(0.1)

    def test_figure_17_plateau_and_growth(self):
        result = figure_17(
            copy_counts=(1,),
            deadlines=(256.0, 4096.0, 65536.0, 131072.0),
            sessions=25,
            seed=13,
        )
        sim = result.get("Simulation: L=1")
        assert sim.ys == tuple(sorted(sim.ys))
        # long deadlines (crossing the off-hours) must beat short ones
        assert sim.y_at(131072.0) > sim.y_at(256.0)

    def test_figure_18_close_to_model(self):
        result = figure_18(compromise_rates=(0.2,), trials=1500, seed=14)
        model = result.get("Analysis: 3 onions").y_at(0.2)
        sim = result.get("Simulation: 3 onions").y_at(0.2)
        assert sim == pytest.approx(model, abs=0.04)

    def test_figure_19_multicopy_ordering(self):
        result = figure_19(
            copy_counts=(1, 5), compromise_rates=(0.3,), trials=500, seed=15
        )
        assert result.get("Simulation: L=5").y_at(0.3) <= result.get(
            "Simulation: L=1"
        ).y_at(0.3)
