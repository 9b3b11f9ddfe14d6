"""Experiment modules: every table/figure regenerates with quick params
and reproduces the paper's qualitative shape."""

import pytest

from repro.experiments import (
    ablations,
    appendix_a,
    figure1,
    figure5,
    figure6,
    figure7,
    figure8,
    scalability,
    table2,
    table3,
    tables456,
)
from repro.experiments.report import ExperimentParams

QUICK = ExperimentParams.quick()


class TestFigure1:
    def test_only_arbitrary_model_catches_flow_b(self):
        stream = figure1.example_stream()
        landmark = figure1.landmark_catches(stream, figure1.EXAMPLE_THRESHOLD)
        sliding = figure1.sliding_catches(
            stream, figure1.EXAMPLE_THRESHOLD, figure1.SLIDING_WINDOW_NS
        )
        arbitrary = figure1.arbitrary_catches(stream, figure1.EXAMPLE_THRESHOLD)
        assert not landmark["B"] and not sliding["B"] and arbitrary["B"]
        for fid in "ACD":
            assert not landmark[fid] and not sliding[fid] and not arbitrary[fid]

    def test_render(self):
        text = figure1.run().render()
        assert "Figure 1" in text and "caught" in text


class TestTable2:
    def test_rows_match_paper(self):
        rows = {row.scheme: row for row in table2.rows()}
        assert rows["eardet"].counters == "101"
        assert rows["eardet"].fps_rate == "0"
        assert rows["eardet"].fnl_rate == "0"
        assert "0.04" in rows["fmf"].fps_rate
        assert "no guarantee" in rows["amf"].fps_rate

    def test_fp_bound_decreases_with_counters(self):
        small = table2.multistage_fp_bound(110)
        large = table2.multistage_fp_bound(1000)
        assert large < small
        assert small == 1.0  # vacuous at EARDet-sized memory


class TestTable3:
    def test_derived_cells_match_paper(self):
        table = table3.run(QUICK)
        cells = {row[0]: row for row in table.rows}
        assert cells["eardet"][1] == "no" and cells["eardet"][2] == "no"
        assert cells["eardet"][4] == "independent"
        assert cells["fmf"][1] == "yes" and cells["fmf"][2] == "yes"
        assert cells["amf"][1] == "yes" and cells["amf"][2] == "no"


class TestTables456:
    def test_table5_matches_paper_exactly(self):
        datasets = tables456.default_datasets(scale=0.02)
        table = tables456.table5(datasets)
        by_name = {row[0]: row for row in table.rows}
        assert by_name["federico-like"][7] == "6991B"
        assert by_name["federico-like"][8] == 107
        assert by_name["caida-like"][7] == "6925B"
        assert by_name["caida-like"][8] == 100

    def test_table4_and_6_render(self):
        t4, t5, t6 = tables456.run(scale=0.02)
        assert "federico-like" in t4.render()
        assert "250KB" in t6.render()


class TestFigure5:
    @pytest.fixture(scope="class")
    def panels(self):
        return figure5.run(QUICK)

    def test_eardet_detects_everything_above_gamma_h(self, panels):
        flooding, shrew = panels
        rates = flooding.x_values
        gamma_h = 250_000
        for congestion in ("non-congested", "congested"):
            series = flooding.series[f"eardet ({congestion})"]
            for rate, probability in zip(rates, series):
                if rate >= gamma_h:
                    assert probability == 1.0, (congestion, rate)

    def test_fmf_misses_short_bursts(self, panels):
        _, shrew = panels
        series = shrew.series["fmf (non-congested)"]
        assert series[0] < 1.0  # 100 ms bursts evade the fixed window

    def test_eardet_catches_all_bursts_non_congested(self, panels):
        _, shrew = panels
        assert all(p == 1.0 for p in shrew.series["eardet (non-congested)"])


class TestFigure6:
    @pytest.fixture(scope="class")
    def panels(self):
        return figure6.run(QUICK, budgets=(55,))

    def test_eardet_fp_identically_zero(self, panels):
        for panel in panels:
            assert all(value == 0.0 for value in panel.series["eardet"]), panel.title

    def test_multistage_filters_have_fps_somewhere(self, panels):
        total = sum(
            value
            for panel in panels
            for scheme in ("fmf", "amf")
            for value in panel.series[scheme]
        )
        assert total > 0


class TestFigure7:
    @pytest.fixture(scope="class")
    def series(self):
        return figure7.run(QUICK)

    def test_theorem7_holds_per_flow(self, series):
        """The rigorous statement: every detected flow's incubation is
        under the bound from its realized rate (Theorem 7's premise)."""
        checks = series.theorem_checks
        assert checks
        assert all(check.holds for check in checks), [
            check for check in checks if not check.holds
        ][:3]

    def test_realized_rates_are_positive(self, series):
        for check in series.theorem_checks:
            assert check.realized_rate_bps > 0
            assert check.incubation_seconds > 0

    def test_average_below_maximum(self, series):
        for avg, maximum in zip(
            series.series["avg t_incb (s)"], series.series["max t_incb (s)"]
        ):
            if avg is not None:
                assert avg <= maximum


class TestFigure8:
    def test_feasible_range_matches_paper(self):
        series = figure8.run()
        notes = " ".join(series.notes)
        assert "[101, 982]" in notes
        assert "n=101" in notes and "beta_delta=863B" in notes

    def test_lower_bound_increases_with_n(self):
        series = figure8.run()
        lowers = series.series["beta_delta lower bound (B)"]
        assert lowers == sorted(lowers)

    def test_bounds_ordered(self):
        series = figure8.run()
        for lower, upper in zip(
            series.series["beta_delta lower bound (B)"],
            series.series["beta_delta upper bound (B)"],
        ):
            assert lower <= upper


class TestAppendixA:
    def test_reproduced_column_matches_paper(self):
        table = appendix_a.run()
        by_quantity = {row[0]: row for row in table.rows}
        assert by_quantity["n"][1] == by_quantity["n"][2] == 101
        assert by_quantity["beta_delta (B)"][1] == 863
        assert by_quantity["incubation bound (s)"][1] == pytest.approx(0.7848)
        assert by_quantity["rate gap R_NFN/gamma_l"][1] == pytest.approx(9.8)


class TestScalability:
    def test_analysis_table(self):
        table = scalability.analysis_table()
        text = table.render()
        assert "IPv4" in text and "IPv6" in text and "L2" in text

    def test_throughput_table(self):
        table = scalability.throughput_table(QUICK)
        assert len(table.rows) == 3


class TestAblations:
    def test_all_studies_render(self):
        for item in ablations.run(QUICK):
            assert item.render()

    def test_rate_gap_shrinks_with_counters(self):
        series = ablations.counters_vs_rate_gap()
        gaps = series.series["rate gap R_NFN/gamma_l"]
        assert gaps == sorted(gaps, reverse=True)

    def test_burst_gap_tradeoff_monotone(self):
        series = ablations.burst_gap_vs_rate_gap()
        gaps = series.series["min rate gap (gamma_h/gamma_l)"]
        assert gaps == sorted(gaps, reverse=True)
        assert all(gap > 1 for gap in gaps)

    def test_virtual_unit_size_work_tradeoff(self):
        table = ablations.virtual_unit_size(QUICK)
        operations = [row[1] for row in table.rows]
        assert operations == sorted(operations, reverse=True)
        # Same detections at every unit size on this scenario.
        detected = {row[2] for row in table.rows}
        assert len(detected) == 1

    def test_counting_store_counts_fused_update_like_paper_literal(self):
        """The unit-size study's "store ops" column counts the logical
        mutations; the fused one-call update must count exactly what the
        paper-literal increment/insert/decrement_all composition does."""
        from repro.core.config import engineer
        from repro.core.counters import CounterStore
        from repro.core.eardet import EARDet
        from repro.traffic.datasets import federico_like

        class LiteralCountingStore(ablations._CountingStore):
            update = CounterStore.update

        dataset = federico_like(seed=QUICK.seed, scale=0.05)
        config = engineer(
            dataset.rho, dataset.gamma_l, dataset.beta_l, dataset.gamma_h,
            dataset.t_upincb_seconds,
        )
        counts = []
        for factory in (ablations._CountingStore, LiteralCountingStore):
            detector = EARDet(config, store_factory=factory)
            detector.observe_stream(dataset.stream)
            counts.append(detector._store.operations)
        assert counts[0] == counts[1] > 0

    def test_counting_store_counts_fused_fill_like_unit_steps(self):
        """The fused fill's one-unit steps must count what the
        paper-literal step (insert_virtual / decrement_all) counts; the
        closed forms for longer gaps are counted through those calls."""
        from dataclasses import replace

        from repro.core.config import engineer
        from repro.core.counters import CounterStore, HeapCounterStore
        from repro.core.eardet import EARDet
        from repro.traffic.datasets import federico_like

        class UnfusedCountingStore(ablations._CountingStore):
            # Every one-unit step through the paper-literal (counted)
            # primitives; longer gaps keep the closed forms.
            def fill(self, volume, unit_size):
                if volume <= unit_size:
                    CounterStore.fill(self, volume, unit_size)
                else:
                    HeapCounterStore.fill(self, volume, unit_size)

            def _unit_into_full(self, unit, bottom):
                CounterStore.fill(self, unit, unit)

        dataset = federico_like(seed=QUICK.seed, scale=0.05)
        config = engineer(
            dataset.rho, dataset.gamma_l, dataset.beta_l, dataset.gamma_h,
            dataset.t_upincb_seconds,
        )
        for unit in (config.virtual_unit, max(1, config.beta_th // 20)):
            counts = []
            for factory in (ablations._CountingStore, UnfusedCountingStore):
                detector = EARDet(
                    replace(config, virtual_unit=unit), store_factory=factory
                )
                detector.observe_stream(dataset.stream)
                counts.append(detector._store.operations)
            assert counts[0] == counts[1] > 0

    def test_store_implementations_identical(self):
        table = ablations.store_implementations(QUICK)
        assert "identical" in table.notes[0]


class TestDynamics:
    def test_state_stays_bounded_throughout(self):
        from repro.experiments import dynamics

        series = dynamics.run(QUICK)
        # The boundedness note carries the budget; occupancy never exceeds n.
        n = 107  # federico-like config
        assert all(value <= n for value in series.series["occupied counters"])
        assert all(value <= n for value in series.series["blacklist size"])

    def test_detections_monotone(self):
        from repro.experiments import dynamics

        series = dynamics.run(QUICK)
        detections = series.series["detections"]
        assert detections == sorted(detections)


class TestWindowModels:
    @pytest.fixture(scope="class")
    def series(self):
        from repro.experiments import window_models

        return window_models.run(QUICK)

    def test_eardet_exact(self, series):
        assert all(p == 1.0 for p in series.series["eardet (arbitrary) detect"])
        assert all(p == 0.0 for p in series.series["eardet (arbitrary) FPs"])

    def test_sliding_window_misses_short_bursts(self, series):
        assert series.series["sliding-mg (1s) detect"][0] < 1.0

    def test_landmark_mg_has_false_positives(self, series):
        """Without virtual traffic or a second pass, raw MG accuses small
        flows — the deficiency EARDet's modifications fix."""
        assert max(series.series["landmark-mg FPs"]) > 0


class TestNewAblations:
    def test_incubation_bound_decreases_with_counters(self):
        table = ablations.incubation_vs_counters(QUICK)
        bounds = [row[1] for row in table.rows]
        assert bounds == sorted(bounds, reverse=True)
        for _, bound, maximum, average in table.rows:
            assert maximum <= bound
            assert average <= maximum

    def test_conservative_update_never_worse(self):
        table = ablations.conservative_update(QUICK)
        cells = {row[0]: row for row in table.rows}
        assert cells["fmf-conservative"][2] <= cells["fmf-plain"][2]
