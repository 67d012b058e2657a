"""Reporting-layer tests: tables, series, heatmaps, registry."""

import pytest

from repro.errors import ConfigError
from repro.reporting import (
    EXPERIMENTS,
    format_heatmap,
    format_series,
    format_table,
    get_experiment,
)


class TestFormatTable:
    def test_basic_alignment(self):
        text = format_table(("a", "bb"), [(1, 2), (33, 4)])
        lines = text.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_title_line(self):
        text = format_table(("x",), [(1,)], title="T")
        assert text.splitlines()[0] == "T"

    def test_float_formatting(self):
        text = format_table(("v",), [(0.123456,), (1234567.0,), (0.0,)])
        assert "0.1235" in text
        assert "1.235e+06" in text

    def test_ragged_rows_rejected(self):
        with pytest.raises(ConfigError):
            format_table(("a", "b"), [(1,)])

    def test_empty_headers_rejected(self):
        with pytest.raises(ConfigError):
            format_table((), [])


class TestFormatSeries:
    def test_series_rows(self):
        text = format_series("fig", "x", "y",
                             {"s1": [(1, 2)], "s2": [(3, 4), (5, 6)]})
        assert "s1" in text and "s2" in text
        assert text.count("\n") >= 4

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            format_series("fig", "x", "y", {})


class TestFormatHeatmap:
    def test_grid(self):
        text = format_heatmap("hm", "r", "c", [1, 2], ["a", "b"],
                              {(1, "a"): 1.0, (1, "b"): 2.0,
                               (2, "a"): 3.0, (2, "b"): 4.0})
        assert "1.00" in text and "4.00" in text

    def test_missing_cells_render_dash(self):
        text = format_heatmap("hm", "r", "c", [1], ["a", "b"],
                              {(1, "a"): 1.0})
        assert "-" in text

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigError):
            format_heatmap("hm", "r", "c", [], ["a"], {})


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {"table2", "table4", "fig5", "fig6", "fig7", "fig8",
                    "fig9", "fig10", "fig11", "fig15", "fig16", "fig17",
                    "fig18", "fig19"}
        assert set(EXPERIMENTS) == expected

    def test_lookup(self):
        exp = get_experiment("Fig5")
        assert exp.exp_id == "fig5"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            get_experiment("fig99")

    def test_runners_importable(self):
        for exp in EXPERIMENTS.values():
            runner = exp.runner()
            assert callable(runner)

    def test_claims_recorded(self):
        for exp in EXPERIMENTS.values():
            assert exp.paper_claim


def test_format_live_summary_renders_snapshot():
    from repro.reporting import format_live_summary
    from repro.sim import LiveSnapshot

    snapshot = LiveSnapshot(now=2.5, offered=40, completed=30,
                            in_flight=10, throughput=12.0,
                            mean_ttft=0.132, mean_tpot=0.002)
    text = format_live_summary(snapshot)
    assert "live serving summary" in text
    assert "offered" in text and "in flight" in text
    assert "132" in text  # TTFT rendered in milliseconds
    assert "40" in text and "30" in text and "10" in text


class TestWorkerUtilization:
    def test_renders_backend_records(self):
        from repro.reporting import format_worker_utilization

        text = format_worker_utilization((
            {"worker": "process-0", "cells": 3},
            {"worker": "process-1", "cells": 5},
        ))
        assert text.splitlines() == [
            "worker utilization",
            "worker    | cells",
            "----------+------",
            "process-0 | 3    ",
            "process-1 | 5    ",
        ]

    def test_empty_renders_note_not_table(self):
        from repro.reporting import format_worker_utilization

        assert format_worker_utilization(()) \
            == "worker utilization: no workers ran"
