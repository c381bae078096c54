"""Table renderers for the evaluation artifacts."""

from repro.eval.experiments import CcdfSeries, LatencyPoint
from repro.eval.reporting import (
    render_fig12,
    render_fig13,
    render_fig14,
    render_verification,
)
from repro.cli import main
from repro.eval.verification_stats import collect
from repro.net.testbed import ThroughputResult


class TestFig12Render:
    def test_rows_and_columns(self):
        points = [
            LatencyPoint("noop", 1_000, 4.75, 4.8, 100),
            LatencyPoint("noop", 64_000, 4.76, 4.8, 100),
            LatencyPoint("verified-nat", 1_000, 5.13, 5.2, 100),
        ]
        text = render_fig12(points)
        assert "4.75" in text and "5.13" in text
        assert "     -" in text  # missing cell rendered as dash
        assert "1" in text and "64" in text  # occupancy headers in k


class TestFig13Render:
    def test_threshold_columns(self):
        series = [CcdfSeries("noop", [(4.75, 0.5), (300.0, 0.0)], samples=10)]
        text = render_fig13(series, thresholds=(5.0, 100.0), background_flows=30_000)
        assert "30k" in text
        assert "5.0" in text and "100.0" in text
        assert "noop" in text

    def test_probability_above_endpoints(self):
        series = CcdfSeries("x", [(5.0, 0.5), (10.0, 0.0)], samples=4)
        assert series.probability_above(1.0) == 1.0  # below all samples
        assert series.probability_above(5.0) == 0.5
        assert series.probability_above(99.0) == 0.0

    def test_empty_series(self):
        assert CcdfSeries("x", [], 0).probability_above(1.0) == 0.0


class TestFig14Render:
    def test_rows(self):
        results = {
            "noop": [ThroughputResult(1_000, 3.2, 0.0)],
            "linux-nat": [ThroughputResult(1_000, 0.65, 0.0005)],
        }
        text = render_fig14(results)
        assert "3.20" in text and "0.65" in text


class TestVerificationRender:
    def test_mentions_paper_numbers(self):
        stats = collect()
        text = render_verification(stats)
        assert "108 paths" in text  # the paper's reference point
        assert "VERIFIED" in text
        assert str(stats.paths) in text

    def test_table_holds_no_wall_time(self):
        # The committed table is what every run writes: counts and the
        # verdict only.
        assert "time" not in render_verification(collect())

    def test_cli_prints_the_times_after_the_table(self, capsys):
        assert main(["experiments", "verification"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "verdict" in lines[-3]
        assert lines[-2].startswith("  exploration time:")
        assert lines[-1].startswith("  validation time:")
