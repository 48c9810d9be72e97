"""Prometheus text exposition: rendering, escaping, bucket cumulativity."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, parse_exposition, render_exposition
from repro.obs.telemetry import exposition_name


class TestExpositionNames:
    def test_dotted_names_become_underscored(self):
        assert exposition_name("protocol.run_hit_ratio") == \
            "protocol_run_hit_ratio"

    def test_illegal_characters_map_to_underscore(self):
        assert exposition_name("obs.sink.JsonlSink.0.depth") == \
            "obs_sink_JsonlSink_0_depth"
        assert exposition_name("a-b c/d") == "a_b_c_d"

    def test_leading_digit_gains_prefix(self):
        assert exposition_name("2q.promotions") == "_2q_promotions"

    def test_colons_survive(self):
        assert exposition_name("ns:metric") == "ns:metric"


class TestRenderGolden:
    """Byte-exact rendering of a small, fully specified registry."""

    def build(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("protocol.hits").inc(42)
        registry.counter("protocol.misses").inc(8)
        registry.set_gauge("sweep.cells_done", 3)
        histogram = registry.histogram("protocol.run_hit_ratio",
                                       0.0, 1.0, bins=4)
        for value in (0.1, 0.3, 0.3, 0.9):
            histogram.observe(value)
        return registry

    def test_golden_text(self):
        text = render_exposition(self.build())
        assert text == (
            "# HELP protocol_hits protocol.hits\n"
            "# TYPE protocol_hits counter\n"
            "protocol_hits 42\n"
            "# HELP protocol_misses protocol.misses\n"
            "# TYPE protocol_misses counter\n"
            "protocol_misses 8\n"
            "# HELP sweep_cells_done sweep.cells_done\n"
            "# TYPE sweep_cells_done gauge\n"
            "sweep_cells_done 3\n"
            "# HELP protocol_run_hit_ratio protocol.run_hit_ratio\n"
            "# TYPE protocol_run_hit_ratio histogram\n"
            'protocol_run_hit_ratio_bucket{le="0.25"} 1\n'
            'protocol_run_hit_ratio_bucket{le="0.5"} 3\n'
            'protocol_run_hit_ratio_bucket{le="0.75"} 3\n'
            'protocol_run_hit_ratio_bucket{le="1"} 4\n'
            'protocol_run_hit_ratio_bucket{le="+Inf"} 4\n'
            "protocol_run_hit_ratio_sum 1.6\n"
            "protocol_run_hit_ratio_count 4\n")

    def test_rendering_is_deterministic(self):
        registry = self.build()
        assert render_exposition(registry) == render_exposition(registry)

    def test_bucket_ladder_is_cumulative_and_capped_by_count(self):
        text = render_exposition(self.build())
        counts = [int(line.rsplit(" ", 1)[1]) for line in text.splitlines()
                  if line.startswith("protocol_run_hit_ratio_bucket")]
        assert counts == sorted(counts), "ladder must be non-decreasing"
        assert counts[-1] == 4, "+Inf bucket must equal _count"


class TestRenderEdgeCases:
    def test_empty_registry_renders_empty(self):
        assert render_exposition(MetricsRegistry()) == ""

    def test_empty_histogram_is_omitted(self):
        registry = MetricsRegistry()
        registry.histogram("protocol.run_hit_ratio", 0.0, 1.0)
        registry.counter("protocol.hits").inc()
        text = render_exposition(registry)
        assert "run_hit_ratio" not in text
        assert "protocol_hits 1" in text

    def test_out_of_range_observations_stay_in_the_ladder(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", 0.0, 1.0, bins=2)
        histogram.observe(-5.0)
        histogram.observe(99.0)
        text = render_exposition(registry)
        assert 'h_bucket{le="+Inf"} 2' in text
        assert "h_count 2" in text

    def test_bins_ahead_of_moments_render_one_consistent_ladder(self):
        # A scrape can land inside observe(): after the bins counted an
        # observation and before the moments did.
        registry = MetricsRegistry()
        histogram = registry.histogram("h", 0.0, 1.0, bins=4)
        histogram.observe(0.1)
        histogram._histogram.add(0.6)
        assert histogram.count == 1
        series = parse_exposition(
            render_exposition(registry)).histograms["h"]
        counts = [count for _, count in series.buckets]
        assert counts == sorted(counts)
        assert counts[-1] == series.count == 2

    def test_help_line_escapes_newline_and_backslash(self):
        registry = MetricsRegistry()
        registry.counter("weird\nname\\here").inc()
        text = render_exposition(registry)
        help_line = next(line for line in text.splitlines()
                         if line.startswith("# HELP"))
        assert "\\n" in help_line and "\\\\" in help_line
        assert "\n" not in help_line

    def test_nan_and_inf_values_render(self):
        registry = MetricsRegistry()
        registry.set_gauge("g.nan", float("nan"))
        registry.set_gauge("g.inf", float("inf"))
        registry.set_gauge("g.ninf", float("-inf"))
        text = render_exposition(registry)
        assert "g_nan NaN" in text
        assert "g_inf +Inf" in text
        assert "g_ninf -Inf" in text

    def test_callable_gauges_render_live_values(self):
        registry = MetricsRegistry()
        box = {"value": 1.0}
        registry.gauge("live", lambda: box["value"])
        assert "live 1" in render_exposition(registry)
        box["value"] = 2.5
        assert "live 2.5" in render_exposition(registry)


class TestParseRoundTrip:
    def test_render_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("protocol.hits").inc(10)
        registry.set_gauge("sweep.cells_done", 2)
        registry.set_gauge("protocol.last_run_hit_ratio", 0.25)
        histogram = registry.histogram("protocol.run_hit_ratio",
                                       0.0, 1.0, bins=8)
        for value in (0.125, 0.25, 0.5, 0.875):
            histogram.observe(value)

        exposition = parse_exposition(render_exposition(registry))

        assert exposition.value("protocol.hits") == 10
        assert exposition.value("sweep.cells_done") == 2
        assert exposition.value("protocol.last_run_hit_ratio") == 0.25
        assert exposition.types["protocol_hits"] == "counter"
        assert exposition.types["protocol_last_run_hit_ratio"] == "gauge"
        assert exposition.help["protocol_hits"] == "protocol.hits"
        series = exposition.histograms["protocol_run_hit_ratio"]
        assert series.count == 4
        assert series.sum == pytest.approx(1.75)
        assert series.mean == pytest.approx(0.4375)
        assert series.buckets[-1] == (float("inf"), 4)
        p50 = series.quantile(0.5)
        assert p50 is not None and 0.0 < p50 < 1.0

    def test_parser_tolerates_garbage_lines(self):
        exposition = parse_exposition(
            "protocol_hits 3\n"
            "!!! not a metric\n"
            "torn_line_without_value\n"
            "bad_value abc\n"
            "\n"
            "protocol_misses 1\n")
        assert exposition.value("protocol_hits") == 3
        assert exposition.value("protocol_misses") == 1
        assert not exposition.has("bad_value")

    def test_quantile_rejects_out_of_range(self):
        registry = MetricsRegistry()
        registry.histogram("h", 0.0, 1.0).observe(0.5)
        series = parse_exposition(
            render_exposition(registry)).histograms["h"]
        with pytest.raises(ConfigurationError):
            series.quantile(1.5)

    def test_empty_series_quantile_is_none(self):
        from repro.obs import HistogramSeries
        series = HistogramSeries()
        assert series.quantile(0.5) is None
        assert series.mean == 0.0

    def test_value_falls_back_to_default(self):
        exposition = parse_exposition("")
        assert exposition.value("nope", default=-1.0) == -1.0
        assert math.isnan(exposition.value("nope", default=float("nan")))
