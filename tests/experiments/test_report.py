"""Tests for the one-shot reproduction report."""

import io

from repro.cli import main
from repro.experiments.report import generate_report
from repro.obs import ConsoleProgressSink, EventDispatcher, activate


class TestGenerateReport:
    def test_contains_all_sections(self):
        report = generate_report(table_scale=0.2, oltp_scale=0.02,
                                 repetitions=1)
        assert "# Reproduction report" in report
        assert "## Table 4.1" in report
        assert "## Table 4.2" in report
        assert "## Table 4.3" in report
        assert "trace characterization" in report
        assert "Generated in" in report

    def test_progress_callback(self):
        stream = io.StringIO()
        dispatcher = EventDispatcher()
        dispatcher.attach(ConsoleProgressSink(stream))
        with activate(dispatcher):
            generate_report(table_scale=0.2, oltp_scale=0.02, repetitions=1)
        lines = stream.getvalue().splitlines()
        assert any("Table 4.1" in line for line in lines)
        # The tables narrate their B(1)/B(2) ratios too.
        assert any("B(LRU-1)/B(LRU-2)=" in line for line in lines)

    def test_paper_values_embedded(self):
        report = generate_report(table_scale=0.2, oltp_scale=0.02,
                                 repetitions=1)
        assert "LRU-1 (paper)" in report
        assert "0.459" in report  # paper Table 4.1 B=100 LRU-2 value


class TestReportCli:
    def test_report_to_file(self, tmp_path, capsys):
        output = tmp_path / "report.md"
        code = main(["report", "--table-scale", "0.2",
                     "--oltp-scale", "0.02", "--repetitions", "1",
                     "--output", str(output)])
        assert code == 0
        text = output.read_text()
        assert "## Table 4.3" in text

    def test_report_to_stdout(self, capsys):
        code = main(["report", "--table-scale", "0.2",
                     "--oltp-scale", "0.02", "--repetitions", "1"])
        assert code == 0
        assert "# Reproduction report" in capsys.readouterr().out
