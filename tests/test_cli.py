"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_flags(self):
        args = build_parser().parse_args(
            ["table4.1", "--scale", "0.5", "--repetitions", "2",
             "--quiet", "--compare"])
        assert args.command == "table4.1"
        assert args.scale == 0.5
        assert args.repetitions == 2
        assert args.quiet and args.compare


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table4.1" in out
        assert "k-sweep" in out

    def test_unknown_ablation_fails_gracefully(self, capsys):
        assert main(["ablation", "nope"]) == 2
        assert "unknown ablation" in capsys.readouterr().err

    def test_table_41_quick_run(self, capsys):
        code = main(["table4.1", "--scale", "0.2", "--repetitions", "1",
                     "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 4.1" in out
        assert "LRU-2" in out

    def test_table_41_compare_mode(self, capsys):
        code = main(["table4.1", "--scale", "0.2", "--repetitions", "1",
                     "--quiet", "--compare"])
        assert code == 0
        out = capsys.readouterr().out
        assert "paper" in out

    def test_trace_stats(self, capsys):
        assert main(["trace-stats", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Five Minute" in out

    def test_list_mentions_telemetry_commands(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "top" in out and "perf" in out

    def test_table_with_serve_metrics_and_sampler(self, capsys):
        code = main(["table4.1", "--scale", "0.05", "--repetitions", "1",
                     "--quiet", "--serve-metrics", "0",
                     "--sample-resources", "0.1"])
        assert code == 0
        captured = capsys.readouterr()
        assert "Table 4.1" in captured.out
        assert "serving /metrics on http://127.0.0.1:" in captured.err

    @pytest.mark.parametrize("flags", [["--scale", "-1"],
                                       ["--repetitions", "0"]])
    def test_configuration_error_prints_one_line(self, flags, capsys):
        assert main(["table4.1", "--quiet", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_top_requires_a_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["top"])
        assert "required" in capsys.readouterr().err

    def test_top_rejects_two_sources(self, capsys):
        with pytest.raises(SystemExit):
            main(["top", "--url", "http://x", "--file", "y"])
        err = capsys.readouterr().err
        assert "not allowed" in err

    def test_top_once_reads_a_snapshot_file(self, tmp_path, capsys):
        code = main(["table4.1", "--scale", "0.05", "--repetitions", "1",
                     "--quiet", "--metrics-out",
                     str(tmp_path / "m.jsonl")])
        assert code == 0
        capsys.readouterr()
        assert main(["top", "--file", str(tmp_path / "m.jsonl"),
                     "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "hit ratio" in out

    def test_top_port_shorthand_unreachable_exits_one(self, capsys):
        assert main(["top", "--port", "9", "--once"]) == 1
        assert "cannot read" in capsys.readouterr().out

    def test_ablation_runs(self, capsys):
        assert main(["ablation", "scaling"]) == 0
        out = capsys.readouterr().out
        assert "scale-invariance" in out


class TestCheckpointFlags:
    def test_parser_accepts_checkpoint_and_resume(self):
        args = build_parser().parse_args(
            ["table4.1", "--checkpoint", "cells.jsonl", "--resume"])
        assert args.checkpoint == "cells.jsonl"
        assert args.resume

    @pytest.mark.parametrize(
        "flags", ["--jobs 2", "--checkpoint cells.jsonl", "--resume"])
    def test_ablation_rejects_sweep_flags(self, flags, capsys):
        # Ablations run no sweep grid, so the sweep flags are not theirs.
        with pytest.raises(SystemExit) as info:
            main(["ablation", "scaling", *flags.split()])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_nonpositive_jobs_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["table4.1", "--jobs", "0"])
        assert info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_resume_requires_checkpoint(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["table4.1", "--resume"])
        assert info.value.code == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_checkpoint_then_resume_renders_identical_table(
            self, tmp_path, capsys):
        path = str(tmp_path / "cells.jsonl")
        base = ["table4.1", "--scale", "0.2", "--repetitions", "1",
                "--quiet", "--checkpoint", path]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert main(base + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert resumed == first
        # The ledger holds every cell exactly once after the resume.
        with open(path, encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) > 0

    def test_resume_completes_a_partial_checkpoint(self, tmp_path, capsys):
        path = str(tmp_path / "cells.jsonl")
        base = ["table4.1", "--scale", "0.2", "--repetitions", "1",
                "--quiet", "--checkpoint", path]
        assert main(base) == 0
        full = capsys.readouterr().out
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[: len(lines) // 2])  # "interrupted"
        assert main(base + ["--resume"]) == 0
        assert capsys.readouterr().out == full

    def test_interrupt_outside_the_sweep_prints_one_line(
            self, monkeypatch, capsys):
        """Ctrl-C in the B(1) search, after the sweep, exits 130 with
        one line instead of a traceback."""
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            "repro.sim.experiment.equi_effective_buffer_size", interrupted)
        assert main(["table4.2", "--scale", "0.02", "--quiet"]) == 130
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("interrupted: ")
        assert captured.err.count("\n") == 1
