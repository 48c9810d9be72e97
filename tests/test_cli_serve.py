"""serve-bench CLI and the telemetry-lifecycle guarantees around it."""

import socket
import threading
import urllib.request

import pytest

from repro.cli import build_parser, main


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def telemetry_threads() -> list:
    return [thread for thread in threading.enumerate()
            if thread.name.startswith(("repro-metrics-",
                                       "repro-resource-"))]


class TestParser:
    def test_defaults_meet_the_concurrency_floor(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.sessions == 8
        assert args.shards == 2
        assert args.tenants == 2
        assert args.quota is None
        assert args.hold == 0.0

    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["serve-bench", "--shards", "4", "--sessions", "16",
             "--quota", "32", "--workload", "oltp", "--quiet"])
        assert args.shards == 4 and args.sessions == 16
        assert args.quota == 32 and args.workload == "oltp"

    def test_listed_in_repro_list(self, capsys):
        assert main(["list"]) == 0
        assert "serve-bench" in capsys.readouterr().out


class TestServeBench:
    def test_reports_aggregate_and_per_tenant_surfaces(self, capsys):
        code = main(["serve-bench", "--refs", "300", "--capacity", "64",
                     "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "8 session(s)" in out
        assert "hit ratio" in out
        assert "p50" in out and "p99" in out
        assert "tenant tenant0" in out and "tenant tenant1" in out

    def test_quota_run_reports_quota_evictions(self, capsys):
        code = main(["serve-bench", "--refs", "400", "--capacity", "32",
                     "--shards", "1", "--sessions", "4", "--quota", "8",
                     "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "quota 8" in out
        assert "quota-evictions" in out

    def test_invalid_capacity_exits_two(self, capsys):
        assert main(["serve-bench", "--capacity", "1", "--shards", "2",
                     "--quiet"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_tenants_exits_two(self, capsys):
        assert main(["serve-bench", "--tenants", "0", "--quiet"]) == 2
        assert "error" in capsys.readouterr().err

    def test_live_endpoint_exposes_tenant_counters(self, capsys):
        port = free_port()
        scraped = {}

        def scrape_during_hold():
            url = f"http://127.0.0.1:{port}/metrics"
            with urllib.request.urlopen(url, timeout=5.0) as response:
                scraped["text"] = response.read().decode("utf-8")

        scraper = threading.Timer(0.05, scrape_during_hold)
        scraper.start()
        try:
            code = main(["serve-bench", "--refs", "300",
                         "--capacity", "64", "--quiet",
                         "--serve-metrics", str(port),
                         "--hold", "1.5"])
        finally:
            scraper.join()
        assert code == 0
        # The scrape may have landed mid-run or in the hold window;
        # either way the service instruments must be present.
        assert "service_requests" in scraped["text"]
        assert "service_tenant_tenant0_hits" in scraped["text"]
        assert telemetry_threads() == []


class TestTelemetryLifecycle:
    def test_failed_sampler_does_not_leak_server_thread_or_port(
            self, capsys):
        # --sample-resources -1 makes ResourceSampler raise *after* the
        # MetricsServer bound its port; the try/finally in the CLI must
        # still stop the server, and the error exits 2 like any other
        # configuration error.
        port = free_port()
        assert main(["serve-bench", "--refs", "10", "--quiet",
                     "--serve-metrics", str(port),
                     "--sample-resources", "-1"]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        assert telemetry_threads() == []
        with socket.socket() as sock:  # the port is free again
            sock.bind(("127.0.0.1", port))

    def test_worker_crash_still_stops_the_telemetry_plane(self, capsys):
        import repro.service as service

        port = free_port()
        original = service.run_load

        def exploding_run_load(*args, **kwargs):
            raise KeyboardInterrupt

        service.run_load = exploding_run_load
        try:
            # Ctrl-C unwinds the command; main reports it as exit 130.
            assert main(["serve-bench", "--refs", "10", "--quiet",
                         "--serve-metrics", str(port),
                         "--sample-resources", "0.05"]) == 130
        finally:
            service.run_load = original
        assert telemetry_threads() == []
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", port))
