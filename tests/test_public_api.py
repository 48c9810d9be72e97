"""Public-API surface tests: what README promises must import and work."""

import importlib

import pytest


class TestTopLevelApi:
    def test_readme_quickstart_symbols(self):
        import repro
        for name in ("LRUKPolicy", "CacheSimulator", "LRUPolicy",
                     "BufferPool", "SimulatedDisk", "TraceRecorder",
                     "make_policy", "available_policies", "Reference",
                     "AccessKind"):
            assert hasattr(repro, name), name

    def test_all_exports_resolve(self):
        import repro
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version_string(self):
        import repro
        major, minor, patch = repro.__version__.split(".")
        assert int(major) >= 1

    @pytest.mark.parametrize("module", [
        "repro.core", "repro.policies", "repro.buffer", "repro.storage",
        "repro.db", "repro.workloads", "repro.sim", "repro.analysis",
        "repro.stats", "repro.experiments", "repro.cli", "repro.obs",
        "repro.service",
    ])
    def test_every_package_imports_cleanly(self, module):
        imported = importlib.import_module(module)
        assert imported.__doc__, f"{module} lacks a module docstring"

    def test_subpackage_all_exports_resolve(self):
        for module_name in ("repro.core", "repro.policies", "repro.buffer",
                            "repro.storage", "repro.db", "repro.workloads",
                            "repro.sim", "repro.analysis", "repro.stats",
                            "repro.experiments", "repro.obs", "repro.service"):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert getattr(module, name, None) is not None, (
                    f"{module_name}.{name}")

    def test_obs_documented_surface_importable(self):
        """Every class docs/observability.md references must come straight
        from ``repro.obs`` — the documented import surface is locked."""
        obs = importlib.import_module("repro.obs")
        documented = (
            # event stream + dispatch
            "ObsEvent", "AccessEvent", "EvictionEvent", "FlushEvent",
            "PurgeEvent", "SnapshotEvent", "WindowEvent", "ProgressEvent",
            "CellFailureEvent", "EventDispatcher", "Sink", "CallbackSink",
            "activate", "current", "resolve",
            # metrics
            "Counter", "Gauge", "HistogramMetric", "MetricsRegistry",
            "RegistrySnapshot", "SlidingHitRatioWindow", "HitRatioWindowRecorder",
            # sinks + profiler
            "JsonlSink", "RingBufferSink", "ConsoleProgressSink",
            "TimelineSink", "ProfiledPolicy", "HookProfile",
            # tracing + provenance
            "Span", "Tracer", "write_chrome_trace",
            "EvictionDecisionEvent", "CandidateInfo", "EvictionDecision",
            "NextUseOracle", "ProvenanceRecorder",
            # live telemetry
            "render_exposition", "parse_exposition", "Exposition",
            "HistogramSeries", "MetricsServer", "ResourceSampler",
            # perf trajectory
            "PerfVerdict", "append_record", "check_regression",
            "load_history", "render_report",
        )
        for name in documented:
            assert getattr(obs, name, None) is not None, (
                f"repro.obs.{name} missing from the public surface")
            assert name in obs.__all__, f"{name} not in repro.obs.__all__"

    def test_readme_quickstart_snippet_behaviour(self):
        """The exact numbers the README's quickstart comment promises."""
        from repro import CacheSimulator, LRUKPolicy, LRUPolicy
        from repro.workloads import TwoPoolWorkload

        workload = TwoPoolWorkload(n1=100, n2=10_000)
        results = {}
        for policy in (LRUPolicy(), LRUKPolicy(k=2)):
            sim = CacheSimulator(policy, capacity=100)
            sim.run(workload.references(2_000, seed=1))
            sim.start_measurement()
            sim.run(workload.references(20_000, seed=2))
            results[type(policy).__name__] = sim.hit_ratio
        assert results["LRUPolicy"] == pytest.approx(0.22, abs=0.03)
        assert results["LRUKPolicy"] == pytest.approx(0.459, abs=0.03)
