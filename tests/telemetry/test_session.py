"""TelemetrySession lifecycle and end-to-end platform integration."""

from pathlib import Path

import pytest

from repro.core.platform import E3
from repro.fabric.islands import IslandModel
from repro.fabric.topology import FarmTopology
from repro.neat.config import NEATConfig
from repro.telemetry import (
    MetricsRegistry,
    TelemetrySession,
    Tracer,
    get_metrics,
    get_tracer,
    set_metrics,
    set_tracer,
    summarize_trace,
    write_trace_jsonl,
)


class TestSessionLifecycle:
    def test_install_uninstall_restores_previous(self):
        outer_tracer, outer_metrics = Tracer(), MetricsRegistry()
        set_tracer(outer_tracer)
        set_metrics(outer_metrics)
        try:
            session = TelemetrySession()
            with session:
                assert get_tracer() is session.tracer
                assert get_metrics() is session.metrics
                assert session.installed
            assert get_tracer() is outer_tracer
            assert get_metrics() is outer_metrics
            assert not session.installed
        finally:
            set_tracer(None)
            set_metrics(None)

    def test_install_is_idempotent(self):
        session = TelemetrySession()
        session.install()
        session.install()  # second install must not clobber the saved state
        session.uninstall()
        assert get_tracer() is None
        assert get_metrics() is None

    def test_nested_sessions_restore_in_lifo_order(self):
        outer, inner = TelemetrySession(), TelemetrySession()
        outer.install()
        inner.install()
        assert get_tracer() is inner.tracer
        inner.uninstall()
        assert get_tracer() is outer.tracer
        assert get_metrics() is outer.metrics
        outer.uninstall()
        assert get_tracer() is None
        assert get_metrics() is None

    def test_out_of_order_teardown_does_not_resurrect(self):
        """Regression: uninstalling sessions in non-LIFO order used to
        re-install the inner session's (dead) tracer when the outer one
        left, leaking spans from later work into a closed session."""
        outer, inner = TelemetrySession(), TelemetrySession()
        outer.install()
        inner.install()
        # non-LIFO: the *outer* session leaves first
        outer.uninstall()
        # the live inner session must stay active, not be clobbered
        assert get_tracer() is inner.tracer
        assert get_metrics() is inner.metrics
        inner.uninstall()
        # ...and the fully-unwound state is clean, not outer's tracer
        assert get_tracer() is None
        assert get_metrics() is None

    def test_out_of_order_teardown_three_deep(self):
        a, b, c = (TelemetrySession() for _ in range(3))
        a.install()
        b.install()
        c.install()
        b.uninstall()  # pull the middle out
        assert get_tracer() is c.tracer
        c.uninstall()
        assert get_tracer() is a.tracer
        a.uninstall()
        assert get_tracer() is None
        assert get_metrics() is None

    def test_sessions_are_thread_local(self):
        import threading

        session = TelemetrySession()
        seen: dict[str, object] = {}

        def worker() -> None:
            seen["tracer"] = get_tracer()

        with session:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # a fresh thread starts from the default context: no tracer
        assert seen["tracer"] is None

    def test_export_writes_selected_sinks(self, tmp_path):
        session = TelemetrySession()
        with session:
            session.tracer.add_span("x", start=0.0, duration=1.0)
        written = session.export(
            trace_path=tmp_path / "t.jsonl",
            chrome_path=tmp_path / "t.chrome.json",
            metrics_path=tmp_path / "m.json",
        )
        assert set(written) == {"trace", "chrome", "metrics"}
        for path in written.values():
            assert Path(path).exists()


def _run(backend: str, telemetry: TelemetrySession | None = None, **kwargs):
    if backend == "islands":
        platform = IslandModel(
            "cartpole",
            FarmTopology(
                devices=2, islands=2, migration_interval=1, migration_size=1
            ),
            neat_config=NEATConfig(population_size=24),
            seed=3,
            telemetry=telemetry,
        )
    else:
        platform = E3(
            "cartpole",
            backend=backend,
            neat_config=NEATConfig(population_size=24),
            seed=3,
            telemetry=telemetry,
            **kwargs,
        )
    return platform.run(max_generations=3)


def _phase_counters(registry: MetricsRegistry) -> dict[str, float]:
    """The registry's ``phase.<name>_seconds`` counters keyed by phase."""
    return {
        name[len("phase.") : -len("_seconds")]: state["value"]
        for name, state in registry.snapshot().items()
        if name.startswith("phase.") and name.endswith("_seconds")
    }


def _assert_trace_matches_profiler(tmp_path: Path, backend: str) -> None:
    """Trace summary, run profile and registry counters are bit-equal."""
    session = TelemetrySession()
    result = _run(backend, telemetry=session)
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl(path, session.tracer, metrics=session.metrics)
    summary = summarize_trace(path)
    assert summary.phase_seconds == result.profiler.phases
    assert _phase_counters(session.metrics) == result.profiler.phases
    assert summary.phase_fractions() == result.profiler.fractions()


class TestPlatformIntegration:
    def test_inax_run_produces_expected_spans(self):
        session = TelemetrySession()
        result = _run("inax", telemetry=session)
        names = {s.name for s in session.tracer.spans}
        for expected in (
            "phase.evaluate",
            "phase.speciate",
            "phase.reproduce",
            "backend.evaluate",
            "pu.setup",
            "pu.compute",
            "inax.wave",
        ):
            assert expected in names, expected
        # device spans landed on per-PU tracks
        tracks = {s.track for s in session.tracer.spans}
        assert any(t.startswith("pu") for t in tracks)
        assert result.telemetry is session
        assert not session.installed  # run() uninstalled it

    def test_phase_timer_matches_profiler_exactly(self):
        """The registry's phase counters are the run's profile."""
        session = TelemetrySession()
        result = _run("cpu", telemetry=session)
        counters = _phase_counters(session.metrics)
        assert counters == result.profiler.phases
        total = sum(counters.values())
        assert {k: v / total for k, v in counters.items()} == (
            result.profiler.fractions()
        )

    def test_trace_summary_fractions_match_profiler(self, tmp_path):
        """Acceptance: one clock reading per phase boundary, so the
        exported trace, the run's profiler and the registry counters
        agree bit for bit."""
        _assert_trace_matches_profiler(tmp_path, "cpu-compiled")

    @pytest.mark.parametrize("backend", ["cpu", "inax", "islands"])
    def test_trace_summary_matches_profiler_on_every_backend(
        self, tmp_path, backend
    ):
        _assert_trace_matches_profiler(tmp_path, backend)

    def test_ambient_session_receives_phase_counters(self):
        """A run given no ``telemetry=`` inside an installed session
        feeds that session's counters as well as its spans."""
        session = TelemetrySession()
        with session:
            result = _run("cpu")
        spans = session.tracer.seconds_by_name("phase.")
        assert set(spans) == {f"phase.{p}" for p in result.profiler.phases}
        assert (
            session.metrics.counter("phase.evaluate_seconds").value
            == spans["phase.evaluate"]
        )
        assert _phase_counters(session.metrics) == result.profiler.phases

    def test_metrics_cover_episodes_and_cache(self):
        session = TelemetrySession()
        _run("cpu-compiled", telemetry=session)
        snapshot = session.metrics.snapshot()
        assert snapshot["episode.steps"]["count"] > 0
        assert snapshot["rollout.wave_size"]["count"] > 0
        assert "compile.cache.hits" in snapshot
        assert snapshot["neat.generations"]["value"] == 3

    def test_worker_shards_ship_telemetry(self):
        session = TelemetrySession()
        _run("cpu-compiled", telemetry=session, workers=2)
        snapshot = session.metrics.snapshot()
        assert snapshot["shard.evaluate_seconds"]["value"] > 0
        assert snapshot["shard.genomes"]["count"] > 0
        # worker-side histograms merged back into the parent registry
        assert snapshot["episode.steps"]["count"] > 0
        assert snapshot["rollout.wave_size"]["count"] > 0

    def test_telemetry_does_not_change_evolution(self):
        """Acceptance: identical fitness trajectory with telemetry on."""
        bare = _run("cpu-compiled")
        traced = _run("cpu-compiled", telemetry=TelemetrySession())
        assert [s.best_fitness for s in bare.history] == [
            s.best_fitness for s in traced.history
        ]
        assert [s.mean_fitness for s in bare.history] == [
            s.mean_fitness for s in traced.history
        ]
        assert bare.best_fitness == traced.best_fitness

    def test_globals_clean_after_run(self):
        _run("cpu", telemetry=TelemetrySession())
        assert get_tracer() is None
        assert get_metrics() is None
