"""Guard: disabled telemetry costs < 2% on the cpu-compiled hot path.

The instrumentation contract (``src/repro/telemetry``) is that every
disabled call site is one global ``None`` check — ``span()`` returns a
shared no-op context manager, metric sites skip entirely.  This bench
keeps that honest two ways:

1. **micro**: measure the per-call cost of the disabled ``span()``
   helper and the ``get_metrics()`` guard directly;
2. **macro**: run a capped cpu-compiled CartPole evolution with telemetry
   off, count how many instrumented regions the same run *would* have
   recorded (by re-running with a tracer installed), and bound the
   estimated total instrumentation cost against the run's wall time.

The estimate approach is deliberately conservative and noise-immune:
an A/B wall-clock diff of two full runs is dominated by scheduler
jitter at this scale, while per-call-cost x call-count is a stable
upper bound on what the disabled sites can possibly add.
"""

from __future__ import annotations

import time
import timeit

from benchmarks.conftest import write_output
from repro.core.platform import E3
from repro.neat.config import NEATConfig
from repro.telemetry import TelemetrySession, get_metrics, span

POPULATION = 40
GENERATIONS = 4
MAX_DISABLED_OVERHEAD = 0.02  # the ISSUE's < 2% acceptance bound


def _run(telemetry: TelemetrySession | None = None):
    platform = E3(
        "cartpole",
        backend="cpu-compiled",
        neat_config=NEATConfig(population_size=POPULATION),
        seed=11,
        telemetry=telemetry,
    )
    t0 = time.perf_counter()
    result = platform.run(max_generations=GENERATIONS)
    return result, time.perf_counter() - t0


def _per_call_costs() -> tuple[float, float]:
    """Seconds per disabled span() call and per get_metrics() check."""
    loops = 200_000
    span_cost = timeit.timeit(lambda: span("x"), number=loops) / loops
    guard_cost = (
        timeit.timeit(lambda: get_metrics() is None, number=loops) / loops
    )
    return span_cost, guard_cost


def test_disabled_telemetry_overhead_under_two_percent():
    assert get_metrics() is None, "telemetry leaked in from another test"

    # macro run with telemetry off: the protected baseline
    _, bare_seconds = _run()

    # the same run traced, to count the instrumented regions it crosses
    session = TelemetrySession()
    traced_result, _ = _run(telemetry=session)
    region_count = len(session.tracer.spans) + session.tracer.dropped
    metric_sites = sum(
        state["count"] if state["kind"] == "histogram" else 1
        for state in session.metrics.snapshot().values()
    )

    span_cost, guard_cost = _per_call_costs()
    estimated = region_count * span_cost + metric_sites * guard_cost
    fraction = estimated / bare_seconds

    write_output(
        "telemetry_overhead",
        "\n".join(
            [
                "disabled-telemetry overhead guard (cpu-compiled cartpole, "
                f"pop {POPULATION}, {GENERATIONS} gens)",
                f"bare run:            {bare_seconds * 1e3:8.1f} ms",
                f"instrumented regions:{region_count:8d} spans",
                f"metric touch sites:  {metric_sites:8d}",
                f"span() disabled:     {span_cost * 1e9:8.1f} ns/call",
                f"metrics guard:       {guard_cost * 1e9:8.1f} ns/check",
                f"estimated overhead:  {estimated * 1e6:8.1f} us "
                f"({fraction * 100:.4f}% of run)",
            ]
        ),
    )

    assert traced_result.generations == GENERATIONS or traced_result.solved
    assert fraction < MAX_DISABLED_OVERHEAD
    # the per-call fast path itself must stay sub-microsecond, or the
    # estimate above stops being the right model
    assert span_cost < 1e-6
    assert guard_cost < 1e-6
