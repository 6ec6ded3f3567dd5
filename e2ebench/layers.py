"""Per-layer metrics from a traced run's spans.

Layers are named by the program's modules.  Times are busy seconds per
generation evaluated in the traced work; counts are per generation
too, so runs of different lengths compare directly.

=========  ==========================================================
layer      boundary the benchmark times
=========  ==========================================================
neat       ``PhaseProfiler`` phases of each run (stagnation, reproduce,
           speciate)
compile    ``CompileCache.get`` (lookup, including structure builds)
           and ``CompiledPopulationEvaluator(...)`` (parameter fill)
infer      the ``InferFn`` handed to ``run_lockstep`` (the compiled
           evaluator, or ``INAX.step`` on the device path)
inax       ``INAX.begin_wave`` + ``INAX.end_wave``
rollout    ``decode_action_batch`` and ``run_lockstep``'s own time
envs       ``Environment.reset`` / ``step`` through a timing proxy
pricing    ``schedule_generation``, ``compile_genome`` and ``price_run``
backend    ``EvaluationBackend.evaluate``'s own time (seeding, env
           construction, workload records)
=========  ==========================================================
"""

from __future__ import annotations

from repro.hw.calibration import ENV_STEP_SECONDS

from tracer import self_times

#: span name -> layer whose self time it is
SPAN_LAYERS = {
    "compile.lookup": "compile",
    "compile.build": "compile",
    "inax.begin_wave": "inax",
    "inax.end_wave": "inax",
    "rollout.lockstep": "rollout",
    "pricing.schedule": "pricing",
    "pricing.lower": "pricing",
    "backend.evaluate": "backend",
}

NEAT_PHASES = ("stagnation", "reproduce", "speciate")


def _aggregates(spans) -> dict[str, list]:
    totals: dict[str, list] = {}
    for record in spans:
        for name, (seconds, count) in record.aggregates.items():
            slot = totals.setdefault(name, [0.0, 0])
            slot[0] += seconds
            slot[1] += count
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracers, generations: int) -> tuple[dict, dict]:
    """``(metrics, detail)`` of the traced work: ``detail`` holds the
    per-env step statistics and each layer's share of the loop.

    ``generations`` is how many generations the traced work evaluated.
    """
    spans = [record for tracer in tracers for record in tracer.spans]
    own = self_times(spans)
    busy: dict[str, float] = {}
    self_by_layer: dict[str, float] = {}
    calls: dict[str, int] = {}
    loop_wall = 0.0
    for record in spans:
        busy[record.name] = busy.get(record.name, 0.0) + record.duration
        calls[record.name] = calls.get(record.name, 0) + 1
        layer = SPAN_LAYERS.get(record.name)
        if layer is not None:
            self_by_layer[layer] = (
                self_by_layer.get(layer, 0.0) + own[record.id]
            )
        if record.name == "loop":
            loop_wall += record.duration
    phases: dict[str, float] = {}
    counts: dict[str, int] = {}
    for tracer in tracers:
        for name, seconds in tracer.neat_phases.items():
            phases[name] = phases.get(name, 0.0) + seconds
        for name, n in tracer.counts.items():
            counts[name] = counts.get(name, 0) + n
    agg = _aggregates(spans)

    envs: dict[str, dict] = {}
    for name, (seconds, count) in agg.items():
        kind, _, env = name.partition(":")
        if kind in ("env.step", "env.reset"):
            entry = envs.setdefault(
                env, {"step_s": 0.0, "steps": 0, "reset_s": 0.0}
            )
            if kind == "env.step":
                entry["step_s"] += seconds
                entry["steps"] += count
            else:
                entry["reset_s"] += seconds
    for env, entry in envs.items():
        entry["step_us"] = _ratio(entry["step_s"], entry["steps"]) * 1e6
        entry["model_us"] = ENV_STEP_SECONDS[env] * 1e6
        entry["drift_x"] = _ratio(entry["step_us"], entry["model_us"])
    step_s = sum(e["step_s"] for e in envs.values())
    reset_s = sum(e["reset_s"] for e in envs.values())
    steps = sum(e["steps"] for e in envs.values())
    modeled_step_s = sum(
        e["steps"] * ENV_STEP_SECONDS[env] for env, e in envs.items()
    )
    infer_s, rows = agg.get("infer", (0.0, 0))
    decode_s, ticks = agg.get("decode", (0.0, 0))

    # the backend's own glue is reported (backend.self_s) but not
    # counted: coverage says how much of the loop the named layers explain
    neat_s = sum(phases.get(name, 0.0) for name in NEAT_PHASES)
    layer_self = (
        neat_s
        + sum(t for layer, t in self_by_layer.items() if layer != "backend")
        + infer_s
        + decode_s
        + step_s
        + reset_s
    )
    shares = {
        "neat": neat_s,
        "compile": self_by_layer.get("compile", 0.0),
        "infer": infer_s,
        "inax": self_by_layer.get("inax", 0.0),
        "rollout": self_by_layer.get("rollout", 0.0) + decode_s,
        "envs": step_s + reset_s,
        "pricing": self_by_layer.get("pricing", 0.0),
        "backend": self_by_layer.get("backend", 0.0),
    }
    shares = {k: _ratio(v, loop_wall) for k, v in shares.items()}
    per_gen = 1.0 / generations if generations else 0.0
    lookups = counts.get("compile.lookups", 0)
    metrics = {
        "neat.stagnation_s": phases.get("stagnation", 0.0) * per_gen,
        "neat.reproduce_s": phases.get("reproduce", 0.0) * per_gen,
        "neat.speciate_s": phases.get("speciate", 0.0) * per_gen,
        "compile.lookup_s": busy.get("compile.lookup", 0.0) * per_gen,
        "compile.build_s": busy.get("compile.build", 0.0) * per_gen,
        "compile.cache_hit_frac": _ratio(
            lookups - counts.get("compile.misses", 0), lookups
        ),
        "compile.shapes": counts.get("compile.misses", 0) * per_gen,
        "infer.s": infer_s * per_gen,
        "infer.rows": rows * per_gen,
        "infer.us_per_row": _ratio(infer_s, rows) * 1e6,
        "inax.wave_s": (
            busy.get("inax.begin_wave", 0.0) + busy.get("inax.end_wave", 0.0)
        )
        * per_gen,
        "inax.waves": calls.get("inax.begin_wave", 0) * per_gen,
        "rollout.decode_s": decode_s * per_gen,
        "rollout.self_s": self_by_layer.get("rollout", 0.0) * per_gen,
        "rollout.ticks": ticks * per_gen,
        "env.step_s": step_s * per_gen,
        "env.reset_s": reset_s * per_gen,
        "env.steps": steps * per_gen,
        "env.step_us": _ratio(step_s, steps) * 1e6,
        "env.model_drift_x": _ratio(step_s, modeled_step_s),
        "pricing.schedule_s": busy.get("pricing.schedule", 0.0) * per_gen,
        "pricing.lower_s": busy.get("pricing.lower", 0.0) * per_gen,
        "backend.self_s": self_by_layer.get("backend", 0.0) * per_gen,
        "trace.coverage_frac": _ratio(layer_self, loop_wall),
    }
    return metrics, {"envs": envs, "layer_shares": shares}
