"""The post-mortem doctor (the offline half of the watchtower).

``repro doctor <trace.jsonl>`` replays an exported trace through the
same detector registry the live monitor runs, and prints a diagnosis:
the health verdict with every event, plus per-phase / per-PU hot-spot
attribution extending :func:`repro.telemetry.export.summarize_trace`.

Sample recovery prefers the monitor's ``health.sample`` marker spans
(bit-exact round trip: the doctor then reproduces the live run's
``health.json`` byte for byte).  Traces recorded *without* ``--health``
still get a partial diagnosis: per-generation samples are
reconstructed from ``phase.evaluate`` spans (generation, population),
``resilience.*`` marker spans (quarantines, fallback waves, shard
churn, skipped migrations keyed by the ``gen=N`` site convention) and
the INAX farm's ``fabric.gen`` markers (devices up, evictions,
re-admissions, re-packed waves — cumulative snapshots carried as span
attrs) — fitness/cache/INAX detectors simply see ``None`` for the
fields a bare trace cannot recover, and skip.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.obs.detectors import (
    GenerationSample,
    HealthConfig,
    evaluate_samples,
)
from repro.obs.events import HealthReport
from repro.obs.monitor import SAMPLE_SPAN, run_attribution
from repro.telemetry.export import (
    TraceSummary,
    read_trace_jsonl,
    summarize_trace,
)

__all__ = [
    "Diagnosis",
    "samples_from_trace",
    "diagnose",
    "format_diagnosis",
]

_GEN_IN_SITE = re.compile(r"\bgen=(\d+)\b")

#: resilience marker span -> cumulative GenerationSample field
_RESILIENCE_FIELDS = {
    "resilience.quarantine.nonfinite": "quarantined",
    "resilience.fallback.wave": "fallback_waves",
    "resilience.shard.timeout": "shard_retries",
    "resilience.shard.error": "shard_retries",
    "resilience.shard.degraded": "shard_degraded",
    "resilience.fabric.migration_skip": "migrations_skipped",
}

#: ``fabric.gen`` span attrs copied verbatim (already cumulative)
_FABRIC_GEN_FIELDS = (
    "devices_up",
    "device_evictions",
    "device_readmissions",
    "repacked_waves",
)


@dataclass
class Diagnosis:
    """Everything ``repro doctor`` prints, as data."""

    report: HealthReport
    summary: TraceSummary
    #: hot-spot rows: {"kind": "phase"|"pu", "name", "value", "fraction"}
    hotspots: list[dict[str, Any]] = field(default_factory=list)
    #: True when samples were reconstructed from bare spans (no
    #: ``health.sample`` markers in the trace — partial fidelity)
    reconstructed: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "report": self.report.to_dict(),
            "hotspots": [dict(row) for row in self.hotspots],
            "reconstructed": self.reconstructed,
        }


def samples_from_trace(
    rows: Iterable[dict[str, Any]],
) -> tuple[list[GenerationSample], bool]:
    """Recover the per-generation sample stream from trace rows.

    Returns ``(samples, reconstructed)`` — ``reconstructed`` is False
    when the trace carried the monitor's own ``health.sample`` markers
    (exact replay) and True when the stream had to be rebuilt from
    ``phase.evaluate`` / ``resilience.*`` spans (partial replay).
    """
    rows = list(rows)
    exact: list[GenerationSample] = []
    for row in rows:
        if row.get("type") == "span" and row.get("name") == SAMPLE_SPAN:
            exact.append(GenerationSample.from_attrs(row.get("attrs", {})))
    if exact:
        # trace row order is emission order, but sort by generation so
        # a filtered / concatenated trace still replays deterministically
        exact.sort(key=lambda s: s.generation)
        return exact, False

    # ---- partial reconstruction from a bare (pre-watchtower) trace
    generations: dict[int, dict[str, Any]] = {}
    per_gen_counts: dict[int, dict[str, float]] = {}
    for row in rows:
        if row.get("type") != "span":
            continue
        name = row.get("name", "")
        attrs = row.get("attrs", {})
        if name == "phase.evaluate" and "generation" in attrs:
            gen = int(attrs["generation"])
            entry = generations.setdefault(gen, {"generation": gen})
            if "population" in attrs:
                entry["population_size"] = int(attrs["population"])
        elif name == "fabric.gen" and "generation" in attrs:
            gen = int(attrs["generation"])
            entry = generations.setdefault(gen, {"generation": gen})
            for key in _FABRIC_GEN_FIELDS:
                if key in attrs:
                    entry[key] = float(attrs[key])
        elif name in _RESILIENCE_FIELDS:
            match = _GEN_IN_SITE.search(str(attrs.get("site", "")))
            if match is None:
                continue
            gen = int(match.group(1))
            counts = per_gen_counts.setdefault(gen, {})
            key = _RESILIENCE_FIELDS[name]
            counts[key] = counts.get(key, 0.0) + 1.0
    if not generations and not per_gen_counts:
        return [], True
    # resilience fields are cumulative in live samples; accumulate the
    # per-generation marker counts the same way
    running = {"quarantined": 0.0, "fallback_waves": 0.0,
               "shard_retries": 0.0, "shard_degraded": 0.0,
               "migrations_skipped": 0.0}
    samples: list[GenerationSample] = []
    all_gens = sorted(set(generations) | set(per_gen_counts))
    for gen in all_gens:
        entry = generations.get(gen, {"generation": gen})
        counts = per_gen_counts.get(gen, {})
        for key in running:
            running[key] += counts.get(key, 0.0)
            if running[key] > 0:
                entry[key] = running[key]
        samples.append(GenerationSample(**entry))
    return samples, True


def _hotspots(summary: TraceSummary) -> list[dict[str, Any]]:
    """Hot-spot attribution rows, largest share first."""
    rows: list[dict[str, Any]] = []
    fractions = summary.phase_fractions()
    for phase, seconds in sorted(
        summary.phase_seconds.items(), key=lambda kv: (-kv[1], kv[0])
    ):
        rows.append(
            {
                "kind": "phase",
                "name": phase,
                "value": seconds,
                "fraction": fractions[phase],
            }
        )
    total_pu = 0.0
    for pu in summary.pu_cycles.values():
        total_pu += pu["setup"] + pu["compute"] + pu["drain"]
    for track, pu in sorted(
        summary.pu_cycles.items(),
        key=lambda kv: (
            -(kv[1]["setup"] + kv[1]["compute"] + kv[1]["drain"]),
            kv[0],
        ),
    ):
        cycles = pu["setup"] + pu["compute"] + pu["drain"]
        rows.append(
            {
                "kind": "pu",
                "name": track,
                "value": cycles,
                "fraction": cycles / total_pu if total_pu > 0 else 0.0,
                "utilization": summary.pu_utilization(track),
            }
        )
    return rows


def diagnose(
    path_or_rows: str | Path | Iterable[dict[str, Any]],
    config: HealthConfig | None = None,
    names: list[str] | None = None,
) -> Diagnosis:
    """Replay a trace through the detector registry.

    Raises :class:`ValueError` when the trace yields no samples at all
    (nothing to diagnose — not even reconstructable spans).
    """
    if isinstance(path_or_rows, (str, Path)):
        rows = read_trace_jsonl(path_or_rows)
    else:
        rows = list(path_or_rows)
    samples, reconstructed = samples_from_trace(rows)
    if not samples:
        raise ValueError(
            "trace contains no health.sample markers and no "
            "reconstructable phase/resilience spans"
        )
    config = config if config is not None else HealthConfig()
    events, detectors, count = evaluate_samples(samples, config, names)
    summary = summarize_trace(rows)
    report = HealthReport.build(
        events=events,
        generations=count,
        detectors=detectors,
        config=config.to_dict(),
        run=run_attribution(summary.manifest),
    )
    return Diagnosis(
        report=report,
        summary=summary,
        hotspots=_hotspots(summary),
        reconstructed=reconstructed,
    )


_SEVERITY_MARK = {"info": "·", "warning": "!", "critical": "✗"}


def format_diagnosis(diagnosis: Diagnosis) -> str:
    """Render the diagnosis as plain text (what ``repro doctor`` prints)."""
    from repro.core.results import format_table

    report = diagnosis.report
    blocks: list[str] = []
    run = report.run
    if run:
        blocks.append(
            f"run: command={run.get('command') or '?'} "
            f"env={run.get('env') or '?'} "
            f"backend={run.get('backend') or '?'} seed={run.get('seed')}"
        )
    counts = report.severity_counts()
    blocks.append(
        f"verdict: {report.verdict.upper()} over {report.generations} "
        f"generation(s) — {counts['critical']} critical, "
        f"{counts['warning']} warning, {counts['info']} info"
        + ("  [reconstructed from bare trace]" if diagnosis.reconstructed
           else "")
    )
    if report.events:
        rows = [
            [
                _SEVERITY_MARK.get(event.severity, "?"),
                event.severity,
                event.detector,
                event.site,
                event.message,
            ]
            for event in report.events
        ]
        blocks.append(
            format_table(
                ["", "severity", "detector", "site", "finding"],
                rows,
                title="health events",
            )
        )
    else:
        blocks.append("no health events — all detectors quiet")
    phase_rows = [
        [row["name"], f"{row['value']:.4f}", f"{row['fraction'] * 100:.1f}%"]
        for row in diagnosis.hotspots
        if row["kind"] == "phase"
    ]
    if phase_rows:
        blocks.append(
            format_table(
                ["phase", "seconds", "share"],
                phase_rows,
                title="hot spots: host phases",
            )
        )
    pu_rows = [
        [
            row["name"],
            f"{row['value']:,.0f}",
            f"{row['fraction'] * 100:.1f}%",
            f"{row['utilization']:.3f}",
        ]
        for row in diagnosis.hotspots
        if row["kind"] == "pu"
    ]
    if pu_rows:
        blocks.append(
            format_table(
                ["PU", "cycles", "share", "U(PU)"],
                pu_rows,
                title="hot spots: INAX PUs",
            )
        )
    return "\n\n".join(blocks)
