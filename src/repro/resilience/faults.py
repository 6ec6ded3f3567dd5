"""Deterministic, seeded fault injection: the chaos layer's source of truth.

The resilience contract is *replayable chaos*: every injected fault is
a pure function of ``(plan seed, fault kind, site string)``, where the
site string names the exact place and attempt the fault could fire
(``gen=3|shard=1|attempt=0``, ``wave=2|step=17|slot=4``).  No injector
keeps RNG state, so

* the same :class:`FaultPlan` replayed over the same run produces the
  same fault event log, byte for byte;
* a retried shard or re-run wave gets a *fresh* draw (the attempt index
  is part of the site), so retries can succeed;
* shard placement, worker count, and wall-clock never influence what
  fires.

Faults that need randomness beyond fire/no-fire (which bit to flip,
which buffer element to corrupt) get a dedicated ``numpy`` generator
from :meth:`FaultPlan.rng_for`, seeded from the same hash stream.

Fault kinds
-----------

===========================  ====================================================
kind                         effect
===========================  ====================================================
``worker.crash``             shard worker calls ``os._exit`` mid-task
``worker.hang``              shard worker sleeps past the shard watchdog
``worker.error``             shard worker raises :class:`InjectedWorkerError`
``inax.weight_bitflip``      one bit flips in a PU's loaded weight buffer
``inax.value_bitflip``       one bit flips in a step's input value buffer
``inax.pu_stall``            one PU stalls for ``param`` extra cycles
``inax.wedge``               the device wedges; the wave raises :class:`DeviceFault`
``dma.input_drop``           an input DMA transfer drops and is re-sent
``dma.output_corrupt``       one bit flips in a step's DMA'd output
``env.obs_nan``              env observation element becomes NaN
``env.obs_inf``              env observation element becomes ±inf
``env.reward_nan``           env step reward becomes NaN
``fabric.device_drop``       a farm device misses a heartbeat probe outright
``fabric.heartbeat_delay``   a farm device answers its probe late (cycle penalty)
``fabric.migration_corrupt`` one island-migration edge is dropped (skip-and-log)
===========================  ====================================================
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro.telemetry import get_metrics, get_tracer

__all__ = [
    "WORKER_CRASH",
    "WORKER_HANG",
    "WORKER_ERROR",
    "WEIGHT_BITFLIP",
    "VALUE_BITFLIP",
    "PU_STALL",
    "DEVICE_WEDGE",
    "DMA_INPUT_DROP",
    "DMA_OUTPUT_CORRUPT",
    "ENV_OBS_NAN",
    "ENV_OBS_INF",
    "ENV_REWARD_NAN",
    "DEVICE_DROP",
    "HEARTBEAT_DELAY",
    "MIGRATION_CORRUPT",
    "KNOWN_KINDS",
    "WORKER_KINDS",
    "DEVICE_KINDS",
    "ENV_KINDS",
    "FABRIC_KINDS",
    "DeviceFault",
    "InjectedWorkerError",
    "FaultSpec",
    "FaultPlan",
    "ResilienceEvent",
    "emit_event",
    "flip_float64_bit",
    "maybe_fail_worker",
]

# ------------------------------------------------------------- fault kinds
WORKER_CRASH = "worker.crash"
WORKER_HANG = "worker.hang"
WORKER_ERROR = "worker.error"
WEIGHT_BITFLIP = "inax.weight_bitflip"
VALUE_BITFLIP = "inax.value_bitflip"
PU_STALL = "inax.pu_stall"
DEVICE_WEDGE = "inax.wedge"
DMA_INPUT_DROP = "dma.input_drop"
DMA_OUTPUT_CORRUPT = "dma.output_corrupt"
ENV_OBS_NAN = "env.obs_nan"
ENV_OBS_INF = "env.obs_inf"
ENV_REWARD_NAN = "env.reward_nan"
DEVICE_DROP = "fabric.device_drop"
HEARTBEAT_DELAY = "fabric.heartbeat_delay"
MIGRATION_CORRUPT = "fabric.migration_corrupt"

#: kinds that target cpu-compiled worker processes (detected by supervision)
WORKER_KINDS = (WORKER_CRASH, WORKER_HANG, WORKER_ERROR)
#: kinds that target the INAX device (handled by per-wave fallback)
DEVICE_KINDS = (
    WEIGHT_BITFLIP,
    VALUE_BITFLIP,
    PU_STALL,
    DEVICE_WEDGE,
    DMA_INPUT_DROP,
    DMA_OUTPUT_CORRUPT,
)
#: kinds that target environment observations/rewards (quarantine path)
ENV_KINDS = (ENV_OBS_NAN, ENV_OBS_INF, ENV_REWARD_NAN)
#: kinds that target the device farm (handled by the fabric supervisor)
FABRIC_KINDS = (DEVICE_DROP, HEARTBEAT_DELAY, MIGRATION_CORRUPT)
KNOWN_KINDS = WORKER_KINDS + DEVICE_KINDS + ENV_KINDS + FABRIC_KINDS

#: default sleep for ``worker.hang`` when the spec carries no param —
#: long enough that only the shard watchdog can end it
_DEFAULT_HANG_SECONDS = 3600.0
#: exit status for ``worker.crash`` (distinguishable from signal deaths)
WORKER_CRASH_EXIT_CODE = 17


class DeviceFault(RuntimeError):
    """The INAX device hit an (injected or real) unrecoverable fault."""


class InjectedWorkerError(RuntimeError):
    """A ``worker.error`` fault fired inside a cpu-compiled worker shard."""


# ------------------------------------------------------------- bit flipping
def flip_float64_bit(value: float, bit: int) -> float:
    """Flip one bit of a float64's IEEE-754 representation."""
    if not 0 <= bit < 64:
        raise ValueError(f"bit must be in [0, 64), got {bit}")
    (as_int,) = struct.unpack("<Q", struct.pack("<d", float(value)))
    (flipped,) = struct.unpack("<d", struct.pack("<Q", as_int ^ (1 << bit)))
    return flipped


# ---------------------------------------------------------------- telemetry
def emit_event(kind: str, site: str) -> None:
    """Publish one resilience event to the installed telemetry sinks.

    Counter ``resilience.<kind>`` increments and a zero-duration marker
    span lands on the host track, so chaos runs are auditable from the
    exported trace alone.  No-op when telemetry is disabled.
    """
    metrics = get_metrics()
    if metrics is not None:
        metrics.counter(f"resilience.{kind}").inc()
    tracer = get_tracer()
    if tracer is not None:
        tracer.add_span(
            f"resilience.{kind}", start=tracer.now(), duration=0.0, site=site
        )


# -------------------------------------------------------------------- events
@dataclass
class ResilienceEvent:
    """One structured fault/recovery occurrence (injected or reactive)."""

    kind: str
    #: where it happened, e.g. ``gen=3|shard=1|attempt=0``
    site: str
    details: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "site": self.site, "details": dict(self.details)}


# --------------------------------------------------------------------- specs
@dataclass(frozen=True)
class FaultSpec:
    """One fault kind armed at a probability, with an optional parameter.

    ``param`` meaning depends on the kind: stall cycles for
    ``inax.pu_stall``, hang seconds for ``worker.hang``; ignored
    elsewhere.
    """

    kind: str
    probability: float
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KNOWN_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(KNOWN_KINDS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability for {self.kind!r} must be in [0, 1], "
                f"got {self.probability}"
            )


class FaultPlan:
    """A seeded, replayable set of armed faults.

    Picklable (it crosses the shard worker-initializer boundary)
    and stateless in its draws: :meth:`fires` and :meth:`rng_for` hash
    ``(seed, kind, site)`` — they never mutate the plan, so the order
    (or process) in which sites are probed cannot change any outcome.
    :attr:`events` accumulates what actually fired *in this process*.
    """

    def __init__(self, seed: int = 0, specs: Iterable[FaultSpec] = ()) -> None:
        self.seed = int(seed)
        self.specs: dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.kind in self.specs:
                raise ValueError(f"duplicate fault kind {spec.kind!r}")
            self.specs[spec.kind] = spec
        self.events: list[ResilienceEvent] = []

    # ------------------------------------------------------------- queries
    def spec(self, kind: str) -> FaultSpec | None:
        return self.specs.get(kind)

    def has(self, *kinds: str) -> bool:
        """True when any of ``kinds`` is armed with probability > 0."""
        return any(
            kind in self.specs and self.specs[kind].probability > 0.0
            for kind in kinds
        )

    def _draw(self, kind: str, site: str) -> float:
        digest = hashlib.sha256(f"{self.seed}|{kind}|{site}".encode()).digest()
        return int.from_bytes(digest[:8], "little") / 2.0**64

    def fires(self, kind: str, site: str) -> bool:
        """Deterministic Bernoulli draw: does ``kind`` fire at ``site``?"""
        spec = self.specs.get(kind)
        if spec is None:
            return False
        if spec.probability >= 1.0:
            return True
        if spec.probability <= 0.0:
            return False
        return self._draw(kind, site) < spec.probability

    def rng_for(self, kind: str, site: str) -> np.random.Generator:
        """Site-keyed generator for faults that need more than one draw."""
        digest = hashlib.sha256(f"{self.seed}|rng|{kind}|{site}".encode()).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    # ----------------------------------------------------------- recording
    def record(self, kind: str, site: str, **details: Any) -> ResilienceEvent:
        """Append a structured event and publish it to telemetry."""
        event = ResilienceEvent(kind=kind, site=site, details=dict(details))
        self.events.append(event)
        emit_event(kind, site)
        return event

    def event_log(self) -> list[dict[str, Any]]:
        """The events recorded in this process, as comparable dicts."""
        return [event.to_dict() for event in self.events]

    # --------------------------------------------------------- (de)serialize
    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": [
                {"kind": s.kind, "probability": s.probability, "param": s.param}
                for s in self.specs.values()
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FaultPlan":
        specs = [
            FaultSpec(
                kind=item["kind"],
                probability=float(item["probability"]),
                param=float(item.get("param", 0.0)),
            )
            for item in payload.get("faults", [])
        ]
        return cls(seed=int(payload.get("seed", 0)), specs=specs)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the CLI grammar: ``seed=7,worker.crash@0.25,inax.pu_stall@0.1:500``.

        Comma-separated terms; ``seed=N`` sets the plan seed and every
        other term is ``kind@probability`` or ``kind@probability:param``.
        """
        seed = 0
        specs: list[FaultSpec] = []
        for raw in text.split(","):
            term = raw.strip()
            if not term:
                continue
            if term.startswith("seed="):
                seed = int(term[len("seed="):])
                continue
            kind, sep, rest = term.partition("@")
            if not sep or not rest:
                raise ValueError(
                    f"bad fault term {term!r}: expected kind@probability[:param]"
                )
            prob_text, _, param_text = rest.partition(":")
            specs.append(
                FaultSpec(
                    kind=kind.strip(),
                    probability=float(prob_text),
                    param=float(param_text) if param_text else 0.0,
                )
            )
        return cls(seed=seed, specs=specs)

    @classmethod
    def load(cls, source: "str | Path") -> "FaultPlan":
        """Build a plan from a JSON file path or an inline spec string."""
        path = Path(source)
        try:
            is_file = path.is_file()
        except OSError:
            is_file = False
        if is_file:
            return cls.from_dict(json.loads(path.read_text()))
        return cls.parse(str(source))

    def __repr__(self) -> str:
        armed = ", ".join(
            f"{s.kind}@{s.probability:g}" for s in self.specs.values()
        )
        return f"FaultPlan(seed={self.seed}, [{armed}])"


# ------------------------------------------------------------ worker faults
def maybe_fail_worker(plan: "FaultPlan | None", site: str) -> None:
    """Fire any armed worker fault at ``site`` (called inside a shard).

    ``worker.crash`` hard-exits the process (the pool loses the task and
    the parent's watchdog times out), ``worker.hang`` sleeps past the
    watchdog, ``worker.error`` raises so the parent sees the exception
    through ``AsyncResult.get``.
    """
    if plan is None:
        return
    if plan.fires(WORKER_CRASH, site):
        os._exit(WORKER_CRASH_EXIT_CODE)
    if plan.fires(WORKER_HANG, site):
        spec = plan.specs[WORKER_HANG]
        time.sleep(spec.param if spec.param > 0 else _DEFAULT_HANG_SECONDS)
    if plan.fires(WORKER_ERROR, site):
        raise InjectedWorkerError(f"injected worker.error at {site}")
