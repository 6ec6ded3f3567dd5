"""The INAX device farm: wave placement and per-device health.

The ``inax`` backend evaluates on ``devices`` simulated INAX devices (a
single device is a farm of one).  Two pieces here decide where work
lands and which devices may take it:

* :func:`assign_waves` LPT-assigns the waves
  :func:`~repro.inax.pipeline.pack_waves` packed (exactly as on one
  device — the farm never changes wave composition, only wave
  *placement*) onto the currently-alive devices.  It is a pure function
  of its inputs, so re-running it over the survivor set after an
  eviction *is* the deterministic re-pack rule;
* :class:`FabricSupervisor` generalizes the shard supervisor's ladder
  to the device domain, sharing its frozen
  :class:`~repro.resilience.supervisor.SupervisorConfig`:

  - **heartbeat probes** before every wave-episode dispatch — a
    ``fabric.device_drop`` draw is a missed heartbeat, a
    ``fabric.heartbeat_delay`` draw answers late and burns penalty
    cycles that grow with the miss count (``backoff_factor``, the
    cycle-domain analogue of shard retry backoff);
  - **eviction** after ``max_retries`` consecutive misses (or on a hard
    :class:`~repro.resilience.faults.DeviceFault` mid-wave) — except the
    last alive device, which is never evicted (the refusal is recorded
    and the run continues degraded rather than dying);
  - **probationary re-admission** — an evicted device is re-probed after
    ``probation_generations`` generations; a clean probe re-admits it on
    probation, and surviving one full generation restores it to healthy.

Every transition draws through the seeded
:class:`~repro.resilience.injectors.DeviceFaultInjector` at a
generation-scoped site and is recorded as a structured event, so the
whole health history — and with it every placement — is a pure
function of ``(plan seed, farm size)`` and replays byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.resilience.faults import ResilienceEvent, emit_event
from repro.resilience.injectors import DeviceFaultInjector
from repro.resilience.supervisor import SupervisorConfig

__all__ = ["DeviceState", "FabricSupervisor", "assign_waves"]

#: device health states (the eviction ladder's rungs)
HEALTHY = "healthy"
PROBATION = "probation"
EVICTED = "evicted"


@dataclass
class DeviceState:
    """One farm device's health, as the supervisor tracks it."""

    device: int
    status: str = HEALTHY
    #: consecutive missed heartbeats (reset by a clean probe)
    misses: int = 0
    #: cycles this device lost to late heartbeats this generation
    penalty_cycles: int = 0
    #: generation the device was last evicted at (None = never)
    evicted_at: int | None = None


class FabricSupervisor:
    """Own per-device health state; every decision is seeded + recorded."""

    def __init__(
        self,
        num_devices: int,
        config: SupervisorConfig | None = None,
        injector: DeviceFaultInjector | None = None,
    ) -> None:
        if num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {num_devices}")
        self.num_devices = num_devices
        self.config = config if config is not None else SupervisorConfig()
        #: farm-level fault injector (``fabric.*`` kinds); ``None``
        #: keeps every probe on the zero-cost always-healthy path
        self.injector = injector
        self.states = [DeviceState(device=d) for d in range(num_devices)]
        self.events: list[ResilienceEvent] = []
        # cumulative counters (reporter columns / detector inputs)
        self.device_evictions = 0
        self.device_readmissions = 0
        self.repacked_waves = 0
        # per-generation probe counters (the dispatch index in fault sites)
        self._dispatch = [0] * num_devices

    # ------------------------------------------------------------ queries
    def alive(self) -> list[int]:
        """Devices currently accepting work (healthy + probation)."""
        return [s.device for s in self.states if s.status != EVICTED]

    def penalty_cycles(self, device: int) -> int:
        """Heartbeat-penalty cycles ``device`` burned this generation."""
        return self.states[device].penalty_cycles

    def counters(self) -> dict[str, float]:
        """Cumulative fabric counters (reporter columns)."""
        return {
            "devices_up": float(len(self.alive())),
            "device_evictions": float(self.device_evictions),
            "device_readmissions": float(self.device_readmissions),
            "repacked_waves": float(self.repacked_waves),
        }

    # ---------------------------------------------------------- recording
    def _record(self, kind: str, site: str, **details: Any) -> None:
        event = ResilienceEvent(kind=kind, site=site, details=dict(details))
        self.events.append(event)
        emit_event(kind, site)

    # ------------------------------------------------------------- ladder
    def begin_generation(self, generation: int) -> None:
        """Reset per-generation state; run probationary re-admissions."""
        self._dispatch = [0] * self.num_devices
        for state in self.states:
            state.penalty_cycles = 0
            if state.status == PROBATION:
                # survived a full generation on probation -> healthy
                state.status = HEALTHY
        for state in self.states:
            if state.status != EVICTED or state.evicted_at is None:
                continue
            if generation - state.evicted_at < self.config.probation_generations:
                continue
            drops = self.injector is not None and self.injector.device_drops(
                generation, state.device, "probe"
            )
            if drops:
                continue  # still wedged; re-probe next generation
            state.status = PROBATION
            state.misses = 0
            self.device_readmissions += 1
            self._record(
                "fabric.readmit",
                f"gen={generation}|device={state.device}",
                sat_out=generation - state.evicted_at,
            )

    def probe(self, generation: int, device: int) -> bool:
        """Heartbeat-probe ``device`` before a dispatch; False = evicted.

        A missed probe retries (with a fresh draw — the dispatch index
        advances) until the heartbeat answers or ``max_retries``
        consecutive misses evict the device.  Delay draws burn penalty
        cycles scaled by ``backoff_factor ** misses`` but keep the
        device alive; a clean answer resets the miss count.
        """
        state = self.states[device]
        if self.injector is None:
            return True
        while True:
            dispatch = self._dispatch[device]
            self._dispatch[device] += 1
            delay = self.injector.heartbeat_delay_cycles(
                generation,
                device,
                dispatch,
                state.misses,
                self.config.backoff_factor,
            )
            state.penalty_cycles += delay
            if not self.injector.device_drops(generation, device, dispatch):
                state.misses = 0
                return True
            state.misses += 1
            if state.misses > self.config.max_retries:
                return not self._evict(
                    generation, device, reason="heartbeat", misses=state.misses
                )

    def fail(self, generation: int, device: int, reason: str) -> bool:
        """Hard mid-wave failure; True when the device was evicted.

        False means the eviction was refused (last alive device) — the
        caller degrades on the same device instead.
        """
        return self._evict(generation, device, reason=reason)

    def _evict(
        self, generation: int, device: int, reason: str, **details: Any
    ) -> bool:
        state = self.states[device]
        if len(self.alive()) <= 1:
            # never evict the last alive device: a degraded farm beats
            # a dead one, and the refusal is auditable
            state.misses = 0
            self._record(
                "fabric.evict_refused",
                f"gen={generation}|device={device}",
                reason=reason,
                **details,
            )
            return False
        state.status = EVICTED
        state.evicted_at = generation
        self.device_evictions += 1
        self._record(
            "fabric.evict",
            f"gen={generation}|device={device}",
            reason=reason,
            **details,
        )
        return True


def assign_waves(
    costs: Sequence[float], alive: Sequence[int]
) -> dict[int, list[int]]:
    """LPT-assign wave ordinals onto the alive devices.

    The second scheduling level on top of ``pack_waves``: each wave
    (heaviest predicted cost first, ties by lower ordinal) goes to the
    least-loaded alive device (ties by lower device id).  Each device's
    list comes back in ordinal order, preserving the single-device
    dispatch order within a device.

    Pure function of ``(costs, alive)``: eviction re-packs by calling
    this again over the orphaned ordinals and the survivor set, so a
    replay reproduces every placement decision bit for bit.
    """
    devices = sorted(alive)
    if not devices:
        raise ValueError("assign_waves needs at least one alive device")
    load = {device: 0.0 for device in devices}
    queues: dict[int, list[int]] = {device: [] for device in devices}
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    for ordinal in order:
        target = min(devices, key=lambda d: (load[d], d))
        queues[target].append(ordinal)
        load[target] += costs[ordinal]
    for device in devices:
        queues[device].sort()
    return queues
