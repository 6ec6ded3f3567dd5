"""Backend pool: leases evaluation backends to service jobs.

Building a backend is the expensive part of a small job — spawning a
worker pool, cold decode caches, environment construction.  The pool
keeps finished jobs' backends warm and leases them to later jobs with
the *same construction key* (environment, backend class, episode
count, worker count, and the full NEAT config), after
:meth:`~repro.core.backends.EvaluationBackend.reset_run_state` clears
everything a run accumulates.  Structural caches are content-keyed
and cannot change fitness bits, so a reused backend is **bit-identical
to a fresh one** — ``tests/serve/test_pool.py`` asserts exactly that —
it just skips the cold start.

``max_leases`` bounds how many backends exist at once (idle + active):
the admission-controlled queue decides *how many jobs* may run, the
pool decides *how much backend state* the process may hold.  Within
that bound every released backend stays idle for reuse, whatever its
key; only when a lease needs a new build and the pool is full does the
oldest idle backend (of any key) get closed to make room.
"""

from __future__ import annotations

import threading
from dataclasses import asdict
from typing import Any

from repro.core.backends import BACKENDS, EvaluationBackend, FastCPUBackend
from repro.core.platform import default_inax_config
from repro.envs.registry import make
from repro.neat.config import NEATConfig

__all__ = ["PoolExhausted", "BackendLease", "BackendPool"]


class PoolExhausted(RuntimeError):
    """All backend leases are taken (raise, never block, so the
    service's scheduler keeps control of waiting)."""


class BackendLease:
    """One job's exclusive hold on a pooled backend."""

    __slots__ = ("backend", "key", "_pool", "_released")

    def __init__(
        self,
        backend: EvaluationBackend,
        key: tuple[Any, ...],
        pool: "BackendPool",
    ) -> None:
        self.backend = backend
        self.key = key
        self._pool = pool
        self._released = False

    def release(self, discard: bool = False) -> None:
        """Return the backend to the pool (idempotent).

        ``discard`` drops it instead — the failed-job path, where the
        backend may hold arbitrary partial state.
        """
        if not self._released:
            self._released = True
            self._pool._release(self, discard=discard)


class BackendPool:
    """Bounded pool of reusable evaluation backends.

    Thread-safe (a lock around the idle map) so leases may be taken
    and released from worker threads as well as the event loop, though
    the service only does the latter.
    """

    def __init__(self, max_leases: int = 8) -> None:
        if max_leases < 1:
            raise ValueError("max_leases must be >= 1")
        self.max_leases = max_leases
        #: idle ``(key, backend)`` pairs, oldest release first
        self._idle: list[tuple[tuple[Any, ...], EvaluationBackend]] = []
        self._active = 0
        self._lock = threading.Lock()
        self.created = 0
        self.reused = 0
        self.discarded = 0

    # ------------------------------------------------------------ keying
    @staticmethod
    def lease_key(
        env_name: str,
        backend_name: str,
        neat_config: NEATConfig,
        episodes_per_genome: int,
        workers: int,
    ) -> tuple[Any, ...]:
        """Construction identity: two jobs with equal keys can share a
        (reset) backend instance.  The seed is deliberately excluded —
        ``reset_run_state`` rebinds it per lease."""
        fingerprint = repr(sorted(asdict(neat_config).items()))
        return (env_name, backend_name, episodes_per_genome, workers,
                fingerprint)

    # ------------------------------------------------------------ leasing
    def lease(
        self,
        env_name: str,
        backend_name: str,
        neat_config: NEATConfig,
        episodes_per_genome: int = 1,
        workers: int = 0,
        base_seed: int = 0,
    ) -> BackendLease:
        """Lease a backend, reusing an idle one when the key matches."""
        key = self.lease_key(
            env_name, backend_name, neat_config, episodes_per_genome, workers
        )
        evicted: EvaluationBackend | None = None
        with self._lock:
            if self._active >= self.max_leases:
                raise PoolExhausted(
                    f"all {self.max_leases} backend leases are taken"
                )
            self._active += 1
            backend = self._take_idle(key)
            if backend is None and self._active + len(self._idle) > (
                self.max_leases
            ):
                # a new build would exceed the bound: close the oldest
                # idle backend of any key to make room
                _, evicted = self._idle.pop(0)
                self.discarded += 1
        if evicted is not None:
            evicted.close()
        if backend is not None:
            backend.reset_run_state(base_seed=base_seed)
            with self._lock:
                self.reused += 1
        else:
            try:
                backend = self._build(
                    env_name,
                    backend_name,
                    neat_config,
                    episodes_per_genome,
                    workers,
                    base_seed,
                )
            except BaseException:
                with self._lock:
                    self._active -= 1
                raise
            with self._lock:
                self.created += 1
        return BackendLease(backend, key, self)

    def _build(
        self,
        env_name: str,
        backend_name: str,
        neat_config: NEATConfig,
        episodes_per_genome: int,
        workers: int,
        base_seed: int,
    ) -> EvaluationBackend:
        backend_cls = BACKENDS[backend_name]
        kwargs: dict[str, Any] = dict(
            episodes_per_genome=episodes_per_genome,
            base_seed=base_seed,
        )
        if issubclass(backend_cls, FastCPUBackend):
            kwargs["workers"] = workers
        if backend_name in ("inax", "fabric"):
            # mirror E3's default device sizing so a pooled inax
            # backend behaves exactly like a directly-constructed one
            kwargs["inax_config"] = default_inax_config(
                make(env_name).num_outputs
            )
        return backend_cls(env_name, neat_config, **kwargs)

    def _take_idle(self, key: tuple[Any, ...]) -> EvaluationBackend | None:
        """Pop the most recently released idle backend for ``key``."""
        for index in range(len(self._idle) - 1, -1, -1):
            if self._idle[index][0] == key:
                return self._idle.pop(index)[1]
        return None

    def _release(self, lease: BackendLease, discard: bool) -> None:
        with self._lock:
            self._active -= 1
            if not discard:
                # active + idle is unchanged by a release, so the
                # max_leases bound still holds with this one kept
                self._idle.append((lease.key, lease.backend))
                return
            self.discarded += 1
        lease.backend.close()

    # ------------------------------------------------------------- admin
    def stats(self) -> dict[str, int]:
        with self._lock:
            idle = len(self._idle)
            return {
                "active": self._active,
                "idle": idle,
                "created": self.created,
                "reused": self.reused,
                "discarded": self.discarded,
                "max_leases": self.max_leases,
            }

    def close(self) -> None:
        """Close every idle backend (worker pools, devices)."""
        with self._lock:
            idle = [backend for _, backend in self._idle]
            self._idle = []
        for backend in idle:
            backend.close()
