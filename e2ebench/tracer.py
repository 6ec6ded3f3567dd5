"""In-memory span tracer and the layer wrappers of the traced run.

Every wrapper lives here, in the benchmark's own files: the traced run
patches module attributes of the program (``install``) and restores
them afterwards (``Wrappers.uninstall``), so nothing under ``src/``
knows it is being traced.  The untraced run installs nothing.

A span records its name, start, end, parent span and a tag (the
generation or job id that all spans of one unit of work share).
Per-tick and per-step boundaries -- inference, action decode, env
step/reset -- are far too many to record one span each (a ``lander``
round makes ~250k env steps), so they accumulate as ``[seconds,
count]`` aggregates on the enclosing ``rollout.lockstep`` span.  A
span's self time is its duration minus its child spans and its
aggregates.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

perf_counter = time.perf_counter


class Span:
    __slots__ = ("id", "name", "tag", "parent", "start", "end", "aggregates")

    def __init__(self, span_id: int, name: str, tag, parent: int | None):
        self.id = span_id
        self.name = name
        self.tag = tag
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        #: name -> [seconds, count] of per-tick/per-step boundaries
        self.aggregates: dict[str, list] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def aggregate(self, name: str) -> list:
        slot = self.aggregates.get(name)
        if slot is None:
            slot = self.aggregates[name] = [0.0, 0]
        return slot

    def to_dict(self, epoch: float) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "tag": self.tag,
            "parent": self.parent,
            "start": self.start - epoch,
            "end": self.end - epoch,
            "aggregates": {k: list(v) for k, v in self.aggregates.items()},
        }


class Tracer:
    """Spans kept in memory, one nesting stack per thread."""

    def __init__(self) -> None:
        self.epoch = perf_counter()
        self.spans: list[Span] = []
        #: NEAT phase seconds summed over the traced runs' profilers
        self.neat_phases: dict[str, float] = {}
        #: event counts recorded at layer boundaries
        self.counts: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, tag=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if tag is None and parent is not None:
            tag = parent.tag
        record = Span(
            next(self._ids), name, tag, parent.id if parent else None
        )
        stack.append(record)
        record.start = perf_counter()
        try:
            yield record
        finally:
            record.end = perf_counter()
            stack.pop()
            self.spans.append(record)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def add_phases(self, phases: dict[str, float]) -> None:
        with self._lock:
            for name, seconds in phases.items():
                self.neat_phases[name] = (
                    self.neat_phases.get(name, 0.0) + seconds
                )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(record.to_dict(self.epoch)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus child spans and aggregates."""
    covered: dict[int, float] = {}
    for record in spans:
        if record.parent is not None:
            covered[record.parent] = (
                covered.get(record.parent, 0.0) + record.duration
            )
    return {
        record.id: record.duration
        - covered.get(record.id, 0.0)
        - sum(seconds for seconds, _ in record.aggregates.values())
        for record in spans
    }


# ------------------------------------------------------------- wrappers
def _timed(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


class Wrappers:
    """The set of patched module attributes, restorable in one call."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        #: the E3 subclass the traced run constructs
        self.E3 = None

    def patch(self, owner, attribute: str, value) -> None:
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, value = self._saved.pop()
            setattr(owner, attribute, value)


def install(tracer: Tracer, tag_for_seed=None) -> Wrappers:
    """Patch every layer boundary of the program with timing wrappers.

    ``tag_for_seed`` maps an E3 run's seed to the tag its spans share
    (the serve workload's job ids); by default the seed itself is used.
    """
    import repro.core.backends as backends
    import repro.envs.rollout as rollout
    import repro.serve.service as service
    from repro.compile.cache import CompileCache
    from repro.core.platform import E3
    from repro.envs.wrappers import Wrapper
    from repro.inax.accelerator import INAX

    class TimedEnv(Wrapper):
        """Env proxy: times reset/step into the wave span's aggregates."""

        def __init__(self, env, wave: Span):
            super().__init__(env)
            self._step = wave.aggregate(f"env.step:{env.name}")
            self._reset = wave.aggregate(f"env.reset:{env.name}")

        def reset(self, seed=None):
            t0 = perf_counter()
            obs = self.env.reset(seed=seed)
            slot = self._reset
            slot[0] += perf_counter() - t0
            slot[1] += 1
            return obs

        def step(self, action):
            t0 = perf_counter()
            result = self.env.step(action)
            slot = self._step
            slot[0] += perf_counter() - t0
            slot[1] += 1
            return result

    real_lockstep = backends.run_lockstep

    def run_lockstep(envs, infer, *args, **kwargs):
        with tracer.span("rollout.lockstep") as wave:
            proxies = [TimedEnv(env, wave) for env in envs]
            infer_slot = wave.aggregate("infer")

            def timed_infer(observations):
                t0 = perf_counter()
                outputs = infer(observations)
                infer_slot[0] += perf_counter() - t0
                infer_slot[1] += len(observations)
                return outputs

            return real_lockstep(proxies, timed_infer, *args, **kwargs)

    real_decode = rollout.decode_action_batch

    def decode_action_batch(env, raw_outputs):
        t0 = perf_counter()
        actions = real_decode(env, raw_outputs)
        wave = tracer.current()
        if wave is not None:
            slot = wave.aggregate("decode")
            slot[0] += perf_counter() - t0
            slot[1] += 1
        return actions

    real_get = CompileCache.get

    def compile_get(cache, genome, config):
        misses = cache.misses
        with tracer.span("compile.lookup"):
            entry = real_get(cache, genome, config)
        tracer.count("compile.lookups")
        tracer.count("compile.misses", cache.misses - misses)
        return entry

    class TracedE3(E3):
        """E3 whose run is the ``loop`` root span and whose backend
        evaluate calls are per-generation spans."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seed = kwargs.get("seed", 0)
            self.trace_tag = (
                tag_for_seed(seed) if tag_for_seed is not None else seed
            )
            # the class method, so a pooled backend wrapped by an
            # earlier job is re-wrapped rather than nested
            evaluate = type(self.backend).evaluate.__get__(self.backend)
            generation = itertools.count()

            def traced_evaluate(genomes):
                tag = f"{self.trace_tag}/gen{next(generation)}"
                with tracer.span("backend.evaluate", tag=tag):
                    return evaluate(genomes)

            self.backend.evaluate = traced_evaluate

        def run(self, *args, **kwargs):
            with tracer.span("loop", tag=self.trace_tag):
                result = super().run(*args, **kwargs)
            tracer.add_phases(result.profiler.phases)
            return result

    wrappers = Wrappers()
    wrappers.patch(backends, "run_lockstep", run_lockstep)
    wrappers.patch(rollout, "decode_action_batch", decode_action_batch)
    wrappers.patch(
        backends,
        "schedule_generation",
        _timed(tracer, "pricing.schedule", backends.schedule_generation),
    )
    wrappers.patch(
        backends,
        "compile_genome",
        _timed(tracer, "pricing.lower", backends.compile_genome),
    )
    wrappers.patch(
        backends,
        "CompiledPopulationEvaluator",
        _timed(tracer, "compile.build", backends.CompiledPopulationEvaluator),
    )
    wrappers.patch(CompileCache, "get", compile_get)
    wrappers.patch(
        INAX, "begin_wave", _timed(tracer, "inax.begin_wave", INAX.begin_wave)
    )
    wrappers.patch(
        INAX, "end_wave", _timed(tracer, "inax.end_wave", INAX.end_wave)
    )
    wrappers.patch(
        service,
        "save_checkpoint",
        _timed(tracer, "serve.checkpoint", service.save_checkpoint),
    )
    wrappers.patch(service, "E3", TracedE3)
    wrappers.E3 = TracedE3
    return wrappers
