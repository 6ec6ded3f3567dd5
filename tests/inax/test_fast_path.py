"""Differential contract: the INAX fast functional path against the
stepwise device.

A clean ``inax`` run takes every episode's outputs from the compiled
engine and prices each wave-episode with :meth:`INAX.price_wave`; runs
whose outputs or cycles depend on data drive the stepwise device, which
stays the oracle.  Every case below runs one seeded population through
both routes — the stepwise one forced by patching the backend's route
predicate — and compares, generation by generation:

* fitness bit patterns and episode lengths;
* the lowered ``HWNetConfig`` records;
* every ``REPORT_FIELDS`` entry of every device's cycle report;
* ``last_device_walls`` and the reporter columns.

The cases cross all seven envs with devices {1, 3}, episodes {1, 2},
the four schedule x prefetch policies, pooled vs fresh backends and
resumed vs continuous runs.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backends import INAXBackend, build_backend, default_inax_config
from repro.core.platform import effective_neat_config
from repro.inax.accelerator import INAX, INAXConfig
from repro.inax.datapath import Q16
from repro.inax.pipeline import PipelineConfig
from repro.inax.synthetic import synthetic_population
from repro.neat.checkpoint import load_checkpoint, save_checkpoint
from repro.neat.config import NEATConfig
from repro.neat.population import Population
from repro.resilience.faults import FaultPlan
from repro.telemetry.spans import Tracer, set_tracer

from tests.conftest import tick_of
from tests.inax.test_pipeline_parity import REPORT_FIELDS

POLICIES = [
    PipelineConfig(schedule=schedule, prefetch=prefetch)
    for schedule in ("arrival", "lpt")
    for prefetch in (False, True)
]
POPULATION = 10
NUM_PUS = 4
GENERATIONS = 3
SPLIT = 1  # generations before a resumed case's checkpoint
SEED = 5


@dataclasses.dataclass(frozen=True)
class Case:
    env: str
    devices: int
    episodes: int
    policy: int
    pooled: bool
    resumed: bool

    def __str__(self) -> str:
        p = POLICIES[self.policy]
        return (
            f"{self.env}-dev{self.devices}-ep{self.episodes}-"
            f"{p.schedule}-pf{int(p.prefetch)}"
            f"{'-pooled' if self.pooled else ''}"
            f"{'-resumed' if self.resumed else ''}"
        )


# two cases per env; across them each device count meets every policy
# and both episode counts, and pooled x resumed takes all four values
CASES = [
    Case("cartpole", 1, 1, 0, False, False),
    Case("cartpole", 3, 2, 1, True, True),
    Case("acrobot", 1, 2, 2, True, False),
    Case("acrobot", 3, 1, 3, False, True),
    Case("mountain_car", 1, 1, 3, False, True),
    Case("mountain_car", 3, 2, 2, True, False),
    Case("bipedal_walker", 1, 1, 1, True, True),
    Case("bipedal_walker", 3, 1, 0, False, False),
    Case("lunar_lander", 1, 2, 2, False, False),
    Case("lunar_lander", 3, 2, 3, False, True),
    Case("pendulum", 1, 2, 0, True, False),
    Case("pendulum", 3, 1, 1, False, True),
    Case("pong", 1, 1, 1, False, True),
    Case("pong", 3, 2, 0, True, False),
]


def _config(env):
    return effective_neat_config(env, NEATConfig(population_size=POPULATION))


def _backend(case, **kwargs):
    cfg = _config(case.env)
    kwargs.setdefault(
        "inax_config", default_inax_config(cfg.num_outputs, num_pus=NUM_PUS)
    )
    return build_backend(
        "inax",
        case.env,
        cfg,
        episodes_per_genome=case.episodes,
        base_seed=SEED,
        devices=case.devices,
        pipeline=POLICIES[case.policy],
        **kwargs,
    )


def _snapshot(backend, genomes):
    """One generation's comparable outputs, exact to the bit."""
    record = backend.records[-1]
    return {
        "fitness": [(g.key, float(g.fitness).hex()) for g in genomes],
        "lengths": list(record.episode_lengths),
        "configs": list(record.configs),
        "reports": [
            [repr(getattr(device.report, name)) for name in REPORT_FIELDS]
            for device in backend.farm
        ],
        "walls": {d: repr(w) for d, w in backend.last_device_walls.items()},
        "columns": {k: repr(v) for k, v in backend.reporter_columns().items()},
    }


def _drive(backend, population, generations, trace):
    def evaluate(genomes):
        backend.evaluate(genomes)
        trace.append(_snapshot(backend, genomes))

    for _ in range(generations):
        population.advance(evaluate)


def _run_case(case, checkpoint):
    """Per-generation snapshots of ``case`` on whichever route is live;
    a resumed case checkpoints to ``checkpoint``."""
    cfg = _config(case.env)
    trace = []
    backend = _backend(case)
    try:
        if case.pooled:
            # an earlier job on the same backend, then the pool's reset
            _drive(backend, Population(cfg, seed=SEED + 1), 2, [])
            backend.reset_run_state(base_seed=SEED)
        population = Population(cfg, seed=SEED)
        if not case.resumed:
            _drive(backend, population, GENERATIONS, trace)
            return trace
        _drive(backend, population, SPLIT, trace)
        save_checkpoint(population, checkpoint)
    finally:
        backend.close()
    restored = load_checkpoint(checkpoint)
    resumed = _backend(case)
    try:
        resumed.warm_caches(restored.population)
        _drive(resumed, restored, GENERATIONS - SPLIT, trace)
    finally:
        resumed.close()
    return trace


def _force_stepwise(monkeypatch):
    monkeypatch.setattr(INAXBackend, "_stepwise", lambda self: True)


@pytest.mark.parametrize("case", CASES, ids=str)
def test_fast_path_matches_stepwise_device(case, tmp_path, monkeypatch):
    fast = _run_case(case, tmp_path / "fast.json")
    with monkeypatch.context() as patch:
        _force_stepwise(patch)
        stepwise = _run_case(case, tmp_path / "stepwise.json")
    assert len(fast) == len(stepwise) == GENERATIONS
    for generation, (got, want) in enumerate(zip(fast, stepwise)):
        for field in want:
            assert got[field] == want[field], (generation, field)


def _device_spans(case, checkpoint):
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        _run_case(case, checkpoint)
    finally:
        set_tracer(previous)
    return [
        (span.name, span.track, span.start, span.duration, span.attrs)
        for span in tracer.spans
        if span.track != "host"
    ]


@pytest.mark.parametrize(
    "case",
    [Case("cartpole", 1, 2, 3, False, False), Case("pong", 3, 2, 3, True, False)],
    ids=str,
)
def test_traced_fast_run_emits_the_stepwise_device_spans(
    case, tmp_path, monkeypatch
):
    fast = _device_spans(case, tmp_path / "fast.json")
    with monkeypatch.context() as patch:
        _force_stepwise(patch)
        stepwise = _device_spans(case, tmp_path / "stepwise.json")
    names = {name for name, *_ in stepwise}
    assert {"pu.setup", "pu.compute", "inax.wave", "inax.prefetch"} <= names
    assert fast == stepwise


class TestRouting:
    """The route is decided by fault plan, datapath and zero-skipping."""

    CASE = Case("cartpole", 1, 1, 0, False, False)

    def _steps(self, monkeypatch, **kwargs):
        calls = []
        real_step = INAX.step

        def counted(device, tick):
            calls.append(len(tick))
            return real_step(device, tick)

        monkeypatch.setattr(INAX, "step", counted)
        backend = _backend(self.CASE, **kwargs)
        population = Population(_config(self.CASE.env), seed=SEED)
        try:
            _drive(backend, population, 1, [])
        finally:
            backend.close()
        return len(calls)

    def _inax_config(self, **overrides):
        cfg = _config(self.CASE.env)
        base = default_inax_config(cfg.num_outputs, num_pus=NUM_PUS)
        return dataclasses.replace(base, **overrides)

    def test_clean_run_never_steps_the_device(self, monkeypatch):
        assert self._steps(monkeypatch) == 0

    def test_fault_plan_run_steps_the_device(self, monkeypatch):
        plan = FaultPlan.parse("seed=3,inax.wedge@0.0")
        assert self._steps(monkeypatch, fault_plan=plan) > 0

    @pytest.mark.parametrize(
        "overrides",
        [{"datapath": Q16}, {"skip_zero_activations": True}],
        ids=["datapath", "skip_zero"],
    )
    def test_data_dependent_config_steps_the_device(
        self, monkeypatch, overrides
    ):
        inax_config = self._inax_config(**overrides)
        assert self._steps(monkeypatch, inax_config=inax_config) > 0


def test_fast_run_reports_and_warms_its_compile_cache():
    """The INAX compile cache has the ``cpu-compiled`` lifecycle."""
    case = Case("cartpole", 1, 1, 0, False, False)
    cfg = _config(case.env)
    backend = _backend(case)
    population = Population(cfg, seed=SEED)
    try:
        _drive(backend, population, 2, [])
        info = backend.compile_cache_info()
        assert info["misses"] >= 1 and info["hits"] >= 1
        size = info["size"]
        backend.reset_run_state(base_seed=SEED)
        assert backend.compile_cache_info() == {
            "hits": 0, "misses": 0, "size": size, "warmed": 0,
        }
    finally:
        backend.close()
    fresh = _backend(case)
    try:
        warmed = fresh.warm_caches(population.population)
        assert warmed >= 1
        assert fresh.compile_cache_info()["warmed"] == warmed
        population.advance(fresh.evaluate)
        # the first generation after warming is exactly the warm set
        assert fresh.compile_cache_info()["misses"] == 0
    finally:
        fresh.close()


def test_software_fallback_looks_up_the_backend_compile_cache():
    cfg = _config("cartpole")
    backend = build_backend(
        "inax",
        "cartpole",
        cfg,
        base_seed=SEED,
        fallback="cpu-compiled",
        # one weight word: every genome is oversized and falls back
        inax_config=INAXConfig(
            num_pus=NUM_PUS, num_pes_per_pu=2, weight_buffer_capacity=1
        ),
    )
    try:
        _drive(backend, Population(cfg, seed=SEED), 1, [])
    finally:
        backend.close()
    info = backend.compile_cache_info()
    assert backend.oversize_count == POPULATION
    # the gate looks each genome up once and the fallback once more,
    # in the one cache: only the gate's first sight of a shape misses
    assert info["hits"] + info["misses"] == 2 * POPULATION
    assert info["misses"] == info["size"]


def _device_state(device):
    return (
        [repr(getattr(device.report, name)) for name in REPORT_FIELDS],
        device._cycle,
        device._prev_wave_compute,
        device._wave_index,
    )


def _step_wave(device, wave, lengths, prefetched):
    device.begin_wave(wave, prefetched=prefetched)
    t = 0
    while True:
        live = {
            i: np.zeros(wave[i].num_inputs)
            for i in range(len(wave))
            if lengths[i] > t
        }
        if not live:
            break
        device.step(tick_of(live))
        t += 1
    device.end_wave()


@given(
    num_pus=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    prefetch=st.booleans(),
    traced=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_price_wave_advances_the_device_like_stepping_it(
    num_pus, seed, prefetch, traced
):
    """Device state after each wave, and the spans it emits, are the
    same whether the wave is stepped or priced."""
    config = INAXConfig(num_pus=num_pus, num_pes_per_pu=2)
    rng = np.random.default_rng(seed)
    pop = synthetic_population(num_individuals=2 * num_pus + 1, seed=seed % 5)
    lengths = [int(v) for v in rng.integers(1, 12, len(pop))]
    waves = [
        list(range(start, min(start + num_pus, len(pop))))
        for start in range(0, len(pop), num_pus)
    ]
    states, spans = [], []
    for route in ("step", "price"):
        tracer = Tracer() if traced else None
        previous = set_tracer(tracer)
        device = INAX(config)
        trail = []
        try:
            for ordinal, indices in enumerate(waves):
                wave = [pop[i] for i in indices]
                wave_lengths = [lengths[i] for i in indices]
                prefetched = prefetch and ordinal > 0
                if route == "step":
                    _step_wave(device, wave, wave_lengths, prefetched)
                else:
                    device.price_wave(wave, wave_lengths, prefetched=prefetched)
                trail.append(_device_state(device))
        finally:
            set_tracer(previous)
        states.append(trail)
        spans.append(
            [
                (span.name, span.track, span.start, span.duration, span.attrs)
                for span in (tracer.spans if tracer is not None else [])
            ]
        )
    assert states[0] == states[1]
    assert spans[0] == spans[1]
    assert bool(spans[0]) == traced


def test_price_wave_keeps_the_controller_protocol():
    config = INAXConfig(num_pus=2, num_pes_per_pu=2)
    pop = synthetic_population(num_individuals=3, seed=1)
    device = INAX(config)
    with pytest.raises(ValueError, match="exceeds 2 PUs"):
        device.price_wave(pop, [1, 1, 1])
    with pytest.raises(ValueError, match="at least one individual"):
        device.price_wave([], [])
    device.begin_wave(pop[:1])
    with pytest.raises(RuntimeError, match="already in progress"):
        device.price_wave(pop[1:], [2, 2])
