"""S1 parity sweep: the stepwise device and the closed-form scheduler
must agree cycle-for-cycle under every pipelining policy — including
partial waves, fault-aborted waves, and ``--fallback`` software
re-runs."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backends import CPUBackend, INAXBackend
from repro.inax.accelerator import INAX, INAXConfig, schedule_generation
from repro.inax.compiler import compile_genome
from repro.inax.pipeline import PipelineConfig, pack_waves
from repro.inax.pu import _static_step_cycles
from repro.inax.synthetic import synthetic_population
from repro.neat.config import NEATConfig
from repro.neat.innovation import InnovationTracker
from repro.resilience.faults import FaultPlan

from tests.conftest import evolved_genome, tick_of

POLICIES = [
    PipelineConfig(schedule=schedule, prefetch=prefetch)
    for schedule in ("arrival", "lpt")
    for prefetch in (False, True)
]

REPORT_FIELDS = (
    "setup_cycles",
    "compute_cycles",
    "prefetch_hidden_cycles",
    "pe_active_cycles",
    "pe_provisioned_cycles",
    "pu_active_cycles",
    "pu_provisioned_cycles",
    "io_cycles",
    "steps",
    "individuals",
    "waves",
    "live_slot_steps",
    "slot_steps_provisioned",
)


def _assert_reports_equal(device_report, analytic_report):
    for name in REPORT_FIELDS:
        assert getattr(device_report, name) == pytest.approx(
            getattr(analytic_report, name)
        ), name
    assert device_report.total_cycles == pytest.approx(
        analytic_report.total_cycles
    )


def _costs(config, pop, lengths):
    """The predicted costs a length-aware backend would compute."""
    return [
        float(length)
        * _static_step_cycles(
            c, config.num_pes_per_pu, config.pe_costs, config.pu_costs
        )
        for c, length in zip(pop, lengths)
    ]


def _drive_pipelined(config, pop, lengths, pipeline, costs=None):
    """Drive the functional device over the pipelined dispatch order."""
    device = INAX(config)
    if pipeline.schedule == "arrival":
        costs = [None] * len(pop)
    elif costs is None:
        costs = _costs(config, pop, lengths)
    waves = pack_waves(costs, config.num_pus, pipeline.schedule)
    for ordinal, indices in enumerate(waves):
        wave = [pop[i] for i in indices]
        wave_lengths = [lengths[i] for i in indices]
        device.begin_wave(
            wave, prefetched=pipeline.prefetch and ordinal > 0
        )
        t = 0
        while True:
            live = {
                i: np.zeros(wave[i].num_inputs)
                for i in range(len(wave))
                if wave_lengths[i] > t
            }
            if not live:
                break
            device.step(tick_of(live))
            t += 1
        device.end_wave()
    return device.report


class TestPolicyParity:
    """Device vs analytic, all four {schedule} x {prefetch} combos."""

    @pytest.mark.parametrize(
        "pipeline", POLICIES, ids=lambda p: f"{p.schedule}-pf{p.prefetch}"
    )
    def test_partial_wave_parity(self, pipeline):
        # 7 individuals on 3 PUs: two full waves plus a partial one
        config = INAXConfig(num_pus=3, num_pes_per_pu=2)
        pop = synthetic_population(num_individuals=7, seed=3)
        lengths = [5, 30, 2, 18, 9, 3, 25]
        costs = _costs(config, pop, lengths)
        device = _drive_pipelined(config, pop, lengths, pipeline, costs)
        analytic = schedule_generation(
            config, pop, lengths, pipeline=pipeline, predicted_costs=costs
        )
        _assert_reports_equal(device, analytic)

    @pytest.mark.parametrize(
        "pipeline", POLICIES, ids=lambda p: f"{p.schedule}-pf{p.prefetch}"
    )
    @given(
        num_individuals=st.integers(1, 10),
        num_pus=st.integers(1, 5),
        lengths_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_parity(
        self, pipeline, num_individuals, num_pus, lengths_seed
    ):
        config = INAXConfig(num_pus=num_pus, num_pes_per_pu=2)
        pop = synthetic_population(
            num_individuals=num_individuals, seed=lengths_seed % 7
        )
        rng = np.random.default_rng(lengths_seed)
        lengths = [int(v) for v in rng.integers(1, 40, num_individuals)]
        costs = _costs(config, pop, lengths)
        device = _drive_pipelined(config, pop, lengths, pipeline, costs)
        analytic = schedule_generation(
            config, pop, lengths, pipeline=pipeline, predicted_costs=costs
        )
        _assert_reports_equal(device, analytic)

    def test_stale_predictions_still_parity(self):
        """Predictions can be arbitrarily wrong (lengths shifted a
        generation) — both paths must still pack identically and stay
        cycle-exact, because they share the *same* predictions."""
        config = INAXConfig(num_pus=3, num_pes_per_pu=2)
        pop = synthetic_population(num_individuals=6, seed=1)
        lengths = [4, 25, 7, 12, 2, 30]
        # stale: predicted from a different (rotated) length vector,
        # with one never-evaluated individual
        stale = _costs(config, pop, lengths[1:] + lengths[:1])
        stale[2] = None
        pipeline = PipelineConfig(schedule="lpt", prefetch=True)
        device = _drive_pipelined(config, pop, lengths, pipeline, stale)
        analytic = schedule_generation(
            config, pop, lengths, pipeline=pipeline, predicted_costs=stale
        )
        _assert_reports_equal(device, analytic)

    def test_prefetch_never_slower(self):
        config = INAXConfig(num_pus=3, num_pes_per_pu=2)
        pop = synthetic_population(num_individuals=9, seed=5)
        lengths = [12, 3, 40, 7, 22, 5, 31, 2, 16]
        for schedule in ("arrival", "lpt"):
            base = schedule_generation(
                config, pop, lengths,
                pipeline=PipelineConfig(schedule=schedule),
            )
            fast = schedule_generation(
                config, pop, lengths,
                pipeline=PipelineConfig(schedule=schedule, prefetch=True),
            )
            assert fast.total_cycles <= base.total_cycles
            # the wall clock the prefetch removed is exactly what it hid
            assert base.total_cycles - fast.total_cycles == pytest.approx(
                fast.prefetch_hidden_cycles
            )

    def test_default_pipeline_matches_legacy_schedule(self):
        """pipeline=None must price exactly like the pre-pipeline code."""
        config = INAXConfig(num_pus=4, num_pes_per_pu=2)
        pop = synthetic_population(num_individuals=10, seed=2)
        lengths = [8, 3, 17, 5, 22, 9, 4, 30, 2, 11]
        legacy = schedule_generation(config, pop, lengths)
        explicit = schedule_generation(
            config, pop, lengths, pipeline=PipelineConfig()
        )
        _assert_reports_equal(legacy, explicit)
        assert legacy.prefetch_hidden_cycles == 0.0


class TestAbortedWaveParity:
    def test_abort_prices_like_a_truncated_wave(self):
        """A wave aborted after k steps burns exactly what a wave whose
        episodes all ended at k would: abort loses no cycles and
        double-counts none."""
        config = INAXConfig(num_pus=3, num_pes_per_pu=2)
        pop = synthetic_population(num_individuals=3, seed=4)
        k = 6

        aborted = INAX(config)
        aborted.begin_wave(pop)
        for _ in range(k):
            aborted.step(
                tick_of(
                    {i: np.zeros(pop[i].num_inputs) for i in range(len(pop))}
                )
            )
        aborted.abort_wave()

        truncated = schedule_generation(config, pop, [k] * len(pop))
        _assert_reports_equal(aborted.report, truncated)

    def test_abort_preserves_prefetch_window(self):
        """The compute burned before an abort still hides the next
        wave's set-up — the weight channel was idle during it."""
        config = INAXConfig(num_pus=3, num_pes_per_pu=2)
        pop = synthetic_population(num_individuals=6, seed=4)
        first, second = pop[:3], pop[3:]
        k = 6

        device = INAX(config)
        device.begin_wave(first)
        for _ in range(k):
            device.step(
                tick_of(
                    {i: np.zeros(first[i].num_inputs)
                     for i in range(len(first))}
                )
            )
        device.abort_wave()
        # double-abort during error handling must not zero the window
        device.abort_wave()
        before = dataclasses.replace(device.report)
        device.begin_wave(second, prefetched=True)
        device.abort_wave()

        analytic = schedule_generation(
            config,
            first + second,
            [k] * len(pop),
            pipeline=PipelineConfig(prefetch=True),
        )
        assert device.report.setup_cycles == pytest.approx(
            analytic.setup_cycles
        )
        assert device.report.prefetch_hidden_cycles == pytest.approx(
            analytic.prefetch_hidden_cycles
        )
        assert device.report.prefetch_hidden_cycles > before.prefetch_hidden_cycles


def _cfg():
    return NEATConfig(num_inputs=4, num_outputs=2, population_size=6)


def _genomes(cfg):
    tracker = InnovationTracker(cfg.num_outputs)
    rng = np.random.default_rng(0)
    return [
        evolved_genome(cfg, tracker, rng, mutations=6, key=i)
        for i in range(cfg.population_size)
    ]


class TestFallbackCycleAccounting:
    """--fallback software re-runs must not double-count device cycles."""

    def test_wedged_run_burns_exactly_the_aborted_setups(self):
        cfg = _cfg()
        inax_config = INAXConfig(num_pus=3, num_pes_per_pu=2)
        backend = INAXBackend(
            "cartpole",
            cfg,
            inax_config=inax_config,
            base_seed=1,
            fallback="cpu-fast",
            fault_plan=FaultPlan.parse("seed=0,inax.wedge@1.0"),
        )
        genomes = _genomes(cfg)
        try:
            backend.evaluate(genomes)
            backend.drain()
            report = backend.records[-1].cycle_report
            waves = backend.fallback_waves
        finally:
            backend.close()
        assert waves == 2  # 6 genomes / 3 PUs, every wave wedged at step 0

        # reconstruct: each wedged wave burned its set-up and nothing
        # else (wedge fires before step cycles accrue); the software
        # re-run adds no device cycles
        reference = INAX(inax_config)
        for start in range(0, len(genomes), inax_config.num_pus):
            wave = [
                compile_genome(genome, cfg)
                for genome in genomes[start : start + inax_config.num_pus]
            ]
            reference.begin_wave(wave)
            reference.abort_wave()
        _assert_reports_equal(report, reference.report)
        assert report.compute_cycles == 0.0
        assert report.steps == 0

    def test_wedged_fitness_bit_identical_under_lpt_prefetch(self):
        cfg = _cfg()
        inax_config = INAXConfig(num_pus=3, num_pes_per_pu=2)
        clean = CPUBackend("cartpole", cfg, base_seed=1)
        genomes = _genomes(cfg)
        clean.evaluate(genomes)
        expected = [g.fitness for g in genomes]

        backend = INAXBackend(
            "cartpole",
            cfg,
            inax_config=inax_config,
            base_seed=1,
            fallback="cpu-fast",
            fault_plan=FaultPlan.parse("seed=11,inax.wedge@0.05"),
            pipeline=PipelineConfig(
                schedule="lpt", prefetch=True, overlap=True
            ),
        )
        chaotic = _genomes(cfg)
        try:
            backend.evaluate(chaotic)
            backend.drain()
        finally:
            backend.close()
        assert [g.fitness for g in chaotic] == expected
