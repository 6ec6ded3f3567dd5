"""Stateful property test of the INAX device protocol.

Drives the functional device through random begin_wave / step /
end_wave sequences and checks the §IV-B2 handshake invariants hold in
every reachable state: illegal transitions always raise, legal ones
always succeed, and the cycle report only ever grows.
"""

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.inax.accelerator import INAX, INAXConfig
from repro.inax.synthetic import synthetic_population
from tests.conftest import infer_by_slot, tick_of

_POP = synthetic_population(num_individuals=4, num_hidden=6, seed=99)
_NUM_PUS = 3


class DeviceProtocol(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.device = INAX(INAXConfig(num_pus=_NUM_PUS, num_pes_per_pu=2))
        self.wave_size = 0  # 0 = no wave in progress
        self.total_cycles_seen = 0.0

    # ------------------------------------------------------------- rules
    @precondition(lambda self: self.wave_size == 0)
    @rule(size=st.integers(1, _NUM_PUS))
    def begin_wave(self, size):
        self.device.begin_wave(_POP[:size])
        self.wave_size = size

    @precondition(lambda self: self.wave_size > 0)
    @rule(data=st.data())
    def step_some_slots(self, data):
        live = data.draw(
            st.sets(
                st.integers(0, self.wave_size - 1), min_size=1
            ),
            label="live slots",
        )
        outputs = infer_by_slot(
            self.device.step, {slot: np.zeros(8) for slot in live}
        )
        assert set(outputs) == live
        for out in outputs.values():
            assert out.shape == (4,)
            assert np.isfinite(out).all()

    @precondition(lambda self: self.wave_size > 0)
    @rule()
    def end_wave(self):
        self.device.end_wave()
        self.wave_size = 0

    # ------------------------------------------------- illegal transitions
    @precondition(lambda self: self.wave_size > 0)
    @rule()
    def begin_during_wave_rejected(self):
        try:
            self.device.begin_wave(_POP[:1])
        except RuntimeError:
            pass
        else:  # pragma: no cover - the bug this test exists to catch
            raise AssertionError("begin_wave during a wave must raise")

    @precondition(lambda self: self.wave_size == 0)
    @rule()
    def step_without_wave_rejected(self):
        try:
            self.device.step(tick_of({0: np.zeros(8)}))
        except RuntimeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("step without a wave must raise")

    @precondition(lambda self: self.wave_size == 0)
    @rule()
    def end_without_wave_rejected(self):
        try:
            self.device.end_wave()
        except RuntimeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("end_wave without a wave must raise")

    # --------------------------------------------------------- invariants
    @invariant()
    def cycles_monotone(self):
        total = self.device.report.total_cycles
        assert total >= self.total_cycles_seen
        self.total_cycles_seen = total

    @invariant()
    def utilization_bounded(self):
        assert 0.0 <= self.device.report.u_pe <= 1.0
        assert 0.0 <= self.device.report.u_pu <= 1.0


DeviceProtocol.TestCase.settings = settings(
    max_examples=20, stateful_step_count=20, deadline=None
)
TestDeviceProtocol = DeviceProtocol.TestCase
