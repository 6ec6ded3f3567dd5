"""Vectorized batch evaluation of decoded networks.

The interpreted per-node forward pass (:class:`FeedForwardNetwork`) is
the *reference* — INAX's PEs match it bit-for-bit.  For software-side
throughput (the ``cpu-fast`` backend, batch inference, Monte-Carlo
fitness over many rollouts), this module compiles the same layered plan
into padded per-layer index/weight matrices and replays the reference
computation with NumPy:

* each layer becomes ``(fan_out, max_fan_in)`` source-slot and weight
  matrices over a flat value buffer (inputs first, then every node in
  layer order — the value-buffer view, so skip connections cost nothing
  extra);
* pre-activations accumulate **term by term in ingress order** — the
  same left-to-right order the interpreted path and a hardware MAC
  accumulator use — rather than via a BLAS dot whose summation order is
  opaque, so results are bit-identical to the reference;
* activation functions apply via NumPy's value-pure ufunc kernels, the
  exact functions :mod:`repro.neat.activations` evaluates for scalars.

Two evaluators share that compiled plan:

* :class:`VectorizedNetwork` — one network over a batch of observations;
* :class:`PopulationEvaluator` — many networks in lock-step, one
  observation each, flattened into a single value buffer so a whole
  population's forward pass costs a handful of NumPy ops per layer.
  This is the inference engine behind ``FastCPUBackend``.

Only ``sum`` aggregation is supported (the default and the only one
NEAT's evolved networks use here); anything else falls back to the
reference implementation.

Known (theoretical) bit-equality caveat: padded fan-in entries append
``value * 0.0`` terms to a node's accumulation, which is an exact no-op
for every sum except one that is exactly ``-0.0``; NEAT's continuous
weights make that case unobservable in practice, and ``-0.0 == 0.0``
anyway under IEEE comparison.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.neat.network import FeedForwardNetwork

if TYPE_CHECKING:
    from repro.envs.rollout import Tick

__all__ = ["VectorizedNetwork", "PopulationEvaluator", "vectorize"]


def _vec_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(4.9 * x, -60.0, 60.0)))


def _vec_tanh(x):
    return np.tanh(np.clip(2.5 * x, -60.0, 60.0))


def _vec_gauss(x):
    z = np.clip(x, -3.4, 3.4)
    # ((-5.0 * z) * z), matching the scalar registry's evaluation order
    return np.exp(-5.0 * z * z)


# NumPy twins of repro.neat.activations: same constants, same clamping,
# and crucially the same operation *order* (clamp before scale, multiply
# chains associated identically), so each is bit-identical to its scalar
# counterpart elementwise.
_VECTOR_ACTIVATIONS = {
    "sigmoid": _vec_sigmoid,
    "tanh": _vec_tanh,
    "relu": lambda x: np.where(x > 0.0, x, 0.0),
    "leaky_relu": lambda x: np.where(x > 0.0, x, 0.005 * x),
    "identity": lambda x: x,
    "mlp_tanh": np.tanh,
    "clamped": lambda x: np.clip(x, -1.0, 1.0),
    "gauss": _vec_gauss,
    "sin": lambda x: np.sin(np.clip(5.0 * x, -60.0, 60.0)),
    "abs": np.abs,
    "step": lambda x: (x > 0.0).astype(np.float64),
}


class _LayerPlan:
    """One layer's padded execution plan over the flat value buffer.

    ``sources``/``weights`` are ``(rows, max_fan_in)``; rows with fewer
    ingress terms are padded with ``(slot 0, weight 0.0)`` entries so a
    layer evaluates with dense array ops.  ``act_groups`` maps each
    distinct activation to the row indices using it.
    """

    __slots__ = ("sources", "weights", "biases", "act_groups", "slots")

    def __init__(self, sources, weights, biases, act_groups, slots):
        self.sources = sources
        self.weights = weights
        self.biases = biases
        self.act_groups = act_groups
        self.slots = slots


class _NetPlan:
    """A full network compiled to layered padded matrices."""

    __slots__ = ("num_inputs", "num_outputs", "num_slots", "layers",
                 "output_slots")

    def __init__(self, net: FeedForwardNetwork):
        for plan in net.node_evals.values():
            if plan.aggregation != "sum":
                raise ValueError(
                    f"vectorization supports 'sum' aggregation only; node "
                    f"{plan.key} uses {plan.aggregation!r}"
                )
            if plan.activation not in _VECTOR_ACTIVATIONS:
                raise ValueError(
                    f"no vectorized activation {plan.activation!r}"
                )
        self.num_inputs = len(net.input_keys)
        self.num_outputs = len(net.output_keys)

        # value-buffer slot index for every key, inputs first
        index: dict[int, int] = {
            key: i for i, key in enumerate(net.input_keys)
        }
        self.layers: list[_LayerPlan] = []
        for layer in net.layers:
            rows = len(layer)
            fan_in = max(
                (net.node_evals[key].fan_in for key in layer), default=0
            )
            sources = np.zeros((rows, fan_in), dtype=np.intp)
            weights = np.zeros((rows, fan_in))
            biases = np.empty(rows)
            act_rows: dict[str, list[int]] = {}
            for row, key in enumerate(layer):
                plan = net.node_evals[key]
                biases[row] = plan.bias
                act_rows.setdefault(plan.activation, []).append(row)
                for term, (src, w) in enumerate(plan.ingress):
                    sources[row, term] = index[src]
                    weights[row, term] = w
            slots = np.empty(rows, dtype=np.intp)
            for row, key in enumerate(layer):
                index[key] = len(index)
                slots[row] = index[key]
            act_groups = [
                (_VECTOR_ACTIVATIONS[name], np.array(r, dtype=np.intp))
                for name, r in act_rows.items()
            ]
            self.layers.append(
                _LayerPlan(sources, weights, biases, act_groups, slots)
            )
        self.num_slots = len(index)
        self.output_slots = np.array(
            [index.get(k, -1) for k in net.output_keys], dtype=np.intp
        )


def _apply_activations(layer: _LayerPlan, pre: np.ndarray) -> np.ndarray:
    """Apply per-row activations along the last axis of ``pre``."""
    if len(layer.act_groups) == 1:
        return layer.act_groups[0][0](pre)
    out = np.empty_like(pre)
    for fn, rows in layer.act_groups:
        out[..., rows] = fn(pre[..., rows])
    return out


class VectorizedNetwork:
    """A compiled batch evaluator for one decoded network."""

    def __init__(self, net: FeedForwardNetwork):
        self._reference = net
        self.input_keys = net.input_keys
        self.output_keys = net.output_keys
        self.plan = _NetPlan(net)

    # ---------------------------------------------------------- evaluate
    def activate_batch(self, inputs: np.ndarray) -> np.ndarray:
        """(batch, num_inputs) -> (batch, num_outputs)."""
        plan = self.plan
        x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if x.shape[1] != plan.num_inputs:
            raise ValueError(
                f"expected {plan.num_inputs} inputs, got {x.shape[1]}"
            )
        batch = x.shape[0]
        values = np.zeros((batch, plan.num_slots))
        values[:, : plan.num_inputs] = x
        for layer in plan.layers:
            gathered = values[:, layer.sources]  # (batch, rows, fan_in)
            products = gathered * layer.weights
            acc = np.zeros((batch, layer.sources.shape[0]))
            for term in range(products.shape[2]):
                acc += products[:, :, term]
            pre = acc + layer.biases
            values[:, layer.slots] = _apply_activations(layer, pre)
        out = np.zeros((batch, plan.num_outputs))
        visible = plan.output_slots >= 0
        out[:, visible] = values[:, plan.output_slots[visible]]
        return out

    def activate(self, inputs: np.ndarray) -> np.ndarray:
        """Single-observation convenience, matching the reference API."""
        return self.activate_batch(np.asarray(inputs).reshape(1, -1))[0]

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.activate(inputs)


class PopulationEvaluator:
    """Lock-step inference over many compiled networks at once.

    All member networks' value buffers concatenate into one flat vector;
    each "layer" of the population (every member's nodes at that depth)
    evaluates with a handful of NumPy ops regardless of population size.
    This is what makes software evaluation of a NEAT generation cheap:
    the per-step cost is a few microseconds per *population*, not per
    individual.

    The interface mirrors the INAX device's scatter/infer/gather step:
    :meth:`infer` takes a :class:`~repro.envs.rollout.Tick` of the
    still-alive slots and returns their raw outputs, one row each.
    When episodes terminate and the alive set shrinks past a threshold,
    the flat tensors are rebuilt for the survivors so dead individuals
    stop costing inference work (the software analogue of the paper's
    idle-PU effect).
    """

    #: rebuild the flattened tensors once the alive set falls below this
    #: fraction of the currently built set
    REBUILD_FRACTION = 0.6

    def __init__(self, nets: list[VectorizedNetwork]):
        self._init_from_plans([net.plan for net in nets])

    @classmethod
    def from_plans(cls, plans: "list[_NetPlan]") -> "PopulationEvaluator":
        """Build directly from compiled plans (no network wrappers).

        The structural-batching compiler (:mod:`repro.compile`) produces
        per-member plans that *share* structure arrays and carry only
        per-member weight/bias views; this constructor lets it reuse the
        flattened lock-step engine without fabricating
        :class:`VectorizedNetwork` objects.
        """
        evaluator = cls.__new__(cls)
        evaluator._init_from_plans(list(plans))
        return evaluator

    def _init_from_plans(self, plans: "list[_NetPlan]") -> None:
        if not plans:
            raise ValueError("PopulationEvaluator needs at least one network")
        num_inputs = {p.num_inputs for p in plans}
        num_outputs = {p.num_outputs for p in plans}
        if len(num_inputs) != 1 or len(num_outputs) != 1:
            raise ValueError(
                "all member networks must share input/output arity; got "
                f"inputs {sorted(num_inputs)}, outputs {sorted(num_outputs)}"
            )
        self.num_inputs = num_inputs.pop()
        self.num_outputs = num_outputs.pop()
        self._plans = plans
        self.rebuilds = 0
        self._build(list(range(len(plans))))

    # ------------------------------------------------------------- build
    def _build(self, members: list[int]) -> None:
        """Flatten ``members``' plans into shared per-depth tensors."""
        plans = [self._plans[m] for m in members]
        offsets = np.zeros(len(plans), dtype=np.intp)
        total = 0
        for i, plan in enumerate(plans):
            offsets[i] = total
            total += plan.num_slots
        zero_slot = total  # always-zero scratch, used for absent outputs

        depth = max(len(plan.layers) for plan in plans)
        layers: list[_LayerPlan] = []
        for level in range(depth):
            live = [
                (i, plan.layers[level])
                for i, plan in enumerate(plans)
                if len(plan.layers) > level
            ]
            fan_in = max(
                (layer.sources.shape[1] for _, layer in live), default=0
            )
            total_rows = sum(layer.sources.shape[0] for _, layer in live)
            # one preallocated tensor per level, filled by slice — not a
            # concatenate over hundreds of per-member scratch arrays,
            # which dominated build time for large populations.  Padding
            # columns read slot 0 with weight 0, contributing exactly 0.
            sources = np.zeros((total_rows, fan_in), dtype=np.intp)
            weights = np.zeros((total_rows, fan_in))
            biases = np.empty(total_rows)
            slots = np.empty(total_rows, dtype=np.intp)
            act_rows: dict[int, tuple] = {}
            row = 0
            for i, layer in live:
                rows, terms = layer.sources.shape
                block = slice(row, row + rows)
                sources[block, :terms] = layer.sources + offsets[i]
                weights[block, :terms] = layer.weights
                biases[block] = layer.biases
                slots[block] = layer.slots + offsets[i]
                for fn, local_rows in layer.act_groups:
                    bucket = act_rows.setdefault(id(fn), (fn, []))
                    bucket[1].extend(local_rows + row)
                row += rows
            act_groups = [
                (fn, np.array(r, dtype=np.intp))
                for fn, r in act_rows.values()
            ]
            layers.append(
                _LayerPlan(sources, weights, biases, act_groups, slots)
            )

        self._built = np.asarray(members, dtype=np.intp)
        #: member -> row in the built tensors, -1 when not built
        self._position = np.full(len(self._plans), -1, dtype=np.intp)
        self._position[self._built] = np.arange(len(members))
        self._total = total
        self._layers = layers
        self._input_index = (
            offsets[:, None] + np.arange(self.num_inputs)
        ).ravel()
        out_index = np.empty((len(plans), self.num_outputs), dtype=np.intp)
        for i, plan in enumerate(plans):
            out_index[i] = np.where(
                plan.output_slots >= 0,
                plan.output_slots + offsets[i],
                zero_slot,
            )
        self._output_index = out_index
        self._obs = np.zeros((len(plans), self.num_inputs))
        self._values = np.zeros(total + 1)
        self.rebuilds += 1

    # ------------------------------------------------------------- infer
    def infer(self, tick: Tick) -> np.ndarray:
        """One lock-step tick: a :class:`~repro.envs.rollout.Tick` ->
        the ``(k, num_outputs)`` raw outputs of its live slots."""
        alive = tick.slots
        built = self._built
        if alive.shape != built.shape or (alive != built).any():
            if (
                alive.size
                and (alive.min() < 0 or alive.max() >= len(self._plans))
            ) or (self._position[alive] < 0).any():
                raise KeyError(
                    "infer() saw a slot outside the built population"
                )
            if len(alive) < self.REBUILD_FRACTION * len(built):
                self._build(alive.tolist())
        rows = self._position[alive]
        obs = self._obs
        obs[rows] = tick.obs
        # _values persists across ticks: stale non-input slots are always
        # rewritten before being read (every built member's every node
        # recomputes each tick), and the trailing zero_slot is never
        # written, so it stays 0.0 for absent outputs.
        values = self._values
        values[self._input_index] = obs.ravel()
        for layer in self._layers:
            gathered = values[layer.sources]  # (rows, fan_in)
            # one elementwise product, then in-place column accumulation:
            # identical term order (and bits) to the scalar sum loop
            products = gathered * layer.weights
            acc = np.zeros(products.shape[0])
            for term in range(products.shape[1]):
                acc += products[:, term]
            pre = acc + layer.biases
            values[layer.slots] = _apply_activations(layer, pre)
        return values[self._output_index[rows]]


def vectorize(net: FeedForwardNetwork) -> VectorizedNetwork:
    """Compile a decoded network for batch evaluation."""
    return VectorizedNetwork(net)
