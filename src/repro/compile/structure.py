"""One topology signature, compiled once; parameters filled per genome.

A :class:`CompiledStructure` is everything about a decoded network that
the shape key determines: the pruned/layered topology, the padded
``_NetPlan`` index matrices, activation grouping, and the *recipes*
(node keys and ingress connection keys in plan order) needed to fill
any same-shape genome's weights and biases into that layout without
re-running ``CreateNet``.  The contract is pinned by
:meth:`repro.neat.genome.Genome.shape_key`: two genomes with equal
shape keys decode to identical structure, so they may share one
compiled plan and differ only in the parameter tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.inax.compiler import HWNetConfig
from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.network import FeedForwardNetwork, NodeEval

# the compiled plan reuses the vectorized engine's private lowering on
# purpose: one arithmetic implementation means one bit-identity proof
# obligation
from repro.neat.vectorized import _LayerPlan, _NetPlan

__all__ = ["CompiledStructure"]


@dataclass(frozen=True)
class _RowRecipe:
    """How to fill one plan row from any same-shape genome."""

    key: int
    activation: str
    aggregation: str
    #: ingress source keys in plan term order (sorted; weight-independent)
    sources: tuple[int, ...]


@dataclass(frozen=True)
class _ParamLayout:
    """One member's flat parameter row: per layer, the ``(rows, fan_in)``
    weights row-major, then the biases.  ``layers`` holds each layer's
    ``(offset, rows, fan_in)``; ``index`` places the gathered values
    (``bias_keys`` in plan row order, then ``conn_keys`` in ingress
    order)."""

    size: int
    layers: tuple[tuple[int, int, int], ...]
    bias_keys: tuple[int, ...]
    conn_keys: tuple[tuple[int, int], ...]
    index: np.ndarray


class CompiledStructure:
    """Shared execution plan + parameter fill recipes for one shape.

    ``plan`` is ``None`` when the shape does not vectorize (exotic
    aggregation/activation); the recipes still work, so the HW config
    lowering stays cheap and the backend can fall back to the
    interpreted path for those genomes.
    """

    __slots__ = (
        "shape_key",
        "input_keys",
        "output_keys",
        "rows",
        "plan",
        "_param_layout",
    )

    def __init__(
        self,
        shape_key: str,
        input_keys: tuple[int, ...],
        output_keys: tuple[int, ...],
        rows: tuple[tuple[_RowRecipe, ...], ...],
        plan: _NetPlan | None,
    ):
        self.shape_key = shape_key
        self.input_keys = input_keys
        self.output_keys = output_keys
        self.rows = rows
        self.plan = plan
        self._param_layout: _ParamLayout | None = None

    @classmethod
    def from_genome(
        cls, genome: Genome, config: NEATConfig
    ) -> "CompiledStructure":
        """Decode once (CreateNet + plan lowering) for this shape."""
        net = FeedForwardNetwork.create(genome, config)
        rows = tuple(
            tuple(
                _RowRecipe(
                    key=key,
                    activation=net.node_evals[key].activation,
                    aggregation=net.node_evals[key].aggregation,
                    sources=tuple(
                        src for src, _ in net.node_evals[key].ingress
                    ),
                )
                for key in layer
            )
            for layer in net.layers
        )
        try:
            plan = _NetPlan(net)
        except ValueError:
            plan = None
        return cls(
            shape_key=genome.shape_key(),
            input_keys=tuple(net.input_keys),
            output_keys=tuple(net.output_keys),
            rows=rows,
            plan=plan,
        )

    # -------------------------------------------------------- parameters
    def _layout(self) -> _ParamLayout:
        """The flat parameter layout, built on first use."""
        if self.plan is None:
            raise ValueError(
                f"shape {self.shape_key[:12]} is not vectorizable"
            )
        if self._param_layout is None:
            layers = []
            bias_index: list[int] = []
            weight_index: list[int] = []
            offset = 0
            for layer_rows, base in zip(self.rows, self.plan.layers):
                rows, fan_in = base.weights.shape
                layers.append((offset, rows, fan_in))
                for row, recipe in enumerate(layer_rows):
                    bias_index.append(offset + rows * fan_in + row)
                    weight_index.extend(
                        offset + row * fan_in + term
                        for term in range(len(recipe.sources))
                    )
                offset += rows * fan_in + rows
            self._param_layout = _ParamLayout(
                size=offset,
                layers=tuple(layers),
                bias_keys=tuple(
                    recipe.key
                    for layer_rows in self.rows
                    for recipe in layer_rows
                ),
                conn_keys=tuple(
                    (src, recipe.key)
                    for layer_rows in self.rows
                    for recipe in layer_rows
                    for src in recipe.sources
                ),
                index=np.array(bias_index + weight_index, dtype=np.intp),
            )
        return self._param_layout

    def fill_stack(self, genomes: list[Genome]) -> np.ndarray:
        """``(len(genomes), size)`` flat parameter rows, one per genome.

        Each distinct genome is gathered once (episode slots of one
        genome repeat it), and the whole stack fills with one
        fancy-indexed assignment off the precomputed index instead of a
        Python loop per matrix element — this is the entire per-genome
        cost of the compiled path and shows up directly in the
        decode-vs-compile speedup.  Padded terms keep their zero weight.
        """
        layout = self._layout()
        gathered: dict[int, list[float]] = {}
        values = []
        for genome in genomes:
            row = gathered.get(id(genome))
            if row is None:
                nodes = genome.nodes
                connections = genome.connections
                row = gathered[id(genome)] = [
                    nodes[key].bias for key in layout.bias_keys
                ] + [connections[key].weight for key in layout.conn_keys]
            values.append(row)
        stack = np.zeros((len(genomes), layout.size))
        stack[:, layout.index] = values
        return stack

    def parameter_views(
        self, flat: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer ``(weights, biases)`` views into ``flat``.

        ``flat`` is a :meth:`fill_stack` result or one of its rows; each
        view keeps the leading dimensions, so a bucket's stack yields the
        ``(B, rows, fan_in)`` / ``(B, rows)`` tensors.
        """
        lead = flat.shape[:-1]
        views = []
        for offset, rows, fan_in in self._layout().layers:
            end = offset + rows * fan_in
            views.append(
                (
                    flat[..., offset:end].reshape(lead + (rows, fan_in)),
                    flat[..., end : end + rows],
                )
            )
        return views

    def fill_parameters(
        self, genome: Genome
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer ``(weights, biases)`` in plan layout for ``genome``.

        Shapes match the plan's padded matrices exactly — padded terms
        stay ``(zero slot, weight 0.0)`` just like ``_NetPlan`` builds them,
        so the batched forward is bit-identical to decoding the genome
        itself.
        """
        return self.parameter_views(self.fill_stack([genome])[0])

    def member_plan(
        self, params: list[tuple[np.ndarray, np.ndarray]]
    ) -> _NetPlan:
        """A per-member plan: shared structure arrays, private params.

        The returned plan aliases the structure's ``sources`` /
        ``act_groups`` / ``slots`` arrays (the lock-step engine only
        reads them) and carries the member's own weight/bias arrays —
        typically views into a bucket's stacked tensors.
        """
        plan = self.plan
        if plan is None:
            raise ValueError(
                f"shape {self.shape_key[:12]} is not vectorizable"
            )
        member = object.__new__(_NetPlan)
        member.num_inputs = plan.num_inputs
        member.num_outputs = plan.num_outputs
        member.num_slots = plan.num_slots
        member.output_slots = plan.output_slots
        member.layers = [
            _LayerPlan(
                base.sources, weights, biases, base.act_groups, base.slots
            )
            for base, (weights, biases) in zip(plan.layers, params)
        ]
        return member

    # --------------------------------------------------------- HW config
    def hw_config(self, genome: Genome) -> HWNetConfig:
        """Lower ``genome`` to its HW configuration via the recipes.

        Equal, field for field, to
        :func:`repro.inax.compiler.compile_genome` — ingress order is
        sorted by source key, which the recipes preserve — but skips
        the per-genome ``CreateNet`` decode entirely.
        """
        nodes = genome.nodes
        connections = genome.connections
        layers = tuple(
            tuple(
                NodeEval(
                    key=recipe.key,
                    bias=nodes[recipe.key].bias,
                    activation=recipe.activation,
                    aggregation=recipe.aggregation,
                    ingress=tuple(
                        (src, connections[(src, recipe.key)].weight)
                        for src in recipe.sources
                    ),
                )
                for recipe in layer_rows
            )
            for layer_rows in self.rows
        )
        return HWNetConfig(
            input_keys=self.input_keys,
            output_keys=self.output_keys,
            layers=layers,
        )
