"""The synchronous round engine.

Executes the common skeleton of every algorithm in the paper:

    for t in 1..T:
        mask ← algorithm.train_mask(t)          # who trains
        for i in mask: E local SGD steps on node i's data
        X ← W X  (or exact all-reduce)          # share + aggregate
        record energy; maybe evaluate

Model state lives in one ``(n, dim)`` float64 matrix ``X`` so the
aggregation step is one sparse product ``W @ X`` per round, with no
per-node Python. Its output rows are cut into tiles run on every CPU
the process owns (:func:`gossip`, :mod:`repro.lanes`); each row is
summed exactly as the untiled product sums it. No round allocates an
``(n, dim)`` output (:class:`GossipBuffers`): up to
:data:`SPARE_BUDGET` bytes the product lands in a spare matrix the
engine swaps with ``X``, above it it overwrites ``X`` one column panel
at a time (:func:`gossip_panels`).

Stacked local training
----------------------
The local step and the evaluator come from one executor, the
:class:`~repro.simulation.local_step.LocalTrainer`, which the async
engine (:mod:`repro.simulation.async_engine`, a subclass that replaces
only ``run``) inherits with the rest of this engine's core. All masked
nodes' rows are trained as one ``(k, dim)`` block by a
:class:`repro.nn.batched.BatchedTrainer`, which runs every local
step as stacked ``(k, B, ...)`` GEMM/elementwise kernels, one kernel per
layer regardless of ``k``; evaluation rounds run one stacked forward
pass per test batch for all evaluated nodes
(:class:`repro.nn.batched.BatchedEvaluator`). Training is plain SGD
(learning rate and ``weight_decay``, the paper's local step), which
carries no per-node optimizer state.

Bit-compatibility contract: each node's batch RNG stream is consumed in
node order and every batched kernel is slice-for-slice bit-identical to
its serial counterpart, so the resulting ``state`` matrix and
:class:`RunHistory` are **exactly equal** — not merely close — to
training and evaluating node by node on one workspace model. That serial
loop survives as the test suite's oracle. Models containing layers
without a batched mirror (``Dropout``, ``BatchNorm2d``) raise
:class:`repro.nn.batched.UnsupportedLayerError` at engine construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .. import lanes
from ..core.base import Algorithm
from ..topology.mixing import masked_mixing
from ..topology.sparse import Csr, NeighborList

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.compression import Compressor
    from ..scenarios.churn import ChurnSchedule
    from .failures import FailureModel
from ..data.dataset import ArrayDataset
from ..energy.accounting import EnergyMeter
from ..nn.module import Module
from ..nn.serialization import parameter_vector
from .local_step import LocalTrainer
from .metrics import (
    RoundRecord,
    RunHistory,
    consensus_distance,
    evaluate_state,
    membership_eval_pool,
)
from .node_bank import NodeBank
from .rng import generator_state, restore_generator

__all__ = ["EngineConfig", "GossipBuffers", "MASK_MEMO", "MaskedMixing",
           "SPARE_BUDGET", "SimulationEngine", "gossip", "gossip_panels"]


def gossip(
    w: Csr, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``w @ x`` for a float64 CSR ``w`` and 2-D ``x``, byte for byte, with
    the output rows cut into tiles run on every lane
    (:mod:`repro.lanes`; a row's work is ``x``'s columns times the
    stored entries per row). Written into ``out`` when given: a
    C-contiguous float64 matrix of the product's shape that shares no
    memory with ``x``.

    Each tile zeroes its rows of the output and runs scipy's kernel on
    its slice ``indptr[lo:hi+1]`` (:meth:`~repro.topology.Csr.matvecs`),
    so every row sums the same entries in the same CSR order as the
    untiled product."""
    rows, cols = w.shape[0], x.shape[1]
    flat = np.asarray(x).ravel()  # a C-ordered copy when strided, as in ``w @ x``
    y = np.empty((rows, cols)) if out is None else out

    def product(t: int, lo: int, hi: int) -> None:
        tile = y[lo:hi]
        tile.fill(0)
        w.matvecs(flat, tile, lo)

    lanes.run_tiles(product, lanes.tile_bounds(rows, cols * w.nnz // max(rows, 1)))
    return y


def gossip_panels(w: Csr, x: np.ndarray) -> None:
    """``x[...] = w @ x`` for a square float64 CSR ``w`` and a C-contiguous
    float64 ``x``, byte for byte, in place: one column panel of at most
    :data:`~repro.lanes.ROW_BUDGET` bytes at a time is copied out to a
    contiguous buffer, multiplied by :func:`gossip` into a second one
    and copied back. An output element sums the same CSR entries in the
    same order whatever columns share its panel, so every panel width
    gives the full product's bytes. Two panels of scratch, never a
    second ``x``; a failing panel leaves ``x`` partly mixed."""
    rows, cols = x.shape
    width = max(1, min(cols, lanes.ROW_BUDGET // (rows * x.itemsize)))
    src, dst = np.empty(rows * width), np.empty(rows * width)
    for lo in range(0, cols, width):
        hi = min(cols, lo + width)
        panel = src[: rows * (hi - lo)].reshape(rows, hi - lo)
        np.copyto(panel, x[:, lo:hi])
        x[:, lo:hi] = gossip(w, panel, dst[: rows * (hi - lo)].reshape(rows, hi - lo))


#: Most bytes of state :class:`GossipBuffers` mixes into a spare matrix;
#: above it, :func:`gossip_panels` mixes in place and a round holds one
#: ``(n, dim)`` matrix, not two. One product through a degree-``d``
#: Metropolis-Hastings matrix on a 2-CPU Intel Xeon host, full width
#: into a kept spare against 4 MiB panels, median of 5-9:
#:
#: * fleet MLP, n=16,384, dim 172, d=4 (22.5 MB): 15.2 against 29.0 ms;
#: * bench MLP, n=256, dim 1,810, d=6 (3.7 MB): 2.1 against 2.8 ms;
#: * GN-LeNet, n=256, dim 89,834, d=6 (184 MB): 120 against 139 ms;
#: * n=256, dim 400,000, d=6 (819 MB): 663 against 625 ms;
#: * FEMNIST CNN, n=256, dim 1,690,046, d=6 (3.46 GB): panels 3.0-4.3 s
#:   beside a 171 s training round, where a spare needs 3.46 GB more.
#:
#: Narrow states lose up to 2x in panels and wide ones break even, so
#: the budget only caps memory: 1 GiB keeps every benchmark workload and
#: every preset but ``femnist-paper`` at full width.
SPARE_BUDGET = 1 << 30


class GossipBuffers:
    """``X ← W X`` without a fresh ``(n, dim)`` output per round: while
    ``X`` holds at most :data:`SPARE_BUDGET` bytes the product lands in
    a spare matrix (allocated at the first product) that is then swapped
    with ``X``; above it ``X`` is overwritten by :func:`gossip_panels`."""

    def __init__(self) -> None:
        self._spare: np.ndarray | None = None

    def mix(self, w: Csr, x: np.ndarray) -> np.ndarray:
        """``w @ x``, byte for byte: the spare, ``x`` becoming the next
        product's spare, or above the budget ``x`` itself."""
        if x.nbytes > SPARE_BUDGET:
            gossip_panels(w, x)
            return x
        if self._spare is None:
            self._spare = np.empty_like(x)
        out = gossip(w, x, self._spare)
        self._spare = x
        return out


#: masked matrices one engine keeps: an rng-backed failure model draws
#: a fresh eligible set nearly every round
MASK_MEMO = 64


class MaskedMixing:
    """A round matrix restricted to the round's eligible nodes:
    :func:`~repro.topology.mixing.masked_mixing` over the matrix's
    off-diagonal graph. A Metropolis–Hastings matrix is that function
    of its graph with every node eligible, so masking one re-derives
    the weights a masked graph would get, bit for bit.

    Memoized by (matrix, eligible set): the matrix is held, so its
    identity stays its own; at most :data:`MASK_MEMO` entries, oldest
    out. Nothing here is run state — a miss recomputes the same bytes."""

    def __init__(self) -> None:
        self._masks: dict[tuple[int, bytes], tuple[Csr, Csr]] = {}

    def __call__(self, w: Csr, eligible: np.ndarray) -> Csr:
        key = (id(w), eligible.tobytes())
        if key not in self._masks:
            if len(self._masks) >= MASK_MEMO:
                del self._masks[next(iter(self._masks))]
            off = w.off_diagonal()
            graph = NeighborList(off.indptr, off.indices)
            self._masks[key] = (w, masked_mixing(graph, eligible))
        return self._masks[key][1]


@dataclass(frozen=True)
class EngineConfig:
    """Training-loop hyperparameters (Table 1 of the paper).

    ``fair_points`` restricts evaluation to the algorithm's fair
    evaluation points (SkipTrain's cycle ends); ``False`` evaluates at
    any round the ``eval_every`` cadence reaches (Fig. 4's every-round
    trace)."""

    local_steps: int
    learning_rate: float
    total_rounds: int
    eval_every: int = 10
    eval_node_sample: int | None = None
    weight_decay: float = 0.0
    fair_points: bool = True

    def __post_init__(self) -> None:
        if self.local_steps <= 0:
            raise ValueError("local_steps must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.total_rounds <= 0:
            raise ValueError("total_rounds must be positive")
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")
        if self.eval_node_sample is not None and self.eval_node_sample <= 0:
            raise ValueError("eval_node_sample must be positive when given")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")


class SimulationEngine:
    """Runs one algorithm over one topology/dataset assignment.

    ``mixing`` is a matrix or a per-round provider ``t -> Csr``.
    ``failure_model`` freezes transiently dead nodes (no training, no
    communication for the round); ``churn`` — a
    :class:`~repro.scenarios.churn.ChurnSchedule` — is the membership
    axis: nodes that have not joined (or have left) never train and
    are excluded from evaluation means/consensus. The engine keeps
    every node :meth:`_eligible` excludes out of the round's gossip
    itself (:meth:`_mixing_for_round`), whatever matrix it was given.
    Joiners are seeded with the mean of their eligible neighbors'
    states before the join round's training (see
    :func:`~repro.scenarios.churn.apply_join_handoff`)."""


    def __init__(
        self,
        model: Module,
        nodes: NodeBank,
        mixing: "Csr | Callable[[int], Csr]",
        config: EngineConfig,
        test_set: ArrayDataset,
        meter: EnergyMeter | None = None,
        eval_rng: np.random.Generator | None = None,
        compressor: "Compressor | None" = None,
        failure_model: "FailureModel | None" = None,
        churn: "ChurnSchedule | None" = None,
    ) -> None:
        n = len(nodes)
        if n == 0:
            raise ValueError("need at least one node")
        if churn is not None and churn.n_nodes != n:
            raise ValueError("churn schedule node count mismatch")
        self._mixing_provider = mixing if callable(mixing) else None
        self.mixing = mixing(1) if callable(mixing) else mixing
        if self.mixing.shape != (n, n):
            raise ValueError(
                f"mixing matrix shape {self.mixing.shape} does not match {n} nodes"
            )
        if meter is not None and meter.n_nodes != n:
            raise ValueError("energy meter node count mismatch")
        if failure_model is not None and getattr(
            failure_model, "n_nodes", n
        ) != n:
            raise ValueError("failure model node count mismatch")
        self.model = model
        self.nodes = nodes
        self.config = config
        self.test_set = test_set
        self.meter = meter
        self.eval_rng = eval_rng if eval_rng is not None else np.random.default_rng(0)  # repro: allow[rng-default-rng] -- seeded literal fallback, deterministic for standalone use
        self.compressor = compressor
        self.failure_model = failure_model
        self.churn = churn
        self._masked = MaskedMixing()
        self.local_trainer = LocalTrainer(
            model, nodes, config.local_steps, config.learning_rate,
            config.weight_decay,
        )

        dim = model.num_parameters()
        # All nodes start from the same initialization (Algorithm 1/2
        # initialize x_i^0; DecentralizePy seeds all nodes identically).
        #: the ``(n, dim)`` node-state matrix, one float64 row per node
        self.state = np.tile(parameter_vector(model), (n, 1))
        self._gossip = GossipBuffers()
        self._comm_scale = (
            1.0 if compressor is None else compressor.ratio(dim)
        )
        # error-feedback public copies (lazy; only with a compressor)
        self._public: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        """Everything a run mutates: the state matrix, the meter's
        accumulators, every node's batch-stream position, the evaluation
        rng and, under a compressor, the error-feedback public copies
        and a stochastic compressor's rng. Restoring it into a freshly
        constructed engine and continuing with ``run(start=...)`` from
        any round is bit-identical to an uninterrupted run.

        ``state`` (and ``public``) are the engine's own arrays, not
        copies: write the snapshot out before the run goes on.

        Failure models and churn schedules are pure functions of the
        round index and need no entry."""
        sd = {
            "state": self.state,
            **self.nodes.state_dict(),
            "eval_rng": generator_state(self.eval_rng),
        }
        if self.meter is not None:
            sd.update(self.meter.state_dict())
        if self._public is not None:
            sd["public"] = self._public
        if getattr(self.compressor, "rng", None) is not None:
            sd["compressor_rng"] = generator_state(self.compressor.rng)
        return sd

    def load_state_dict(self, sd: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place. The engine
        must have been constructed exactly as for the original run; a
        snapshot of another shape, without the meter's arrays, with or
        without a stochastic compressor's rng unlike the engine, or (the
        bank's own check) taken under another seed is refused before
        anything is touched."""
        state = np.asarray(sd["state"])
        public = sd.get("public")
        for name, arr in (("state", state), ("public", public)):
            if arr is not None and arr.shape != self.state.shape:
                raise ValueError(
                    f"snapshot {name} shape {arr.shape} does not match "
                    f"engine {self.state.shape}"
                )
        if self.meter is not None and "train_wh" not in sd:
            raise ValueError("snapshot lacks energy-meter arrays")
        eval_rng = restore_generator(sd["eval_rng"])
        stochastic = getattr(self.compressor, "rng", None) is not None
        if stochastic != ("compressor_rng" in sd):
            raise ValueError("snapshot and engine disagree on a stochastic compressor")
        compressor_rng = restore_generator(sd["compressor_rng"]) if stochastic else None
        # first to move, because it can still refuse (a snapshot taken
        # under another seed) and checks before it moves a cursor
        self.nodes.load_state_dict(sd)
        if self.meter is not None:
            self.meter.load_state_dict(sd)
        self.state[...] = state
        self.eval_rng = eval_rng
        self._public = None if public is None else np.array(public)
        if stochastic:
            self.compressor.rng = compressor_rng

    # -- internals ------------------------------------------------------------

    def _mixing_for_round(self, t: int) -> Csr:
        """The round's mixing matrix, static or provided per round, and
        the one place a round's gossip is masked: when :meth:`_eligible`
        excludes a node, the matrix is restricted to the eligible
        subgraph (:class:`MaskedMixing`) — each excluded node keeps an
        identity row, the rest mix by Metropolis–Hastings weights."""
        w = self.mixing
        if self._mixing_provider is not None:
            w = self._mixing_provider(t)
            if w.shape != self.mixing.shape:
                raise ValueError("mixing provider returned wrong shape")
        eligible = self._eligible(t)
        if eligible is None or eligible.all():
            return w
        return self._masked(w, eligible)

    def _aggregate(self, use_allreduce: bool, t: int = 1) -> None:
        """Share + aggregate: one sparse product ``W @ X`` through the
        engine's :class:`GossipBuffers`, or an exact average over the
        round's eligible rows; a node :meth:`_eligible` excludes keeps
        its row either way.

        With a compressor, communication uses error-feedback compressed
        gossip (the CHOCO-SGD scheme): every node maintains a *public
        copy* x̂ᵢ that all neighbors know, updated each round by a
        compressed delta ``x̂ᵢ += compress(xᵢ − x̂ᵢ)``. Aggregation then
        mixes the public copies for the off-diagonal terms while each
        node's own contribution stays exact:
        ``xᵢ ← Wᵢᵢ xᵢ + Σ_{j≠i} Wᵢⱼ x̂ⱼ``. The compression error does
        not accumulate: x̂ tracks x, so the scheme degrades gracefully
        even at aggressive sparsity. This path allocates ``(n, dim)``
        temporaries each round, beside the ``(n, dim)`` public copies it
        keeps anyway; it does not go through the buffers.
        """
        if use_allreduce:
            eligible = self._eligible(t)
            if eligible is None or eligible.all():
                self.state[:] = self.state.mean(axis=0, keepdims=True)
            elif eligible.any():
                self.state[eligible] = self.state[eligible].mean(axis=0)
            return
        w = self._mixing_for_round(t)
        if self.compressor is None:
            self.state = self._gossip.mix(w, self.state)
            return
        if self._public is None:
            self._public = np.zeros_like(self.state)
        # One block compression over the node axis. Vectorizing
        # compressors (top-k, identity) collapse the per-node loop into
        # row-wise array ops; rng-backed ones fall back to the base
        # class's ascending-row loop, so the rng stream consumption —
        # and hence every compressed value — matches the historical
        # per-node loop exactly either way.
        deltas, _ = self.compressor.compress_block(self.state - self._public)
        self._public += deltas
        self.state = (w.diagonal()[:, None] * self.state
                      + gossip(w.off_diagonal(), self._public))

    def _eligible(self, t: int) -> np.ndarray | None:
        """Round ``t``'s eligible nodes (present ∧ alive): who may train
        and communicate. ``None`` when neither churn nor a failure
        model can exclude a node."""
        alive = None if self.failure_model is None else self.failure_model.alive(t)
        if self.churn is None:
            return alive
        present = self.churn.present(t)
        return present if alive is None else present & alive

    def _apply_churn(self, t: int) -> None:
        """Round ``t``'s join handoffs: hand each joiner the mean of its
        eligible (present ∧ alive) veteran neighbors' states. Neighbors
        come from the round's mixing matrix, filtered by eligibility, so
        the handoff agrees with the graph the round actually
        communicates over.

        A joiner that is itself *dead* at its join round (the failure
        model covers it) enrolls without a handoff and keeps its
        current row — it cannot fetch neighbor state while down. The
        async engine hands off through this method too."""
        from ..scenarios.churn import apply_join_handoff

        assert self.churn is not None
        joiners = self.churn.joins_at(t)
        if not joiners:
            return
        eligible = self._eligible(t)
        if eligible is not None:
            joiners = tuple(i for i in joiners if eligible[i])
        if joiners:
            off = self._mixing_for_round(t).off_diagonal()
            apply_join_handoff(self.state, joiners,
                               lambda i: off.indices[off.indptr[i] : off.indptr[i + 1]],
                               eligible)

    def _measure(self, t: int) -> tuple[float, float, float]:
        """Round ``t``'s evaluation: mean and std accuracy over the
        evaluation pool (round ``t``'s members, sampled by ``eval_rng``)
        and the members' consensus distance."""
        node_ids, consensus_rows = membership_eval_pool(
            self.state,
            self.churn.present(t) if self.churn is not None else None,
            self.config.eval_node_sample,
            self.eval_rng,
        )
        mean_acc, std_acc = evaluate_state(
            self.local_trainer.evaluator, self.state, self.test_set,
            node_ids=node_ids,
        )
        return mean_acc, std_acc, consensus_distance(consensus_rows)

    def _evaluate(
        self,
        t: int,
        trained: np.ndarray,
        is_training_round: bool,
        train_loss: float = float("nan"),
    ) -> RoundRecord:
        mean_acc, std_acc, consensus = self._measure(t)
        energy = self.meter.total_wh if self.meter is not None else 0.0
        return RoundRecord(
            round=t,
            mean_accuracy=mean_acc,
            std_accuracy=std_acc,
            consensus=consensus,
            cumulative_energy_wh=energy,
            trained_nodes=int(trained.sum()),
            is_training_round=is_training_round,
            train_loss=train_loss,
        )

    # -- public API -----------------------------------------------------------

    def run(
        self,
        algorithm: Algorithm,
        *,
        start: int = 0,
        history: RunHistory | None = None,
        hook: "Callable[[SimulationEngine, int, RunHistory, int], None] | None" = None,
    ) -> RunHistory:
        """Execute ``algorithm`` for rounds ``start+1 ..
        config.total_rounds``. Non-zero ``start`` resumes a run whose
        state was restored via :meth:`load_state_dict` (or
        :func:`~repro.simulation.checkpoint.load_run_checkpoint`, which
        also restores the algorithm's state and the history so far).

        ``history`` appends to an existing record list (a resumed run
        continues the interrupted history); ``hook(engine, at, history,
        last_eval)`` is called after every completed round ``at`` — the
        sweep orchestrator checkpoints from it — with ``last_eval`` the
        last evaluation round (0 before the first). A run resumes
        exactly from any round: the evaluation cadence continues from
        the history's last record, not from ``start``.
        """
        if algorithm.n_nodes != self.n_nodes:
            raise ValueError("algorithm node count mismatch")
        if not 0 <= start <= self.config.total_rounds:
            raise ValueError("start out of range")
        if history is None:
            history = RunHistory(algorithm=algorithm.name)
        cfg = self.config
        last_eval = history.records[-1].round if history.records else 0
        for t in range(start + 1, cfg.total_rounds + 1):
            mask = np.asarray(algorithm.train_mask(t), dtype=bool)
            if mask.shape != (self.n_nodes,):
                raise ValueError("train_mask returned wrong shape")
            if self.churn is not None:
                self._apply_churn(t)
            communicated = self._eligible(t)
            if communicated is not None:
                mask = mask & communicated
            losses = self.local_trainer.train(self.state, np.nonzero(mask)[0])
            self._aggregate(algorithm.use_allreduce, t)
            if self.meter is not None:
                self.meter.record_round(
                    mask, communicated=communicated, comm_scale=self._comm_scale
                )
            if self._should_eval(algorithm, t, last_eval):
                train_loss = float(np.mean(losses)) if losses.size else float("nan")
                history.append(
                    self._evaluate(t, mask, bool(mask.any()), train_loss)
                )
                last_eval = t
            if hook is not None:
                hook(self, t, history, last_eval)
        return history

    def _should_eval(self, algorithm: Algorithm, t: int, last_eval: int) -> bool:
        """Evaluate on the configured cadence, but only at the
        algorithm's fair evaluation points (the paper evaluates every
        Γ_train+Γ_sync rounds, after the sync phase — Fig. 4 shows why:
        accuracy oscillates within a cycle; with ``fair_points`` off
        every round is one). Also evaluate at the final round if it is
        a fair point and not yet evaluated."""
        cfg = self.config
        fair = not cfg.fair_points or algorithm.is_eval_point(t)
        if t == cfg.total_rounds:
            return fair or last_eval == 0
        return t - last_eval >= cfg.eval_every and fair

    def global_average_accuracy(self) -> float:
        """Accuracy of the average of all node models (the all-reduce
        curve of Fig. 1 evaluates this consensus model)."""
        from .metrics import evaluate_model_vector

        avg = self.state.mean(axis=0)
        return evaluate_model_vector(self.model, avg, self.test_set)
