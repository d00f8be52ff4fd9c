"""Node-axis sharding battery: sharded cells must write byte-identical
artifacts, checkpoints must cross-resume between sharded and unsharded
processes, and every misuse (async cells, nested pools, momentum,
over-sharding) must fail loudly before any training happens."""

import dataclasses

import numpy as np
import pytest

from repro.experiments import artifact_path, build_plan, run_cell, run_sweep
from repro.experiments.artifacts import checkpoint_path
from repro.experiments.runner import build_run, prepare
from repro.simulation import NodeShardError, NodeShardPool, shard_blocks


@pytest.fixture
def micro_preset(tiny_preset):
    return dataclasses.replace(
        tiny_preset,
        name="micro",
        total_rounds=12,
        eval_every=2,
        eval_node_sample=4,
        battery_fraction=0.1,
    )


def lookup_for(preset):
    def lookup(name):
        assert name == preset.name
        return preset

    return lookup


class TestShardBlocks:
    @pytest.mark.parametrize("n,shards", [(8, 1), (8, 3), (8, 8), (17, 4)])
    def test_blocks_partition_the_node_axis(self, n, shards):
        blocks = shard_blocks(n, shards)
        assert len(blocks) == shards
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        for (_, hi), (lo, _) in zip(blocks, blocks[1:]):
            assert hi == lo  # contiguous, ascending
        sizes = [hi - lo for lo, hi in blocks]
        assert max(sizes) - min(sizes) <= 1  # as even as possible

    def test_invalid_shard_counts_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            shard_blocks(8, 0)
        with pytest.raises(ValueError, match="exceeds"):
            shard_blocks(8, 9)


class TestShardedArtifacts:
    @pytest.mark.parametrize("shards", [2, 3])
    def test_sharded_cell_byte_identical(self, micro_preset, tmp_path, shards):
        cell = build_plan(micro_preset, ("skiptrain",), seeds=(0,))[0]
        ref, sharded = tmp_path / "ref", tmp_path / "sharded"
        run_cell(micro_preset, cell, ref)
        run_cell(micro_preset, cell, sharded, node_shards=shards)
        assert (artifact_path(ref, cell).read_bytes()
                == artifact_path(sharded, cell).read_bytes())

    def test_sharded_mmap_cell_byte_identical(self, micro_preset, tmp_path):
        """Both fleet axes at once: sharded training over an mmap store
        still writes the reference bytes."""
        cell = build_plan(micro_preset, ("d-psgd",), seeds=(1,))[0]
        ref, fleet = tmp_path / "ref", tmp_path / "fleet"
        run_cell(micro_preset, cell, ref)
        run_cell(micro_preset, cell, fleet, node_shards=2,
                 state_backend="mmap")
        assert (artifact_path(ref, cell).read_bytes()
                == artifact_path(fleet, cell).read_bytes())

    def test_sweep_with_shards_byte_identical(self, micro_preset, tmp_path):
        plan = build_plan(micro_preset, ("skiptrain", "d-psgd"), seeds=(0,))
        solo, sharded = tmp_path / "solo", tmp_path / "sharded"
        run_sweep(plan, solo, preset_lookup=lookup_for(micro_preset))
        run_sweep(plan, sharded, node_shards=2,
                  preset_lookup=lookup_for(micro_preset))
        for cell in plan:
            assert (artifact_path(solo, cell).read_bytes()
                    == artifact_path(sharded, cell).read_bytes())


class TestCrossResume:
    class Kill(Exception):
        pass

    def _killer(self, at_round):
        def hook(engine, t, history, last_eval):
            if t == at_round:
                raise TestCrossResume.Kill

        return hook

    @pytest.mark.parametrize("kill_shards,resume_shards", [(2, 1), (1, 2)])
    def test_kill_and_resume_across_layouts(
        self, micro_preset, tmp_path, kill_shards, resume_shards
    ):
        """A checkpoint written by a sharded process resumes in an
        unsharded one (and vice versa) to the reference bytes."""
        cell = build_plan(micro_preset, ("skiptrain-constrained",),
                          seeds=(0,))[0]
        ref, killed = tmp_path / "ref", tmp_path / "killed"
        run_cell(micro_preset, cell, ref, checkpoint_every=2)

        with pytest.raises(TestCrossResume.Kill):
            run_cell(micro_preset, cell, killed, checkpoint_every=2,
                     node_shards=kill_shards, round_hook=self._killer(9))
        ckpt = checkpoint_path(killed, cell)
        assert ckpt.is_file()
        with np.load(ckpt) as archive:
            # one layout whoever wrote it: the whole matrix, one key
            assert "state" in archive.files
            assert archive["state"].shape[0] == micro_preset.n_nodes
            assert not [k for k in archive.files
                        if k.startswith("state_shard_")]

        _, resumed = run_cell(micro_preset, cell, killed, checkpoint_every=2,
                              node_shards=resume_shards)
        assert resumed
        assert not checkpoint_path(killed, cell).exists()
        assert (artifact_path(killed, cell).read_bytes()
                == artifact_path(ref, cell).read_bytes())


class TestValidation:
    def test_async_cells_reject_sharding(self, micro_preset, tmp_path):
        from repro.experiments import async_variant

        micro_async = async_variant(micro_preset)
        cell = build_plan(micro_async, ("async-skiptrain",), seeds=(0,),
                          kind="async")[0]
        with pytest.raises(ValueError, match="async"):
            run_cell(micro_async, cell, tmp_path, node_shards=2)

    def test_run_cell_rejects_nonpositive_shards(self, micro_preset, tmp_path):
        cell = build_plan(micro_preset, ("skiptrain",), seeds=(0,))[0]
        with pytest.raises(ValueError, match="node_shards"):
            run_cell(micro_preset, cell, tmp_path, node_shards=0)

    def test_run_sweep_rejects_pool_nesting(self, micro_preset, tmp_path):
        plan = build_plan(micro_preset, ("skiptrain",), seeds=(0,))
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(plan, tmp_path, jobs=2, node_shards=2,
                      preset_lookup=lookup_for(micro_preset))

    def test_pool_rejects_momentum(self, micro_preset):
        prepared = prepare(micro_preset, 3, seed=0)
        engine, _ = build_run(prepared, "skiptrain")
        engine.config = dataclasses.replace(engine.config, momentum=0.5)
        try:
            with pytest.raises(ValueError, match="momentum"):
                NodeShardPool(engine, 2)
        finally:
            engine.close()

    def test_worker_failure_raises_with_traceback(self, micro_preset):
        prepared = prepare(micro_preset, 3, seed=0)
        engine, _ = build_run(prepared, "skiptrain")

        def boom(block, idx, k):
            raise RuntimeError("worker boom")

        # forked workers inherit the broken trainer; the parent must
        # surface the worker-side traceback, not hang
        engine._train_block = boom
        pool = NodeShardPool(engine, 2)
        try:
            with pytest.raises(NodeShardError, match="worker boom"):
                ids = np.arange(engine.n_nodes)
                pool.train_round(
                    engine.state, ids,
                    *engine.nodes.draw(ids, engine.config.local_steps),
                )
        finally:
            pool.close()
            engine.close()
