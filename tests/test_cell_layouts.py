"""Engine-layout battery: a cell's artifact does not depend on how its
local-training stage or its state matrix is laid out. Serial and
vectorized training over memory- or mmap-backed state write the same
bytes (modulo the artifact's ``engine`` stamp), and a checkpoint
written under one layout resumes under another to the reference bytes.

Node-axis sharding (``--node-shards``) and ``EngineConfig.momentum``
were removed; the last class keeps them removed."""

import dataclasses
import json

import numpy as np
import pytest

from repro.experiments import artifact_path, build_plan, run_cell, run_sweep
from repro.experiments.artifacts import checkpoint_path

LAYOUTS = {
    "serial": {},
    "mmap": {"state_backend": "mmap"},
    "vectorized": {"vectorized": True},
    "vectorized-mmap": {"vectorized": True, "state_backend": "mmap"},
}


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


def assert_same_run(path, ref, layout):
    """``path`` holds the reference run: the same bytes when both were
    written by the same engine flavor, else the same payload with only
    the ``engine`` stamp's ``vectorized`` flag differing."""
    got, want = path.read_bytes(), ref.read_bytes()
    if LAYOUTS[layout].get("vectorized", False):
        got, want = json.loads(got), json.loads(want)
        got_engine, want_engine = got.pop("engine"), want.pop("engine")
        assert got_engine.pop("vectorized") is True
        assert want_engine.pop("vectorized") is False
        assert got_engine == want_engine
    assert got == want


class TestLayoutArtifacts:
    @pytest.mark.parametrize("layout", ["mmap", "vectorized", "vectorized-mmap"])
    def test_layout_cell_byte_identical(self, micro_preset, tmp_path, layout):
        cell = build_plan(micro_preset, ("skiptrain",), seeds=(0,))[0]
        ref, out = tmp_path / "ref", tmp_path / layout
        run_cell(micro_preset, cell, ref)
        run_cell(micro_preset, cell, out, **LAYOUTS[layout])
        assert_same_run(artifact_path(out, cell), artifact_path(ref, cell),
                        layout)

    def test_vectorized_mmap_matches_vectorized_bytes(self, micro_preset,
                                                       tmp_path):
        """Both axes at once: stacked training in place over an mmap
        store writes the in-memory vectorized run's exact bytes."""
        cell = build_plan(micro_preset, ("d-psgd",), seeds=(1,))[0]
        ref, fleet = tmp_path / "ref", tmp_path / "fleet"
        run_cell(micro_preset, cell, ref, vectorized=True)
        run_cell(micro_preset, cell, fleet, **LAYOUTS["vectorized-mmap"])
        assert (artifact_path(ref, cell).read_bytes()
                == artifact_path(fleet, cell).read_bytes())

    @pytest.mark.parametrize("layout", ["mmap", "vectorized", "vectorized-mmap"])
    def test_async_layout_cell_byte_identical(self, micro_preset, tmp_path,
                                              layout):
        """Async cells take every layout a sync cell does, to the same
        bytes as a serial in-memory async run."""
        from repro.experiments import async_variant

        micro_async = async_variant(micro_preset)
        cell = build_plan(micro_async, ("async-skiptrain",), seeds=(0,),
                          kind="async")[0]
        ref, out = tmp_path / "ref", tmp_path / layout
        run_cell(micro_async, cell, ref)
        run_cell(micro_async, cell, out, **LAYOUTS[layout])
        assert_same_run(artifact_path(out, cell), artifact_path(ref, cell),
                        layout)

    @pytest.mark.parametrize("layout", ["mmap", "vectorized"])
    def test_sweep_layouts_byte_identical(self, micro_preset, tmp_path, layout):
        plan = build_plan(micro_preset, ("skiptrain", "d-psgd"), seeds=(0,))
        solo, out = tmp_path / "solo", tmp_path / layout
        run_sweep(plan, solo, preset_lookup=lookup_for(micro_preset))
        run_sweep(plan, out, preset_lookup=lookup_for(micro_preset),
                  **LAYOUTS[layout])
        for cell in plan:
            assert_same_run(artifact_path(out, cell),
                            artifact_path(solo, cell), layout)


class TestCrossResume:
    class Kill(Exception):
        pass

    def _killer(self, at_round):
        def hook(engine, t, history, last_eval):
            if t == at_round:
                raise TestCrossResume.Kill

        return hook

    @pytest.mark.parametrize("kill,resume", [
        ("vectorized", "serial"),
        ("serial", "vectorized"),
        ("vectorized-mmap", "serial"),
    ])
    def test_kill_and_resume_across_layouts(
        self, micro_preset, tmp_path, kill, resume
    ):
        """A checkpoint written under one layout resumes under another
        to the bytes an uninterrupted run of the resuming layout
        writes."""
        cell = build_plan(micro_preset, ("skiptrain-constrained",),
                          seeds=(0,))[0]
        ref, killed = tmp_path / "ref", tmp_path / "killed"
        run_cell(micro_preset, cell, ref, checkpoint_every=2,
                 **LAYOUTS[resume])

        with pytest.raises(TestCrossResume.Kill):
            run_cell(micro_preset, cell, killed, checkpoint_every=2,
                     round_hook=self._killer(9), **LAYOUTS[kill])
        ckpt = checkpoint_path(killed, cell)
        assert ckpt.is_file()
        with np.load(ckpt) as archive:
            # one layout whoever wrote it: the whole matrix, one key
            assert "state" in archive.files
            assert archive["state"].shape[0] == micro_preset.n_nodes
            assert [k for k in archive.files if k.startswith("state")] == [
                "state"
            ]

        _, resumed = run_cell(micro_preset, cell, killed, checkpoint_every=2,
                              **LAYOUTS[resume])
        assert resumed
        assert not checkpoint_path(killed, cell).exists()
        assert (artifact_path(killed, cell).read_bytes()
                == artifact_path(ref, cell).read_bytes())


class TestStaysDeleted:
    """Node sharding and engine momentum are gone, with no stand-in."""

    def test_run_cell_has_no_node_shards(self, micro_preset, tmp_path):
        cell = build_plan(micro_preset, ("skiptrain",), seeds=(0,))[0]
        with pytest.raises(TypeError, match="node_shards"):
            run_cell(micro_preset, cell, tmp_path, node_shards=2)
        assert not artifact_path(tmp_path, cell).exists()

    def test_run_sweep_has_no_node_shards(self, micro_preset, tmp_path):
        plan = build_plan(micro_preset, ("skiptrain",), seeds=(0,))
        with pytest.raises(TypeError, match="node_shards"):
            run_sweep(plan, tmp_path, node_shards=2,
                      preset_lookup=lookup_for(micro_preset))

    def test_cli_sweep_rejects_node_shards(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--node-shards", "2", "--dry-run",
                  "--results-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--node-shards" in capsys.readouterr().err

    def test_node_shard_pool_is_not_importable(self):
        with pytest.raises(ImportError):
            from repro.simulation import NodeShardPool  # noqa: F401
        with pytest.raises(ImportError):
            import repro.simulation.node_shard  # noqa: F401

    def test_engine_has_no_checkpoint_exemption(self):
        """Every attribute the sync engine mutates is in its
        ``state_dict``: nothing is exempt, and the checkpoint-fields
        rule finds nothing in the shipped ``engine.py``."""
        from pathlib import Path

        import repro.simulation.engine as engine_mod
        from repro.simulation import SimulationEngine
        from repro.statics import check_paths

        assert not hasattr(SimulationEngine, "_CHECKPOINT_EXEMPT")
        path = Path(engine_mod.__file__)
        result = check_paths([path], root=path.parents[3],
                             select=["checkpoint-fields"])
        assert result.findings == []
        assert result.suppressed == []
