"""Cell-layout battery, oracle ≡ product: a cell's artifact does not
depend on who trains it or how its gossip mixes the state matrix. The
serial oracle loops (``tests/oracles.py``) and the product's stacked
engine, gossiping at full width or in place by column panels
(:func:`oracles.panels`), write the same bytes (modulo the artifact's
``engine`` stamp), and a checkpoint written by one resumes under the
other to the reference bytes — for an async cell even from an event
inside a window, where the product's hook never fires.

Node-axis sharding (``--node-shards``), ``EngineConfig.momentum`` and
the serial engine (``vectorized``) were removed; the last class keeps
them removed."""

import dataclasses
import json
from contextlib import nullcontext

import numpy as np
import oracles
import pytest

from repro.experiments import (
    artifact_path,
    async_variant,
    build_plan,
    run_cell,
    run_sweep,
)
from repro.experiments.artifacts import checkpoint_path

#: who runs the cell × whether its gossip mixes by column panels
LAYOUTS = {
    "oracle": (oracles.run_cell, False),
    "oracle-panels": (oracles.run_cell, True),
    "product": (run_cell, False),
    "product-panels": (run_cell, True),
}

#: panels of 48 columns over the micro preset's 8 rows: its 172-wide
#: state mixes as four panels, the last one ragged
PANEL_BYTES = 8 * 8 * 48


def mixing(layout):
    return oracles.panels(PANEL_BYTES) if LAYOUTS[layout][1] else nullcontext()


def run_layout(layout, preset, cell, results_dir, **kwargs):
    with mixing(layout):
        return LAYOUTS[layout][0](preset, cell, results_dir, **kwargs)


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
    """``ref`` holds the oracle's run: the same bytes when ``layout`` is
    the oracle's too, else the same payload with only the ``engine``
    stamp's ``vectorized`` flag differing."""
    got, want = path.read_bytes(), ref.read_bytes()
    if layout.startswith("product"):
        got, want = json.loads(got), json.loads(want)
        got_engine, want_engine = got.pop("engine"), want.pop("engine")
        assert got_engine.pop("vectorized") is True
        assert want_engine.pop("vectorized") is False
        assert got_engine == want_engine
    assert got == want


class TestLayoutArtifacts:
    @pytest.mark.parametrize("layout", ["oracle-panels", "product", "product-panels"])
    def test_layout_cell_byte_identical(self, micro_preset, tmp_path, layout):
        cell = build_plan(micro_preset, ("skiptrain",), seeds=(0,))[0]
        ref, out = tmp_path / "ref", tmp_path / layout
        run_layout("oracle", micro_preset, cell, ref)
        run_layout(layout, micro_preset, cell, out)
        assert_same_run(artifact_path(out, cell), artifact_path(ref, cell),
                        layout)

    def test_panels_match_full_width_bytes(self, micro_preset, tmp_path):
        """A d-psgd cell, every round a product, whose every product
        mixes in panels writes the full-width product run's exact
        bytes."""
        cell = build_plan(micro_preset, ("d-psgd",), seeds=(1,))[0]
        ref, out = tmp_path / "ref", tmp_path / "panels"
        run_layout("product", micro_preset, cell, ref)
        with oracles.panels(PANEL_BYTES) as counts:
            run_cell(micro_preset, cell, out)
        assert len(counts) == cell.total_rounds and min(counts) >= 3
        assert (artifact_path(ref, cell).read_bytes()
                == artifact_path(out, cell).read_bytes())

    @pytest.mark.parametrize("layout", ["oracle-panels", "product", "product-panels"])
    def test_async_layout_cell_byte_identical(self, micro_preset, tmp_path,
                                              layout):
        """Async cells take every layout a sync cell does, to the same
        bytes as the oracle's in-memory per-event run."""
        micro_async = async_variant(micro_preset)
        cell = build_plan(micro_async, ("async-skiptrain",), seeds=(0,),
                          kind="async")[0]
        ref, out = tmp_path / "ref", tmp_path / layout
        run_layout("oracle", micro_async, cell, ref)
        run_layout(layout, micro_async, cell, out)
        assert_same_run(artifact_path(out, cell), artifact_path(ref, cell),
                        layout)

    @pytest.mark.parametrize("layout", ["oracle-panels", "product"])
    def test_sweep_layouts_byte_identical(self, micro_preset, tmp_path, layout):
        plan = build_plan(micro_preset, ("skiptrain", "d-psgd"), seeds=(0,))
        solo, out = tmp_path / "solo", tmp_path / layout
        with oracles.cells():
            run_sweep(plan, solo, preset_lookup=lookup_for(micro_preset))
        with oracles.cells() if layout.startswith("oracle") else nullcontext(), \
                mixing(layout):
            run_sweep(plan, out, preset_lookup=lookup_for(micro_preset))
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
        ("product", "oracle"),
        ("oracle", "product"),
        ("product-panels", "oracle"),
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
        run_layout(resume, micro_preset, cell, ref, checkpoint_every=2)

        with pytest.raises(TestCrossResume.Kill):
            run_layout(kill, micro_preset, cell, killed, checkpoint_every=2,
                       round_hook=self._killer(9))
        ckpt = checkpoint_path(killed, cell)
        assert ckpt.is_file()
        with np.load(ckpt) as archive:
            # one layout whoever wrote it: the whole matrix, one key
            assert "state" in archive.files
            assert archive["state"].shape[0] == micro_preset.n_nodes
            assert [k for k in archive.files if k.startswith("state")] == [
                "state"
            ]

        _, resumed = run_layout(resume, micro_preset, cell, killed,
                                checkpoint_every=2)
        assert resumed
        assert not checkpoint_path(killed, cell).exists()
        assert (artifact_path(killed, cell).read_bytes()
                == artifact_path(ref, cell).read_bytes())

    def test_async_oracle_kill_mid_window_resumes_on_product(
        self, micro_preset, tmp_path
    ):
        """The oracle checkpoints an async cell every 8 events and is
        killed at event 27; its last checkpoint, event 24, lies inside
        the product's [16, 32) window, where the product's hook never
        fires. The product resumes from it to the bytes of its own
        uninterrupted run."""
        micro_async = async_variant(micro_preset)
        cell = build_plan(micro_async, ("async-skiptrain-constrained",),
                          seeds=(0,), kind="async")[0]
        ref, killed = tmp_path / "ref", tmp_path / "killed"
        fired = []
        run_cell(micro_async, cell, ref, checkpoint_every=1,
                 round_hook=lambda engine, at, history, last: fired.append(at))
        assert 24 not in fired and 27 not in fired and 16 in fired

        with pytest.raises(TestCrossResume.Kill):
            oracles.run_cell(micro_async, cell, killed, checkpoint_every=1,
                             round_hook=self._killer(27))
        with np.load(checkpoint_path(killed, cell)) as archive:
            assert int(archive["at"]) == 24

        _, resumed = run_cell(micro_async, cell, killed, checkpoint_every=1)
        assert resumed
        assert (artifact_path(killed, cell).read_bytes()
                == artifact_path(ref, cell).read_bytes())


class TestStaysDeleted:
    """Node sharding, engine momentum and the serial engine are gone,
    with no stand-in. ``vectorized=True`` and ``repro serve
    --vectorized`` survive as no-ops only while the frozen perf
    benchmark still passes them."""

    def test_engines_take_no_vectorized(self, tiny_preset):
        from repro.experiments import build_run, prepare
        from repro.simulation import AsyncGossipEngine, EngineConfig

        with pytest.raises(TypeError, match="vectorized"):
            EngineConfig(local_steps=1, learning_rate=0.1, total_rounds=1,
                         vectorized=True)
        engine, _ = build_run(prepare(tiny_preset, 3, seed=0), "async-d-psgd")
        with pytest.raises(TypeError, match="vectorized"):
            AsyncGossipEngine(
                engine.model, engine.nodes, engine.neighbors, engine.test_set,
                local_steps=1, learning_rate=0.1,
                rng=np.random.default_rng(0), activations_per_node=1,
                vectorized=True,
            )

    def test_run_cell_refuses_the_serial_engine(self, micro_preset, tmp_path):
        cell = build_plan(micro_preset, ("skiptrain",), seeds=(0,))[0]
        with pytest.raises(TypeError, match="vectorized"):
            run_cell(micro_preset, cell, tmp_path, vectorized=False)
        assert not artifact_path(tmp_path, cell).exists()
        with pytest.raises(TypeError, match="vectorized"):
            run_sweep((cell,), tmp_path, vectorized=False,
                      preset_lookup=lookup_for(micro_preset))
        run_cell(micro_preset, cell, tmp_path, vectorized=True)  # a no-op
        assert artifact_path(tmp_path, cell).is_file()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--dry-run"],
        ["async-run"],
        ["scenario", "run", "churn-async"],
    ], ids=["sweep", "async-run", "scenario-run"])
    def test_cli_verbs_reject_vectorized(self, argv, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main([*argv, "--vectorized"])
        assert exc.value.code == 2
        assert "--vectorized" in capsys.readouterr().err

    def test_serve_still_parses_vectorized(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--vectorized"])
        assert args.command == "serve"

    def test_local_trainer_has_no_row_loop(self):
        from repro.simulation.local_step import LocalTrainer

        assert not hasattr(LocalTrainer, "train_row")

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
