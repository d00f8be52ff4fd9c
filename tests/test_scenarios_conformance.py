"""Cross-engine conformance harness for the scenario subsystem.

For a grid of small scenario specs (churn, failures, battery budgets,
data skew — composed), this asserts the three contracts every scenario
cell must keep whatever engine executes it:

(a) oracle ≡ product — the serial loops of ``tests/oracles.py`` and the
    stacked engine — state bit-for-bit and history record-for-record,
    sync (batched rounds) *and* async (disjoint event batching);
(b) a mid-run checkpoint kill + resume produces byte-identical
    artifacts for sync *and* async scenario cells, including an oracle
    checkpoint resumed by the product mid-batch-window;
(c) dead (failure-window) and departed (churn) nodes are never
    selected as gossip partners in either engine.
"""

import dataclasses

import numpy as np
import oracles
import pytest

from repro.experiments.artifacts import artifact_path, checkpoint_path
from repro.experiments.sweep import run_cell
from repro.scenarios import (
    AlgorithmSpec,
    ChurnEventSpec,
    ChurnSpec,
    DataSpec,
    EnergySpec,
    FailureSpec,
    ScenarioSpec,
    TopologySpec,
)
from repro.scenarios.compile import build_scenario_plan, compile_run


@pytest.fixture
def grid_preset(tiny_preset):
    return dataclasses.replace(
        tiny_preset, name="tiny", total_rounds=12, eval_every=2,
        eval_node_sample=4, battery_fraction=0.1,
    )


CHURN = ChurnSpec(
    initially_absent=(2,),
    events=(
        ChurnEventSpec(round=4, node=2, action="join"),
        ChurnEventSpec(round=6, node=5, action="leave"),
        ChurnEventSpec(round=9, node=5, action="join"),
    ),
)
FAILURES = FailureSpec(kind="window", nodes=(1, 6), start=5, end=8)


def _spec(name, **kw):
    defaults = dict(name=name, preset="tiny", total_rounds=12, eval_every=2)
    defaults.update(kw)
    return ScenarioSpec(**defaults)


SYNC_GRID = [
    _spec("churn-only", churn=CHURN,
          algorithm=AlgorithmSpec(name="skiptrain")),
    _spec("churn-fail", churn=CHURN, failures=FAILURES,
          algorithm=AlgorithmSpec(name="d-psgd")),
    _spec("fail-constrained", failures=FAILURES,
          algorithm=AlgorithmSpec(name="skiptrain-constrained")),
    _spec("churn-fail-skew", churn=CHURN, failures=FAILURES,
          data=DataSpec(partition="dirichlet", alpha=0.5),
          algorithm=AlgorithmSpec(name="skiptrain")),
]
ASYNC_GRID = [
    _spec("a-churn-budget", churn=CHURN,
          energy=EnergySpec(enforce_budgets=True),
          algorithm=AlgorithmSpec(name="async-skiptrain")),
    _spec("a-churn-fail", churn=CHURN, failures=FAILURES,
          algorithm=AlgorithmSpec(name="async-d-psgd")),
    _spec("a-fail-skew-constrained", failures=FAILURES,
          data=DataSpec(partition="dirichlet", alpha=0.5),
          energy=EnergySpec(enforce_budgets=True),
          algorithm=AlgorithmSpec(name="async-skiptrain-constrained")),
    _spec("a-churn-rewired", churn=CHURN,
          topology=TopologySpec(kind="dynamic-periodic", period=3),
          algorithm=AlgorithmSpec(name="async-skiptrain")),
]

_ids = lambda specs: [s.name for s in specs]


class TestSerialVectorizedEquivalence:
    """(a): the product engine must be bit-compatible with the serial
    oracle for every scenario composition, not just plain cells."""

    @pytest.mark.parametrize("spec", SYNC_GRID, ids=_ids(SYNC_GRID))
    def test_state_and_history_bit_identical(self, grid_preset, spec):
        serial = compile_run(spec, preset=grid_preset)
        oracles.serial(serial.engine)
        vector = compile_run(spec, preset=grid_preset)
        h_serial = serial.execute()
        h_vector = vector.execute()
        np.testing.assert_array_equal(serial.engine.state,
                                      vector.engine.state)
        assert repr(h_serial.history.records) == repr(h_vector.history.records)

    @pytest.mark.parametrize("spec", ASYNC_GRID, ids=_ids(ASYNC_GRID))
    def test_async_state_and_history_bit_identical(self, grid_preset, spec):
        """Disjoint event batching is bit-compatible with the serial
        event loop under every async composition — churn, failure
        windows, battery budgets, data skew, all three policies."""
        serial = compile_run(spec, preset=grid_preset)
        oracles.serial(serial.engine)
        vector = compile_run(spec, preset=grid_preset)
        h_serial = serial.execute()
        h_vector = vector.execute()
        np.testing.assert_array_equal(serial.engine.state,
                                      vector.engine.state)
        np.testing.assert_array_equal(serial.engine.train_counts,
                                      vector.engine.train_counts)
        assert (serial.engine.train_energy_wh
                == vector.engine.train_energy_wh)
        assert repr(h_serial.history.records) == repr(h_vector.history.records)


class TestKillResumeByteIdentity:
    """(b): a killed scenario cell resumes from its checkpoint into a
    byte-identical artifact, sync and async alike."""

    class Kill(Exception):
        pass

    def _cell(self, spec, grid_preset):
        return build_scenario_plan(spec, seeds=(0,), preset=grid_preset)[0]

    @pytest.mark.parametrize(
        "spec",
        [SYNC_GRID[0], SYNC_GRID[1], SYNC_GRID[3]],
        ids=_ids([SYNC_GRID[0], SYNC_GRID[1], SYNC_GRID[3]]),
    )
    def test_sync_scenario_cell(self, grid_preset, spec, tmp_path):
        cell = self._cell(spec, grid_preset)
        lookup = lambda name: spec
        ref, killed = tmp_path / "ref", tmp_path / "killed"
        run_cell(grid_preset, cell, ref, checkpoint_every=2,
                 scenario_lookup=lookup)

        def killer(engine, t, history, last_eval):
            if t == 9:  # past at least one eval-round checkpoint
                raise self.Kill

        with pytest.raises(self.Kill):
            run_cell(grid_preset, cell, killed, checkpoint_every=2,
                     round_hook=killer, scenario_lookup=lookup)
        assert checkpoint_path(killed, cell).is_file()
        assert not artifact_path(killed, cell).exists()
        _, resumed = run_cell(grid_preset, cell, killed, checkpoint_every=2,
                              scenario_lookup=lookup)
        assert resumed
        assert not checkpoint_path(killed, cell).exists()
        assert (artifact_path(killed, cell).read_bytes()
                == artifact_path(ref, cell).read_bytes())

    @pytest.mark.parametrize("spec", ASYNC_GRID, ids=_ids(ASYNC_GRID))
    def test_async_scenario_cell(self, grid_preset, spec, tmp_path):
        """Killed by the oracle, whose hook fires after every event, at
        an event off the evaluation cadence; resumed by the product."""
        cell = self._cell(spec, grid_preset)
        lookup = lambda name: spec
        ref, killed = tmp_path / "ref", tmp_path / "killed"
        run_cell(grid_preset, cell, ref, checkpoint_every=2,
                 scenario_lookup=lookup)

        def killer(engine, event, history, last):
            if event == 50:  # mid-cell, off the eval cadence
                raise self.Kill

        with pytest.raises(self.Kill):
            oracles.run_cell(grid_preset, cell, killed, checkpoint_every=2,
                             round_hook=killer, scenario_lookup=lookup)
        assert checkpoint_path(killed, cell).is_file()
        assert not artifact_path(killed, cell).exists()
        _, resumed = run_cell(grid_preset, cell, killed, checkpoint_every=2,
                              scenario_lookup=lookup)
        assert resumed
        assert not checkpoint_path(killed, cell).exists()
        assert (artifact_path(killed, cell).read_bytes()
                == artifact_path(ref, cell).read_bytes())

    @pytest.mark.parametrize("spec", ASYNC_GRID, ids=_ids(ASYNC_GRID))
    def test_async_vectorized_cell(self, grid_preset, spec, tmp_path):
        """The product's hook fires at batch-window ends (evaluation
        boundaries), so the killer targets one; the kill leaves a
        checkpoint behind and the resume is byte-identical."""
        cell = self._cell(spec, grid_preset)
        lookup = lambda name: spec
        ref, killed = tmp_path / "ref", tmp_path / "killed"
        run_cell(grid_preset, cell, ref, checkpoint_every=2,
                 scenario_lookup=lookup)

        def killer(engine, event, history, last):
            if event == 48:  # a window end, past >=1 checkpoint
                raise self.Kill

        with pytest.raises(self.Kill):
            run_cell(grid_preset, cell, killed, checkpoint_every=2,
                     round_hook=killer, scenario_lookup=lookup)
        assert checkpoint_path(killed, cell).is_file()
        assert not artifact_path(killed, cell).exists()
        _, resumed = run_cell(grid_preset, cell, killed, checkpoint_every=2,
                              scenario_lookup=lookup)
        assert resumed
        assert not checkpoint_path(killed, cell).exists()
        assert (artifact_path(killed, cell).read_bytes()
                == artifact_path(ref, cell).read_bytes())

    def test_async_serial_checkpoint_resumes_inside_batch_window(
        self, grid_preset, tmp_path
    ):
        """The mid-batch-window contract, end to end: an *oracle* run
        checkpoints at event 24 — inside the product's [16, 32) batch
        window — gets killed at 30, and resumes on the *product* to the
        same results as the uninterrupted oracle (only the provenance
        flag differs)."""
        import json

        spec = ASYNC_GRID[1]
        cell = self._cell(spec, grid_preset)
        lookup = lambda name: spec
        ref, killed = tmp_path / "ref", tmp_path / "killed"
        oracles.run_cell(grid_preset, cell, ref, scenario_lookup=lookup)

        def killer(engine, event, history, last):
            if event == 30:  # past the off-boundary checkpoint at 24
                raise self.Kill

        with pytest.raises(self.Kill):
            oracles.run_cell(grid_preset, cell, killed, checkpoint_every=3,
                             round_hook=killer, scenario_lookup=lookup)
        assert checkpoint_path(killed, cell).is_file()
        _, resumed = run_cell(grid_preset, cell, killed, checkpoint_every=3,
                              scenario_lookup=lookup)
        assert resumed
        a = json.loads(artifact_path(ref, cell).read_text())
        b = json.loads(artifact_path(killed, cell).read_text())
        assert a["engine"] == {"events": 96, "vectorized": False}
        assert b["engine"] == {"events": 96, "vectorized": True}
        assert a["results"] == b["results"]
        assert a["history"] == b["history"]

    def test_sync_vectorized_resume_matches_serial_artifact(
        self, grid_preset, tmp_path
    ):
        """Oracle and interruption compose: a killed product scenario
        cell resumes to the same result fields as an uninterrupted
        oracle run (only the provenance block differs)."""
        import json

        spec = SYNC_GRID[0]
        cell = self._cell(spec, grid_preset)
        lookup = lambda name: spec
        ref, killed = tmp_path / "ref", tmp_path / "killed"
        oracles.run_cell(grid_preset, cell, ref, scenario_lookup=lookup)

        def killer(engine, t, history, last_eval):
            if t == 9:
                raise self.Kill

        with pytest.raises(self.Kill):
            run_cell(grid_preset, cell, killed, checkpoint_every=2,
                     round_hook=killer, scenario_lookup=lookup)
        run_cell(grid_preset, cell, killed, checkpoint_every=2,
                 scenario_lookup=lookup)
        a = json.loads(artifact_path(ref, cell).read_text())
        b = json.loads(artifact_path(killed, cell).read_text())
        assert a["engine"] == {"vectorized": False}
        assert b["engine"] == {"vectorized": True}
        assert a["results"] == b["results"]
        assert a["history"] == b["history"]


class TestDeadJoinerRule:
    """A node whose join round lands inside its own failure window
    enrolls without a handoff — its row stays untouched in both
    engines (it cannot fetch neighbor state while down)."""

    def _spec(self, algorithm):
        return _spec(
            "dead-joiner",
            churn=ChurnSpec(
                initially_absent=(3,),
                events=(ChurnEventSpec(round=5, node=3, action="join"),),
            ),
            # the window covers the join round itself
            failures=FailureSpec(kind="window", nodes=(3,), start=4, end=7),
            algorithm=AlgorithmSpec(name=algorithm),
        )

    def test_sync_no_handoff_while_dead(self, grid_preset):
        compiled = compile_run(self._spec("d-psgd"), preset=grid_preset)
        engine, algo = compiled.engine, compiled.algorithm
        init_row = engine.state[3].copy()

        def hook(eng, t, hist, last_eval):
            if t <= 7:  # absent, then enrolled-but-dead: frozen
                np.testing.assert_array_equal(eng.state[3], init_row)

        engine.run(algo, hook=hook)
        # once the window lifts the node participates and drifts
        assert not np.array_equal(engine.state[3], init_row)

    def test_async_no_handoff_while_dead(self, grid_preset):
        compiled = compile_run(self._spec("async-d-psgd"),
                               preset=grid_preset, total_rounds=12)
        engine, policy = compiled.engine, compiled.algorithm
        init_row = engine.state[3].copy()

        def hook(eng, event, hist, last_eval):
            if eng._churn_round <= 7:
                np.testing.assert_array_equal(eng.state[3], init_row)

        engine.run(policy, hook=hook)
        assert not np.array_equal(engine.state[3], init_row)


class TestPartnerExclusion:
    """(c): dead/departed nodes are never gossip partners."""

    def _eligible(self, spec, n, t):
        present = spec.churn.build(n)
        mask = np.ones(n, dtype=bool)
        if present is not None:
            mask &= present.present(t)
        if spec.failures.active:
            f = spec.failures
            if f.start <= t <= f.end:
                mask[list(f.nodes)] = False
        return mask

    @pytest.mark.parametrize(
        "spec", [SYNC_GRID[0], SYNC_GRID[1]],
        ids=_ids([SYNC_GRID[0], SYNC_GRID[1]]),
    )
    def test_sync_mixing_isolates_ineligible_nodes(self, grid_preset, spec):
        """In the sync engine, "partner selection" is the mixing
        matrix: every round, each ineligible node's row and column must
        be identity — no weight flows in or out of it."""
        compiled = compile_run(spec, preset=grid_preset)
        n = grid_preset.n_nodes
        for t in range(1, 13):
            w = compiled.engine._mixing_for_round(t).toarray()
            expected = self._eligible(spec, n, t)
            for i in np.nonzero(~expected)[0]:
                others = [j for j in range(n) if j != i]
                assert w[i, i] == 1.0
                assert np.all(w[i, others] == 0.0), (t, i)
                assert np.all(w[others, i] == 0.0), (t, i)
            # eligible nodes keep a doubly stochastic mixing among
            # themselves
            np.testing.assert_allclose(w.sum(axis=0), 1.0)
            np.testing.assert_allclose(w.sum(axis=1), 1.0)

    # churn-bearing specs only: the spy reconstructs the round from
    # engine._churn_round, which a churn-free spec never advances
    @pytest.mark.parametrize("spec", ASYNC_GRID[:2], ids=_ids(ASYNC_GRID[:2]))
    def test_async_partner_never_ineligible(self, grid_preset, spec,
                                            monkeypatch):
        """Spy on every pairwise gossip of the oracle's per-event loop:
        the chosen partner must be eligible under the engine's mask, and
        that mask must match the spec-derived membership/alive sets. The
        product picks the same partners — (a) holds it to the oracle."""
        compiled = compile_run(spec, preset=grid_preset, total_rounds=12)
        engine, policy = oracles.serial(compiled.engine), compiled.algorithm
        n = grid_preset.n_nodes
        chosen = []
        orig = oracles.gossip

        def spy(engine, i, eligible=None, t=1):
            j = orig(engine, i, eligible, t)
            chosen.append(
                (j, None if eligible is None else eligible.copy(),
                 engine._churn_round)
            )
            return j

        monkeypatch.setattr(oracles, "gossip", spy)
        engine.run(policy)
        assert chosen
        for j, eligible, t in chosen:
            if eligible is not None:
                expected = self._eligible(spec, n, t)
                np.testing.assert_array_equal(eligible, expected)
                if j is not None:
                    assert eligible[j]

    @pytest.mark.parametrize("spec", ASYNC_GRID[:2], ids=_ids(ASYNC_GRID[:2]))
    def test_async_ineligible_rows_untouched(self, grid_preset, spec):
        """Complementary behavioral check: while a node is dead or
        departed its state row never changes — proving it neither
        activated nor was overwritten as a gossip partner."""
        compiled = compile_run(spec, preset=grid_preset, total_rounds=12)
        engine, policy = compiled.engine, compiled.algorithm
        n = grid_preset.n_nodes
        snapshots = {}

        def hook(eng, event, hist, last_eval):
            t = eng._churn_round if eng.churn is not None else 0
            mask = self._eligible(spec, n, max(t, 1))
            for i in np.nonzero(~mask)[0]:
                if i in snapshots:
                    np.testing.assert_array_equal(
                        eng.state[i], snapshots[i], err_msg=f"node {i}"
                    )
                else:
                    snapshots[i] = eng.state[i].copy()
            for i in list(snapshots):
                if mask[i]:
                    del snapshots[i]  # recovered/rejoined: may change

        engine.run(policy, hook=hook)
        assert True  # assertions live in the hook
