"""Scenario subsystem units: spec codec/validation, the churn
schedule, the registry, and compile_run wiring for both engines."""

import dataclasses
import json

import numpy as np
import oracles
import pytest

from repro.scenarios import (
    AlgorithmSpec,
    ChurnEventSpec,
    ChurnSchedule,
    ChurnSpec,
    DataSpec,
    EnergySpec,
    FailureSpec,
    ScenarioSpec,
    TopologySpec,
    apply_join_handoff,
    available_scenarios,
    get_scenario,
    register_scenario,
)
from repro.scenarios.compile import compile_run, scenario_trace
from repro.simulation.failures import CrashWindow, IndependentCrashes


@pytest.fixture
def scn_preset(tiny_preset):
    """The tiny preset under its own name, with budgets loose enough
    that constrained algorithms stay active."""
    return dataclasses.replace(
        tiny_preset, name="tiny", total_rounds=10, eval_every=2,
        battery_fraction=0.1,
    )


def tiny_scenario(**kw) -> ScenarioSpec:
    defaults = dict(name="t", preset="tiny", total_rounds=10, eval_every=2)
    defaults.update(kw)
    return ScenarioSpec(**defaults)


class TestSpecCodec:
    def test_round_trip_all_builtins(self):
        for name in available_scenarios():
            spec = get_scenario(name)
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_json_is_plain(self):
        spec = get_scenario("churn-async")
        obj = json.loads(spec.to_json())
        assert obj["name"] == "churn-async"
        assert obj["energy"]["enforce_budgets"] is True
        assert isinstance(obj["churn"]["events"], list)

    def test_unknown_keys_rejected_everywhere(self):
        good = get_scenario("churn-ramp").to_dict()
        for path in (
            ("typo",),
            ("topology", "typo"),
            ("churn", "typo"),
            ("failures", "typo"),
            ("energy", "typo"),
            ("data", "typo"),
            ("algorithm", "typo"),
        ):
            obj = json.loads(json.dumps(good))
            target = obj
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = 1
            with pytest.raises(ValueError, match="unknown key"):
                ScenarioSpec.from_dict(obj)

    def test_event_unknown_key_rejected(self):
        obj = get_scenario("churn-ramp").to_dict()
        obj["churn"]["events"][0]["typo"] = 1
        with pytest.raises(ValueError, match="unknown key"):
            ScenarioSpec.from_dict(obj)

    def test_missing_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            ScenarioSpec.from_dict({"preset": "cifar10-bench"})

    def test_defaults_fill_missing_subobjects(self):
        spec = ScenarioSpec.from_dict({"name": "minimal"})
        assert spec.topology == TopologySpec()
        assert not spec.churn.active
        assert not spec.failures.active
        assert spec.kind == "sync"


class TestSpecValidation:
    def test_bad_names(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="")
        with pytest.raises(ValueError):
            ScenarioSpec(name="a__b")
        with pytest.raises(ValueError):
            ScenarioSpec(name="a/b")

    def test_topology_validation(self):
        with pytest.raises(ValueError, match="kind"):
            TopologySpec(kind="torus")
        with pytest.raises(ValueError, match="period"):
            TopologySpec(kind="dynamic-periodic")
        with pytest.raises(ValueError, match="period"):
            TopologySpec(kind="regular", period=4)
        assert TopologySpec(kind="dynamic-random").is_dynamic

    def test_churn_event_validation(self):
        with pytest.raises(ValueError):
            ChurnEventSpec(round=0, node=0, action="join")
        with pytest.raises(ValueError):
            ChurnEventSpec(round=1, node=-1, action="join")
        with pytest.raises(ValueError):
            ChurnEventSpec(round=1, node=0, action="reboot")

    def test_failure_validation(self):
        with pytest.raises(ValueError):
            FailureSpec(kind="window")  # no nodes
        with pytest.raises(ValueError):
            FailureSpec(kind="window", nodes=(0,), start=3, end=2)
        with pytest.raises(ValueError):
            FailureSpec(kind="independent", p=0.0)
        with pytest.raises(ValueError):
            FailureSpec(kind="meteor")

    def test_energy_and_data_validation(self):
        with pytest.raises(ValueError):
            EnergySpec(battery_fraction=0.0)
        with pytest.raises(ValueError):
            DataSpec(partition="dirichlet")  # alpha required
        with pytest.raises(ValueError):
            DataSpec(partition="iid", alpha=0.5)
        with pytest.raises(ValueError):
            DataSpec(partition="sorted")

    def test_algorithm_gammas_must_pair(self):
        with pytest.raises(ValueError):
            AlgorithmSpec(name="skiptrain", gamma_train=2)
        AlgorithmSpec(name="skiptrain", gamma_train=2, gamma_sync=3)

    def test_enforce_budgets_is_async_only(self):
        with pytest.raises(ValueError, match="async"):
            ScenarioSpec(
                name="x",
                algorithm=AlgorithmSpec(name="skiptrain"),
                energy=EnergySpec(enforce_budgets=True),
            )
        ScenarioSpec(
            name="x",
            algorithm=AlgorithmSpec(name="async-skiptrain"),
            energy=EnergySpec(enforce_budgets=True),
        )


class TestChurnSchedule:
    def test_present_and_joins(self):
        cs = ChurnSchedule(
            4,
            [(3, 2, "leave"), (5, 2, "join"), (2, 3, "join")],
            initially_absent=[3],
        )
        assert cs.present(1).tolist() == [True, True, True, False]
        assert cs.present(2).tolist() == [True, True, True, True]
        assert cs.present(3).tolist() == [True, True, False, True]
        assert cs.present(4).tolist() == [True, True, False, True]
        assert cs.present(5).tolist() == [True, True, True, True]
        assert cs.joins_at(2) == (3,)
        assert cs.joins_at(5) == (2,)
        assert cs.joins_at(1) == ()
        assert cs.max_event_round == 5
        assert cs.has_events

    def test_alternation_enforced(self):
        with pytest.raises(ValueError, match="already present"):
            ChurnSchedule(2, [(2, 0, "join")])
        with pytest.raises(ValueError, match="already absent"):
            ChurnSchedule(2, [(2, 0, "leave")], initially_absent=[0])
        with pytest.raises(ValueError, match="already absent"):
            ChurnSchedule(2, [(2, 0, "leave"), (3, 0, "leave")])

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError, match="initially present"):
            ChurnSchedule(2, [], initially_absent=[0, 1])
        with pytest.raises(ValueError, match="empties"):
            ChurnSchedule(2, [(2, 0, "leave"), (2, 1, "leave")])

    def test_same_round_same_node_rejected(self):
        with pytest.raises(ValueError, match="same"):
            ChurnSchedule(2, [(2, 0, "leave"), (2, 0, "join")])

    def test_bounds(self):
        with pytest.raises(ValueError):
            ChurnSchedule(2, [(0, 0, "leave")])
        with pytest.raises(ValueError):
            ChurnSchedule(2, [(1, 5, "leave")])
        with pytest.raises(ValueError):
            ChurnSchedule(2, [], initially_absent=[7])
        with pytest.raises(ValueError):
            ChurnSchedule(0)
        with pytest.raises(ValueError):
            ChurnSchedule(2, [(1, 0, "explode")])
        with pytest.raises(ValueError):
            cs = ChurnSchedule(2)
            cs.present(0)

    def test_handoff_mean_and_fallback(self):
        state = np.arange(15.0).reshape(5, 3)
        before = state.copy()
        eligible = np.array([True, True, False, True, True])
        # joiner 0: neighbors 1,2,3 — 2 is ineligible → mean of rows 1,3
        apply_join_handoff(
            state, [0], lambda i: np.array([1, 2, 3]), eligible
        )
        np.testing.assert_array_equal(
            state[0], (before[1] + before[3]) / 2.0
        )
        # no eligible donor → row kept
        state2 = before.copy()
        apply_join_handoff(
            state2, [0], lambda i: np.array([2]), eligible
        )
        np.testing.assert_array_equal(state2[0], before[0])

    def test_same_round_joiners_do_not_donate(self):
        state = np.arange(12.0).reshape(4, 3)
        before = state.copy()
        eligible = np.ones(4, dtype=bool)
        # 0 and 1 join together and are mutual neighbors; each must
        # seed only from veterans 2,3
        apply_join_handoff(
            state, [0, 1],
            lambda i: np.array([1 - i, 2, 3]),
            eligible,
        )
        np.testing.assert_array_equal(state[0], (before[2] + before[3]) / 2)
        np.testing.assert_array_equal(state[1], (before[2] + before[3]) / 2)


class TestRegistry:
    def test_builtins_cover_preset_zoo_and_churn(self):
        from repro.experiments.presets import PRESETS

        names = available_scenarios()
        for preset_name in PRESETS:
            assert preset_name in names
        assert {"churn-ramp", "churn-crash", "churn-async"} <= set(names)

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario("churn-ramp")(lambda: None)

    def test_unknown_lookup(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")

    def test_name_mismatch_detected(self, monkeypatch):
        from repro.scenarios.registry import _REGISTRY

        monkeypatch.setitem(
            _REGISTRY, "tmp-mismatch", lambda: ScenarioSpec(name="other")
        )
        with pytest.raises(ValueError, match="must match"):
            get_scenario("tmp-mismatch")


class TestCompile:
    def test_default_scenario_matches_plain_runner_bitwise(self, scn_preset):
        """A scenario with every axis at default is byte-identical to
        the plain preset cell — same model init, same trajectory."""
        from repro.experiments import build_run, execute_run, prepare

        spec = tiny_scenario(algorithm=AlgorithmSpec(name="skiptrain"))
        compiled = compile_run(spec, preset=scn_preset)
        got = compiled.execute()
        prepared = prepare(scn_preset, 3, seed=0)
        ref = execute_run(*build_run(prepared, "skiptrain", total_rounds=10,
                                     eval_every=2), prepared.trace)
        # repr is shortest-round-trip exact; nan == nan under repr
        assert repr(got.history.records) == repr(ref.history.records)
        ref_engine, _ = build_run(prepared, "skiptrain", total_rounds=10,
                                  eval_every=2)
        np.testing.assert_array_equal(
            compiled.engine.state.shape, ref_engine.state.shape
        )

    @pytest.mark.parametrize("algorithm", ["skiptrain", "async-skiptrain"])
    def test_kind_follows_the_algorithm(self, scn_preset, algorithm):
        """The spec's algorithm decides the kind, its engine and its
        cells'; ``compile_run`` takes no ``kind`` to contradict it."""
        from repro.algorithm_names import algorithm_kind
        from repro.scenarios.compile import build_scenario_plan
        from repro.simulation import AsyncGossipEngine

        spec = tiny_scenario(algorithm=AlgorithmSpec(name=algorithm))
        assert spec.kind == algorithm_kind(algorithm)
        compiled = compile_run(spec, preset=scn_preset, total_rounds=1)
        assert compiled.kind == spec.kind
        assert isinstance(compiled.engine, AsyncGossipEngine) == (
            spec.kind == "async")
        [cell] = build_scenario_plan(spec, seeds=(0,), preset=scn_preset)
        assert cell.kind == spec.kind
        with pytest.raises(TypeError, match="kind"):
            compile_run(spec, kind=spec.kind, preset=scn_preset)

    def test_async_dynamic_topology_compiles_and_matches_oracle(
        self, scn_preset
    ):
        """An async scenario over a dynamic topology compiles; every
        event draws its partner from its round's graph, and the oracle's
        per-event loop agrees with the product bit for bit."""
        spec = tiny_scenario(
            algorithm=AlgorithmSpec(name="async-skiptrain"),
            topology=TopologySpec(kind="dynamic-random"),
        )
        oracle = compile_run(spec, preset=scn_preset)
        oracles.serial(oracle.engine)
        product = compile_run(spec, preset=scn_preset)
        want, got = oracle.execute(), product.execute()
        np.testing.assert_array_equal(oracle.engine.state, product.engine.state)
        assert repr(want.history.records) == repr(got.history.records)
        engine = product.engine
        assert any(not np.array_equal(a, b)
                   for a, b in zip(engine._neighbors(1), engine._neighbors(2)))

    def test_async_vectorized_compiles(self, scn_preset):
        """An async scenario compiles onto the stacked event engine."""
        from repro.nn.batched import BatchedTrainer

        spec = tiny_scenario(algorithm=AlgorithmSpec(name="async-skiptrain"))
        compiled = compile_run(spec, preset=scn_preset)
        assert isinstance(compiled.engine.local_trainer.stacked, BatchedTrainer)

    def test_churn_with_allreduce_freezes_departed_rows(self, scn_preset):
        """Churn composes with exact all-reduce: the departed node's
        row stays as it left while the members average exactly."""
        spec = tiny_scenario(
            algorithm=AlgorithmSpec(name="d-psgd-allreduce"),
            churn=ChurnSpec(events=(ChurnEventSpec(3, 0, "leave"),)),
        )
        compiled = compile_run(spec, preset=scn_preset)
        rows = {}
        compiled.execute(lambda eng, at, hist, last_eval:
                         rows.setdefault(at, eng.state.copy()))
        for t in range(3, 11):
            np.testing.assert_array_equal(rows[t][0], rows[2][0])
            assert np.all(rows[t][1:] == rows[t][1])
        assert not np.array_equal(rows[10][1], rows[2][1])

    def test_failure_node_out_of_range(self, scn_preset):
        spec = tiny_scenario(
            failures=FailureSpec(kind="window", nodes=(99,), start=1, end=2),
        )
        with pytest.raises(ValueError, match="out of range"):
            compile_run(spec, preset=scn_preset)

    def test_failure_models_built(self, scn_preset):
        spec = tiny_scenario(
            failures=FailureSpec(kind="window", nodes=(1,), start=2, end=3)
        )
        compiled = compile_run(spec, preset=scn_preset)
        assert isinstance(compiled.failure_model, CrashWindow)
        spec2 = tiny_scenario(failures=FailureSpec(kind="independent", p=0.2))
        compiled2 = compile_run(spec2, preset=scn_preset)
        assert isinstance(compiled2.failure_model, IndependentCrashes)

    def test_battery_override_changes_budgets(self, scn_preset):
        base = compile_run(tiny_scenario(), preset=scn_preset)
        boosted = compile_run(
            tiny_scenario(energy=EnergySpec(battery_fraction=1.0)),
            preset=scn_preset,
        )
        assert (
            boosted.prepared.trace.budget_rounds
            >= base.prepared.trace.budget_rounds
        ).all()
        assert (
            boosted.prepared.trace.budget_rounds.sum()
            > base.prepared.trace.budget_rounds.sum()
        )

    @pytest.mark.parametrize("partition,alpha", [("iid", None),
                                                 ("dirichlet", 0.3)])
    def test_partition_override(self, scn_preset, partition, alpha):
        spec = tiny_scenario(data=DataSpec(partition=partition, alpha=alpha))
        compiled = compile_run(spec, preset=scn_preset)
        default = compile_run(tiny_scenario(), preset=scn_preset)
        # same synthesized dataset, different sample→node assignment
        np.testing.assert_array_equal(
            compiled.prepared.train.x, default.prepared.train.x
        )
        got = [sorted(p.tolist()) for p in compiled.prepared.partition]
        ref = [sorted(p.tolist()) for p in default.prepared.partition]
        assert got != ref

    @pytest.mark.parametrize("kind,period", [("dynamic-random", None),
                                             ("dynamic-periodic", 4)])
    def test_dynamic_topology_wired_sync(self, scn_preset, kind, period):
        spec = tiny_scenario(topology=TopologySpec(kind=kind, period=period))
        compiled = compile_run(spec, preset=scn_preset)
        engine = compiled.engine
        assert engine._mixing_provider is not None
        w1, w2 = engine._mixing_provider(1), engine._mixing_provider(2)
        if kind == "dynamic-random":
            assert not np.array_equal(w1.toarray(), w2.toarray())  # rewired
        else:
            assert np.array_equal(w1.toarray(), w2.toarray())  # same epoch
        compile_run(spec, preset=scn_preset).execute()  # end-to-end

    def test_dynamic_with_churn_masks_departed(self, scn_preset):
        spec = tiny_scenario(
            topology=TopologySpec(kind="dynamic-random"),
            churn=ChurnSpec(events=(ChurnEventSpec(3, 1, "leave"),)),
        )
        compiled = compile_run(spec, preset=scn_preset)
        w = compiled.engine._mixing_for_round(5).toarray()
        assert w[1, 1] == 1.0
        assert np.all(w[1, [j for j in range(8) if j != 1]] == 0)
        assert np.all(w[[j for j in range(8) if j != 1], 1] == 0)

    def test_gamma_override_changes_schedule(self, scn_preset):
        spec = tiny_scenario(
            algorithm=AlgorithmSpec(name="skiptrain", gamma_train=1,
                                    gamma_sync=3)
        )
        compiled = compile_run(spec, preset=scn_preset)
        assert compiled.algorithm.schedule.gamma_train == 1
        assert compiled.algorithm.schedule.gamma_sync == 3

    def test_seed_and_rounds_overrides(self, scn_preset):
        compiled = compile_run(tiny_scenario(), preset=scn_preset, seed=7,
                               total_rounds=4)
        assert compiled.seed == 7
        assert compiled.total_rounds == 4
        assert compiled.prepared.seed == 7

    def test_run_scenario_by_name(self, scn_preset, monkeypatch):
        # bench-scale builtin, clipped to 2 rounds for speed
        result = compile_run(get_scenario("churn-ramp"), total_rounds=2).execute()
        assert result.history.records


class TestEngineChurnBehavior:
    def churn_spec(self):
        return tiny_scenario(
            algorithm=AlgorithmSpec(name="d-psgd"),
            churn=ChurnSpec(
                initially_absent=(2,),
                events=(
                    ChurnEventSpec(round=4, node=2, action="join"),
                    ChurnEventSpec(round=6, node=5, action="leave"),
                ),
            ),
        )

    def test_sync_departed_frozen_and_excluded(self, scn_preset):
        compiled = compile_run(self.churn_spec(), preset=scn_preset)
        engine, algo = compiled.engine, compiled.algorithm
        rows = {}

        def hook(eng, t, hist, last_eval):
            if t == 6:
                rows["left"] = eng.state[5].copy()
                rows["absent_pre"] = None
            if t > 6:
                np.testing.assert_array_equal(eng.state[5], rows["left"])
                w = eng._mixing_for_round(t).toarray()
                others = [j for j in range(8) if j != 5]
                assert w[5, 5] == 1.0 and np.all(w[5, others] == 0)
                assert np.all(w[others, 5] == 0)

        engine.run(algo, hook=hook)
        assert "left" in rows

    def test_sync_absent_node_never_trains_before_join(self, scn_preset):
        compiled = compile_run(self.churn_spec(), preset=scn_preset)
        engine, algo = compiled.engine, compiled.algorithm
        init_row = engine.state[2].copy()

        def hook(eng, t, hist, last_eval):
            if t < 4:
                np.testing.assert_array_equal(eng.state[2], init_row)

        engine.run(algo, hook=hook)
        # after joining at round 4 the node trains and drifts
        assert not np.array_equal(engine.state[2], init_row)

    def test_sync_join_handoff_is_neighbor_mean(self, scn_preset):
        compiled = compile_run(self.churn_spec(), preset=scn_preset)
        engine, algo = compiled.engine, compiled.algorithm
        seen = {}
        orig = engine.local_trainer.train

        def spy_train(state, ids):
            # called after _apply_churn within the same round
            t = seen.get("t")
            if t == 4 and "handoff" not in seen:
                seen["handoff"] = engine.state[2].copy()
            return orig(state, ids)

        engine.local_trainer.train = spy_train

        def hook(eng, t, hist, last_eval):
            if t == 3:
                w4 = eng._mixing_for_round(4)
                cols = w4.indices[w4.indptr[2]:w4.indptr[3]]
                nbrs = [int(c) for c in cols if c != 2]
                seen["expected"] = eng.state[nbrs].mean(axis=0)
            seen["t"] = t + 1

        seen["t"] = 1
        engine.run(algo, hook=hook)
        np.testing.assert_array_equal(seen["handoff"], seen["expected"])

    def test_async_absent_and_departed_rows_frozen(self, scn_preset):
        spec = self.churn_spec().replace(
            algorithm=AlgorithmSpec(name="async-d-psgd")
        )
        compiled = compile_run(spec, preset=scn_preset, total_rounds=10)
        engine, policy = compiled.engine, compiled.algorithm
        init_row2 = engine.state[2].copy()
        snap = {}

        def hook(eng, event, hist, last_eval):
            if eng._churn_round < 4:
                # node 2 has not joined: row must still be the init
                np.testing.assert_array_equal(eng.state[2], init_row2)
            if eng._churn_round >= 6 and "left" not in snap:
                snap["left"] = eng.state[5].copy()
            elif "left" in snap:
                np.testing.assert_array_equal(eng.state[5], snap["left"])

        engine.run(policy, hook=hook)
        assert "left" in snap
        assert not np.array_equal(engine.state[2], init_row2)

    def test_async_partner_choice_respects_eligibility(
        self, scn_preset, monkeypatch
    ):
        """Spied on the oracle's per-event gossip; the product picks the
        same partners (the conformance suite's oracle ≡ product)."""
        spec = self.churn_spec().replace(
            algorithm=AlgorithmSpec(name="async-d-psgd"),
            failures=FailureSpec(kind="window", nodes=(1,), start=3, end=8),
        )
        compiled = compile_run(spec, preset=scn_preset, total_rounds=10)
        engine, policy = oracles.serial(compiled.engine), compiled.algorithm
        chosen = []
        orig = oracles.gossip

        def spy(engine, i, eligible=None, t=1):
            j = orig(engine, i, eligible, t)
            chosen.append((j, None if eligible is None else eligible.copy()))
            return j

        monkeypatch.setattr(oracles, "gossip", spy)
        engine.run(policy)
        assert chosen
        for j, eligible in chosen:
            if j is not None and eligible is not None:
                assert eligible[j]


class TestMixingProviderBounds:
    def test_static_mask_cache_bounded_under_random_failures(
        self, scn_preset
    ):
        """An rng-backed failure model draws a fresh alive mask nearly
        every round; the engine's mask memo must stay bounded instead of
        caching one matrix per round forever."""
        from repro.simulation.engine import MASK_MEMO

        spec = tiny_scenario(
            failures=FailureSpec(kind="independent", p=0.4),
            total_rounds=300,
        )
        engine = compile_run(spec, preset=scn_preset).engine
        assert isinstance(engine.failure_model, IndependentCrashes)
        for t in range(1, 301):
            engine._mixing_for_round(t)
        assert MASK_MEMO == 64
        assert 0 < len(engine._masked._masks) <= MASK_MEMO


class TestScenarioTrace:
    def test_trace_shape_and_determinism(self, scn_preset):
        spec = tiny_scenario(
            churn=ChurnSpec(events=(ChurnEventSpec(3, 1, "leave"),)),
        )
        t1 = scenario_trace(spec, preset=scn_preset)
        t2 = scenario_trace(spec, preset=scn_preset)
        assert t1 == t2
        assert t1["schema"] == "repro/scenario-trace/v1"
        assert t1["kind"] == "sync"
        assert len(t1["state_sha256"]) == 64
        assert t1["curve"][0]["round"] >= 1
        # the trace must survive a JSON round trip exactly
        assert json.loads(json.dumps(t1)) == t1

    def test_trace_differs_across_seeds(self, scn_preset):
        spec = tiny_scenario()
        a = scenario_trace(spec, preset=scn_preset, seed=0)
        b = scenario_trace(spec, preset=scn_preset, seed=1)
        assert a["state_sha256"] != b["state_sha256"]
