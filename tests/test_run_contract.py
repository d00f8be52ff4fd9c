"""One run contract for both engines.

``SimulationEngine.run`` and ``AsyncGossipEngine.run`` take the same
parameters — ``run(algorithm, *, start=0, history=None, hook=None)`` —
and call the same hook, ``hook(engine, at, history, last_eval)``.
Both hold their horizon from construction, :func:`build_run` builds
either kind from one algorithm name, and one name table decides which
kind a name is. The kill-and-resume case below is the oracle a
random-kill fuzzer drives: killed at any round or event boundary ≡
uninterrupted, byte for byte.
"""

import ast
import dataclasses
import inspect
import textwrap

import oracles
import pytest

from repro.algorithm_names import (
    ALGORITHM_KINDS,
    algorithm_kind,
    algorithms_of_kind,
)
from repro.experiments import PlanCell, runner
from repro.experiments.runner import build_run, execute_run, prepare
from repro.simulation import (
    AsyncGossipEngine,
    SimulationEngine,
    load_run_checkpoint,
    save_run_checkpoint,
)

#: per kind: (algorithm, horizon, cadence in rounds, first kill point)
CELLS = {
    "sync": ("skiptrain-constrained", 12, 2, 5),
    "async": ("async-skiptrain-constrained", 6, 1, 5),
}

#: a sync kill between evaluations: round 6, one round before the
#: (2, 2) cycle's evaluation at round 7, nearer than the cadence
MID_CYCLE = 6


class Kill(Exception):
    pass


def _bytes(engine, history):
    """The state matrix and every history column, as bytes."""
    record_cls = type(history.records[0])
    columns = record_cls.to_columns(history.records)
    return engine.state.tobytes(), {k: v.tobytes() for k, v in columns.items()}


class TestOneContract:
    def test_both_engines_name_the_same_run_parameters(self):
        sync = inspect.signature(SimulationEngine.run).parameters
        async_ = inspect.signature(AsyncGossipEngine.run).parameters
        assert list(sync) == list(async_) == [
            "self", "algorithm", "start", "history", "hook",
        ]
        for params in (sync, async_):
            assert all(p.kind is p.KEYWORD_ONLY
                       for name, p in params.items()
                       if name in ("start", "history", "hook"))

    @pytest.mark.parametrize("oracle", [True, False],
                             ids=["oracle", "product"])
    @pytest.mark.parametrize("kind", ["sync", "async", "sync-mid-cycle"])
    def test_killed_and_resumed_equals_straight(
        self, tiny_preset, tmp_path, kind, oracle
    ):
        """Killed at an evaluation point, or a sync run between two,
        the resumed run ends in the straight run's bytes. The oracle's
        async hook fires after every event, the product's once per
        event window, so the product's every call is an evaluation."""
        mid_cycle = kind == "sync-mid-cycle"
        name, horizon, cadence, kill_from = CELLS[kind.partition("-")[0]]
        if mid_cycle:
            kill_from = MID_CYCLE
        prepared = prepare(tiny_preset, 3, seed=4)

        def fresh():
            engine, algo = build_run(prepared, name, total_rounds=horizon,
                                     eval_every=cadence)
            return oracles.serial(engine) if oracle else engine, algo

        straight, algo = fresh()
        want = _bytes(straight, straight.run(algo))

        doomed, doomed_algo = fresh()
        path = tmp_path / "run.npz"
        seen = []

        def hook(engine, at, history, last_eval):
            seen.append((at, last_eval))
            if at >= kill_from and (last_eval < at) == mid_cycle:
                save_run_checkpoint(engine, doomed_algo, history, at, path)
                raise Kill

        with pytest.raises(Kill):
            doomed.run(doomed_algo, hook=hook)
        if kind == "async" and not oracle:
            assert all(at == last_eval for at, last_eval in seen)
        if mid_cycle:
            assert seen[-1][0] == MID_CYCLE

        engine, algo = fresh()
        at, history = load_run_checkpoint(engine, algo, path)
        assert at == seen[-1][0]
        got = _bytes(engine, engine.run(algo, start=at, history=history))
        assert got == want

    @pytest.mark.parametrize("kind", ["sync", "async"])
    def test_nonpositive_eval_node_sample_refused_at_construction(
        self, tiny_preset, kind
    ):
        """Both engines refuse an empty or negative evaluation sample
        when built, before any event or round runs."""
        name, horizon, cadence, _ = CELLS[kind]
        for sample in (0, -1):
            preset = dataclasses.replace(tiny_preset, eval_node_sample=sample)
            with pytest.raises(ValueError, match="eval_node_sample must be "
                                                 "positive when given"):
                build_run(prepare(preset, 3, seed=0), name,
                          total_rounds=horizon, eval_every=cadence)

    def test_execute_run_wraps_by_engine(self, tiny_preset):
        prepared = prepare(tiny_preset, 3, seed=0)
        for kind, result_cls in (("sync", runner.ExperimentResult),
                                 ("async", runner.AsyncExperimentResult)):
            name, horizon, cadence, _ = CELLS[kind]
            engine, algo = build_run(prepared, name, total_rounds=horizon,
                                     eval_every=cadence)
            result = execute_run(engine, algo, prepared.trace)
            assert type(result) is result_cls
            assert result.trace is prepared.trace

    def test_builder_wires_the_async_horizon(self, tiny_preset):
        prepared = prepare(tiny_preset, 3, seed=0)
        engine, _ = build_run(prepared, "async-skiptrain", total_rounds=5,
                              eval_every=2)
        n = tiny_preset.n_nodes
        assert engine.total_events == 5 * n
        assert engine.eval_every == 2 * n
        engine, _ = build_run(prepared, "async-skiptrain")
        assert engine.total_events == tiny_preset.total_rounds * n
        assert engine.eval_every == tiny_preset.eval_every * n

    def test_kind_only_keywords_refused_on_the_other_kind(self, tiny_preset):
        prepared = prepare(tiny_preset, 3, seed=0)
        with pytest.raises(ValueError, match="battery gate"):
            build_run(prepared, "skiptrain", enforce_budgets=True)

    def test_mixing_reaches_both_kinds(self, tiny_preset):
        """A ``mixing`` override is the graph of either engine: the sync
        engine gossips through it, the async one draws partners from
        its rows."""
        from repro.topology import metropolis_hastings_weights, ring_neighbors

        prepared = prepare(tiny_preset, 3, seed=0)
        n = tiny_preset.n_nodes
        ring = metropolis_hastings_weights(ring_neighbors(n))
        for name in ("skiptrain", "async-skiptrain"):
            engine, _ = build_run(prepared, name, mixing=ring)
            assert engine.mixing is ring
        assert [list(row) for row in engine._neighbors(1)] == [
            sorted({(i - 1) % n, (i + 1) % n}) for i in range(n)
        ]

    @pytest.mark.parametrize("fn", ["execute_run", "run_cell",
                                    "_execute_cell", "compile_run"])
    def test_no_kind_branch_in_the_cell_path(self, fn):
        from repro.experiments import sweep
        from repro.scenarios import compile as compile_module

        owner = {"execute_run": runner, "compile_run": compile_module}.get(
            fn, sweep
        )
        tree = ast.parse(textwrap.dedent(inspect.getsource(getattr(owner, fn))))
        for node in ast.walk(tree):
            if isinstance(node, (ast.If, ast.IfExp, ast.While)):
                test = ast.dump(node.test)
                assert "kind" not in test and "isinstance" not in test, (
                    fn, ast.unparse(node.test))


class TestOneNameTable:
    def test_every_name_has_a_factory(self):
        assert set(runner._FACTORIES) == set(ALGORITHM_KINDS)

    def test_readers_agree_with_the_table(self):
        from repro.cli import build_parser
        from repro.scenarios import AlgorithmSpec

        assert runner.ASYNC_ALGORITHMS == tuple(algorithms_of_kind("async"))
        parser = build_parser()
        for name, kind in ALGORITHM_KINDS.items():
            assert AlgorithmSpec(name=name).is_async == (kind == "async")
            assert PlanCell("tiny", name, 3, 0, 2).kind == kind
            argv = ["run", "--algorithm", name]
            assert parser.parse_args(argv).algorithm == name

    @pytest.mark.parametrize("name", sorted(ALGORITHM_KINDS))
    def test_builder_builds_the_named_kind(self, tiny_preset, name):
        prepared = prepare(tiny_preset, 3, seed=0)
        engine, _ = build_run(prepared, name, total_rounds=2)
        want = (AsyncGossipEngine if algorithm_kind(name) == "async"
                else SimulationEngine)
        assert type(engine) is want

    @pytest.mark.parametrize("bad", ["nope", "Async-D-PSGD", "SkipTrain"])
    def test_unknown_names_refused_everywhere(self, tiny_preset, bad):
        from repro.experiments.serve.jobs import parse_job_request
        from repro.scenarios import AlgorithmSpec

        with pytest.raises(KeyError, match="unknown algorithm"):
            algorithm_kind(bad)
        with pytest.raises(KeyError, match="unknown algorithm"):
            build_run(prepare(tiny_preset, 3, seed=0), bad)
        with pytest.raises(ValueError, match="unknown algorithm"):
            AlgorithmSpec(name=bad)
        with pytest.raises(ValueError, match="unknown algorithm"):
            PlanCell("tiny", bad, 3, 0, 2)
        with pytest.raises(ValueError, match="unknown algorithm"):
            parse_job_request(
                {"preset": "tiny", "algorithm": bad, "seeds": [0]},
                scenario_lookup=None,
                preset_lookup=lambda name: tiny_preset,
                known_scenarios={},
            )


class TestStaysDeleted:
    def test_async_twins_are_not_importable(self):
        import repro.experiments as experiments

        for name in ("build_async_run", "run_async_algorithm",
                     "_make_async_policy"):
            assert not hasattr(runner, name)
            assert not hasattr(experiments, name)
            assert name not in experiments.__all__
        with pytest.raises(ImportError):
            from repro.experiments import build_async_run  # noqa: F401
        with pytest.raises(ImportError):
            from repro.experiments.runner import (  # noqa: F401
                run_async_algorithm,
            )

    def test_per_kind_run_spellings_are_refused(self, tiny_preset):
        prepared = prepare(tiny_preset, 3, seed=0)
        engine, policy = build_run(prepared, "async-d-psgd", total_rounds=1)
        with pytest.raises(TypeError):
            engine.run(policy, activations_per_node=1)
        with pytest.raises(TypeError):
            engine.run(policy, start_event=0)
        engine, algo = build_run(prepared, "d-psgd", total_rounds=1)
        with pytest.raises(TypeError):
            engine.run(algo, round_hook=None)
        with pytest.raises(TypeError):
            engine.run(algo, 0)  # start is keyword-only
        with pytest.raises(TypeError):
            execute_run(engine, algo, prepared.trace, total_rounds=1)
        with pytest.raises(TypeError):
            execute_run(engine, algo, prepared.trace, eval_every=1)
