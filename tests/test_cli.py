"""CLI tests (invoking main() directly with argv lists)."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.preset == "cifar10-bench"
        assert args.algorithm == "skiptrain"

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "sgd"])

    def test_table_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9"])


class TestCommands:
    def test_presets(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "cifar10-bench" in out
        assert "femnist-paper" in out

    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        assert "89834" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table", "2"]) == 0
        out = capsys.readouterr().out
        assert "Xiaomi 12 Pro" in out

    def test_run_gamma_validation(self, capsys):
        assert main(["run", "--gamma-train", "2"]) == 2
        assert "gamma" in capsys.readouterr().err

    def test_run_small(self, capsys):
        code = main([
            "run", "--preset", "cifar10-bench", "--algorithm", "skiptrain",
            "--degree", "3", "--rounds", "8", "--gamma-train", "2",
            "--gamma-sync", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "total training energy" in out
        assert "accuracy" in out

    def test_gridsearch_small(self, capsys, tmp_path, monkeypatch):
        """The grid is a plan: its four cells run into results/."""
        monkeypatch.chdir(tmp_path)
        code = main([
            "gridsearch", "--preset", "cifar10-bench", "--degree", "3",
            "--rounds", "8", "--max-gamma", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "best: Γtrain=" in out
        assert len(list((tmp_path / "results" / "raw").glob("*__val.json"))) == 4

    @pytest.mark.parametrize("argv", [
        ["sweep", "--degrees", "0", "--seeds", "0", "--dry-run"],
        ["run", "--degree", "0"],
        ["convergence", "--degree", "0"],
        ["fairness", "--degree", "0"],
        ["run", "--degree", "99"],
        ["run", "--rounds", "0"],
        ["gridsearch", "--rounds", "0"],
        ["gridsearch", "--max-gamma", "0"],
        ["async-run", "--eval-every", "0"],
    ], ids=" ".join)
    def test_bad_values_exit_2_before_any_cell(self, argv, capsys, tmp_path,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and out == "", err
        assert not (tmp_path / "results").exists()

    def test_new_subcommands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["fairness"]).command == "fairness"
        args = parser.parse_args(["sweep", "--seeds", "1", "2"])
        assert args.seeds == [1, 2]
        assert parser.parse_args(["convergence"]).command == "convergence"

    def test_sweep_orchestration_flags_parse(self):
        args = build_parser().parse_args([
            "sweep", "--shard", "2/4", "--results-dir", "out",
            "--checkpoint-every", "32", "--degrees", "3", "4",
            "--rounds", "16", "--dry-run", "--jobs", "4",
        ])
        assert args.shard == "2/4"
        assert args.results_dir == "out"
        assert args.checkpoint_every == 32
        assert args.degrees == [3, 4]
        assert args.dry_run and not hasattr(args, "vectorized")
        assert args.jobs == 4

    def test_aggregate_parses(self):
        args = build_parser().parse_args(["aggregate", "--results-dir", "r"])
        assert args.command == "aggregate" and args.results_dir == "r"

    def test_from_artifacts_flag_parses(self):
        args = build_parser().parse_args(["table", "3", "--from-artifacts", "r"])
        assert args.from_artifacts == "r"
        args = build_parser().parse_args(["figure", "1", "--from-artifacts", "r"])
        assert args.from_artifacts == "r"

    def test_async_run_parses_with_defaults(self):
        args = build_parser().parse_args(["async-run"])
        assert args.preset == "cifar10-bench-async"
        assert args.algorithm == "async-skiptrain"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["async-run", "--algorithm", "skiptrain"])

    def test_sweep_kind_flag(self):
        args = build_parser().parse_args(["sweep", "--kind", "async"])
        assert args.kind == "async"
        # default is None so --scenario can tell "explicit sync" from
        # "unspecified" (plain sweeps resolve None to sync)
        assert build_parser().parse_args(["sweep"]).kind is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--kind", "quantum"])

    def test_async_sweep_dry_run(self, capsys):
        assert main(["sweep", "--kind", "async",
                     "--preset", "cifar10-bench-async", "--dry-run"]) == 0
        assert "pending" in capsys.readouterr().out

    def test_async_run_vectorized_flag(self):
        """Every async run batches its events: the flag that chose it
        is gone."""
        assert not hasattr(build_parser().parse_args(["async-run"]),
                           "vectorized")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["async-run", "--vectorized"])

    def test_jobs_auto_parses(self, capsys):
        assert build_parser().parse_args(["sweep", "--jobs", "auto"]).jobs \
            == "auto"
        assert build_parser().parse_args(["sweep", "--jobs", "4"]).jobs == 4
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--jobs", "many"])
        assert main(["sweep", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_sweep_kind_algorithm_mismatch_fails_fast(self, capsys):
        assert main(["sweep", "--kind", "async",
                     "--preset", "cifar10-bench-async",
                     "--algorithms", "skiptrain", "--dry-run"]) == 2
        assert "--kind async supports" in capsys.readouterr().err
        assert main(["sweep", "--algorithms", "async-skiptrain",
                     "--dry-run"]) == 2
        assert "--kind async" in capsys.readouterr().err

    def test_sweep_unknown_algorithm_exits_before_any_preparation(
        self, capsys, monkeypatch, tmp_path
    ):
        import repro.experiments.sweep as sweep

        def no_prep(*args, **kwargs):
            raise AssertionError("a dataset was prepared for a bad name")

        monkeypatch.setattr(sweep, "prepare_data", no_prep)
        for argv in (["--algorithms", "skiptrain", "nope"],
                     ["--algorithms", "SkipTrain"],
                     ["--kind", "async", "--preset", "cifar10-bench-async",
                      "--algorithms", "nope"]):
            assert main(["sweep", *argv, "--rounds", "2",
                         "--results-dir", str(tmp_path)]) == 2
            assert "unknown algorithm" in capsys.readouterr().err
        assert not (tmp_path / "raw").exists()

    def test_sweep_kind_preset_mismatch_fails_fast(self, capsys):
        assert main(["sweep", "--kind", "async", "--dry-run"]) == 2
        assert "-async preset" in capsys.readouterr().err
        assert main(["sweep", "--preset", "cifar10-bench-async",
                     "--dry-run"]) == 2
        assert "--kind async" in capsys.readouterr().err

    def test_async_run_small(self, capsys):
        code = main([
            "async-run", "--preset", "cifar10-bench-async", "--degree", "3",
            "--activations", "4", "--eval-every", "2",
            "--gamma-train", "2", "--gamma-sync", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "total training energy" in out
        assert "t=" in out and "accuracy" in out

    @pytest.mark.parametrize("argv", [
        ["run", "--preset", "nope"],
        ["async-run", "--preset", "nope"],
        ["table", "3", "--preset", "nope"],
        ["figure", "1", "--preset", "nope"],
        ["figure", "7", "--femnist-preset", "nope"],
        ["gridsearch", "--preset", "nope"],
        ["fairness", "--preset", "nope"],
        ["convergence", "--preset", "nope"],
        ["sweep", "--preset", "nope"],
    ], ids=lambda argv: "-".join(argv[:-2]))
    def test_unknown_preset_is_an_error_line(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown preset 'nope'"), err


class TestLoadgenErrors:
    """Bad ``repro loadgen`` input exits 2 with an ``error:`` line on
    stderr, before any request is sent."""

    URL = ["--url", "http://127.0.0.1:9"]

    @pytest.mark.parametrize(("args", "message"), [
        (["--mix", "churn-async=0"], "must be positive"),
        (["--mix", "churn-async=abc"], "could not convert"),
        (["--mix", "churn-async", "--process", "trace"], "needs --trace-file"),
    ])
    def test_bad_input_exits_2(self, args, message, capsys):
        assert main(["loadgen", *self.URL, *args]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and message in err, err
        assert out == ""

    def test_missing_trace_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["loadgen", *self.URL, "--mix", "churn-async",
                     "--process", "trace", "--trace-file", str(missing)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and str(missing) in err, err
        assert out == ""


class TestArtifactPipeline:
    """End-to-end T1→T2→T3 through the CLI on a seconds-fast preset."""

    @pytest.fixture
    def micro(self, tiny_preset, monkeypatch):
        import dataclasses

        from repro.experiments.presets import PRESETS

        preset = dataclasses.replace(tiny_preset, name="micro-cli",
                                     total_rounds=12, eval_every=2)
        monkeypatch.setitem(PRESETS, "micro-cli", lambda: preset)
        return preset

    def test_sweep_aggregate_render(self, micro, tmp_path, capsys):
        res = str(tmp_path / "results")
        argv = ["sweep", "--preset", "micro-cli",
                "--algorithms", "skiptrain", "d-psgd",
                "--seeds", "0", "--results-dir", res,
                "--checkpoint-every", "4"]
        assert main(argv) == 0
        assert "ran 2" in capsys.readouterr().out

        assert main(argv) == 0  # resumable: everything already done
        assert "skipped 2" in capsys.readouterr().out

        assert main(["aggregate", "--results-dir", res]) == 0
        out = capsys.readouterr().out
        assert "skiptrain" in out and "summary.csv" in out
        assert (tmp_path / "results" / "summary.csv").is_file()

        assert main(["table", "3", "--preset", "micro-cli",
                     "--from-artifacts", res]) == 0
        assert "from artifacts" in capsys.readouterr().out

    def test_sweep_dry_run(self, micro, tmp_path, capsys):
        res = str(tmp_path / "results")
        assert main(["sweep", "--preset", "micro-cli", "--seeds", "0",
                     "--results-dir", res, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "[pending]" in out and "2 of 2 cells" in out

    def test_sweep_dry_run_shows_the_row_plan(self, tmp_path, capsys, monkeypatch):
        """Dry-run cell lines carry the row plan of a call that trains
        every node, from ``row_bytes``: rows per tile, waves and the
        lane workspace; ``--jobs 2`` plans on a worker's share."""
        from repro import lanes
        from repro.experiments import get_preset
        from repro.nn.batched import row_bytes

        monkeypatch.setattr(lanes, "affinity_cpus", lambda: (2, "test"))
        res = str(tmp_path / "results")
        fleet = ["sweep", "--preset", "n16384-fleet", "--algorithms",
                 "skiptrain", "--degrees", "4", "--seeds", "0", "1",
                 "--results-dir", res, "--dry-run"]
        assert main(fleet) == 0
        out = capsys.readouterr().out
        fleet_bytes = row_bytes(
            get_preset("n16384-fleet").model_factory(np.random.default_rng(0)),
            4, (1, 4, 4),
        )
        assert fleet_bytes == 3328
        line = (f"16384 rows as <= 1171-row tiles, 7 waves on 2 lanes, "
                f"lane workspace {1171 * fleet_bytes / 2**20:.1f} MiB")
        assert out.count(line) == 2
        assert main([*fleet, "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("16384 rows as <= 1171-row tiles, 14 waves on 1 lane,") == 2
        assert main(["sweep", "--preset", "cifar10-paper", "--algorithms",
                     "skiptrain", "--degrees", "6", "--seeds", "0",
                     "--results-dir", res, "--dry-run"]) == 0
        assert ("256 rows as <= 1-row tiles, 128 waves on 2 lanes, "
                "lane workspace 156.4 MiB") in capsys.readouterr().out

    def test_bad_shard_spec(self, capsys):
        assert main(["sweep", "--shard", "9/4", "--dry-run"]) == 2
        assert "shard" in capsys.readouterr().err

    def test_bad_jobs_rejected(self, capsys):
        assert main(["sweep", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_pool_flag_is_gone(self, capsys):
        """``--jobs N`` is the persistent pool; there is no backend to
        pick, so argparse rejects the old selector."""
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--jobs", "2", "--pool", "fork", "--dry-run"])
        assert exit_info.value.code == 2
        assert "--pool" in capsys.readouterr().err

    def test_sweep_jobs_pool(self, micro, tmp_path, capsys):
        """The --jobs pool through the CLI: same artifacts, resumable."""
        res = str(tmp_path / "results")
        argv = ["sweep", "--preset", "micro-cli",
                "--algorithms", "skiptrain", "d-psgd",
                "--seeds", "0", "1", "--results-dir", res, "--jobs", "2"]
        assert main(argv) == 0
        assert "ran 4" in capsys.readouterr().out
        assert main(argv) == 0
        assert "skipped 4" in capsys.readouterr().out

    def test_from_artifacts_wrong_targets(self, capsys):
        assert main(["table", "1", "--from-artifacts", "x"]) == 2
        assert "static" in capsys.readouterr().err
        assert main(["figure", "7", "--from-artifacts", "x"]) == 2
        assert "figures 1 and 4" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["table", "3"], ["table", "4"], ["figure", "1"], ["figure", "4"],
    ], ids=" ".join)
    def test_paper_output_runs_its_plan_once(self, micro, argv, tmp_path,
                                             monkeypatch, capsys):
        """A paper output runs its missing cells into results/ and
        renders; a rerun runs none and prints the same; --from-artifacts
        only renders the same."""
        monkeypatch.chdir(tmp_path)
        argv = [*argv, "--preset", "micro-cli"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert " ran " in first.err
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out and " ran " not in second.err
        assert main([*argv, "--from-artifacts", "results"]) == 0
        assert capsys.readouterr().out == first.out

    def test_async_sweep_aggregate(self, tiny_preset, monkeypatch,
                                   tmp_path, capsys):
        """The async T1→T2 pipeline through the CLI: resumable sweep,
        default async algorithms, aggregation over time-keyed cells."""
        import dataclasses

        from repro.experiments import async_variant
        from repro.experiments.presets import PRESETS

        preset = async_variant(dataclasses.replace(
            tiny_preset, name="micro-cli", total_rounds=8, eval_every=2))
        monkeypatch.setitem(PRESETS, "micro-cli-async", lambda: preset)
        res = str(tmp_path / "results")
        argv = ["sweep", "--kind", "async", "--preset", "micro-cli-async",
                "--seeds", "0", "--results-dir", res,
                "--checkpoint-every", "2"]
        assert main(argv) == 0
        assert "ran 2" in capsys.readouterr().out  # default async algos

        assert main(argv) == 0
        assert "skipped 2" in capsys.readouterr().out

        assert main(["aggregate", "--results-dir", res]) == 0
        out = capsys.readouterr().out
        assert "async-skiptrain" in out and "async-d-psgd" in out
        assert (tmp_path / "results" / "summary.csv").is_file()

    def test_missing_artifacts_reported(self, tmp_path, capsys):
        empty = str(tmp_path)
        assert main(["table", "3", "--from-artifacts", empty]) == 1
        assert "repro sweep" in capsys.readouterr().err
        assert main(["figure", "1", "--from-artifacts", empty]) == 1
        assert "repro sweep" in capsys.readouterr().err
        assert main(["figure", "4", "--from-artifacts", empty]) == 1
        assert "without --from-artifacts" in capsys.readouterr().err
        assert main(["aggregate", "--results-dir", empty]) == 1
        assert "no raw artifacts" in capsys.readouterr().err


class TestScenarioCommands:
    """The `repro scenario` family and `repro sweep --scenario`."""

    @pytest.fixture
    def micro_scenario(self, tiny_preset, monkeypatch):
        """A tiny churn scenario registered under a throwaway name,
        with its preset patched into the preset registry."""
        import dataclasses

        from repro.experiments.presets import PRESETS
        from repro.scenarios import (
            AlgorithmSpec,
            ChurnEventSpec,
            ChurnSpec,
            ScenarioSpec,
        )
        from repro.scenarios.registry import _REGISTRY

        preset = dataclasses.replace(tiny_preset, name="micro-cli",
                                     total_rounds=8, eval_every=2)
        monkeypatch.setitem(PRESETS, "micro-cli", lambda: preset)
        spec = ScenarioSpec(
            name="micro-churn",
            preset="micro-cli",
            total_rounds=8,
            eval_every=2,
            churn=ChurnSpec(events=(ChurnEventSpec(3, 1, "leave"),)),
            algorithm=AlgorithmSpec(name="skiptrain"),
        )
        monkeypatch.setitem(_REGISTRY, "micro-churn", lambda: spec)
        return spec

    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "churn-ramp" in out and "churn-async" in out
        assert "kind=async" in out

    def test_scenario_show_round_trips(self, capsys):
        from repro.scenarios import ScenarioSpec, get_scenario

        assert main(["scenario", "show", "churn-crash"]) == 0
        out = capsys.readouterr().out
        assert ScenarioSpec.from_json(out) == get_scenario("churn-crash")

    def test_scenario_unknown_name(self, capsys):
        for cmd in (["scenario", "show", "nope"],
                    ["scenario", "run", "nope"],
                    ["scenario", "trace", "nope"]):
            assert main(cmd) == 2
            assert "unknown scenario" in capsys.readouterr().err

    def test_scenario_run(self, micro_scenario, capsys):
        assert main(["scenario", "run", "micro-churn", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "scenario=micro-churn" in out and "seed=1" in out
        assert "round " in out and "total training energy" in out

    def test_scenario_trace_is_json(self, micro_scenario, capsys):
        import json

        assert main(["scenario", "trace", "micro-churn"]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["scenario"] == "micro-churn"
        assert len(trace["state_sha256"]) == 64

    def test_sweep_scenario_end_to_end(self, micro_scenario, tmp_path,
                                       capsys):
        res = str(tmp_path / "results")
        argv = ["sweep", "--scenario", "micro-churn", "--seeds", "0",
                "--results-dir", res, "--checkpoint-every", "2"]
        assert main(argv) == 0
        assert "ran 1" in capsys.readouterr().out
        assert main(argv) == 0  # resumable
        assert "skipped 1" in capsys.readouterr().out
        assert main(["aggregate", "--results-dir", res]) == 0
        out = capsys.readouterr().out
        assert "micro-churn" in out

    def test_sweep_scenario_dry_run(self, micro_scenario, tmp_path, capsys):
        assert main(["sweep", "--scenario", "micro-churn", "--seeds",
                     "0", "1", "--results-dir", str(tmp_path),
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "scn-micro-churn" in out and "2 of 2 cells" in out

    def test_sweep_scenario_conflicts(self, micro_scenario, capsys):
        assert main(["sweep", "--scenario", "micro-churn",
                     "--preset", "cifar10-bench"]) == 2
        assert "--preset" in capsys.readouterr().err
        assert main(["sweep", "--scenario", "micro-churn",
                     "--algorithms", "d-psgd"]) == 2
        assert "--algorithms" in capsys.readouterr().err
        assert main(["sweep", "--scenario", "micro-churn",
                     "--degrees", "3"]) == 2
        assert "--degree" in capsys.readouterr().err

    def test_sweep_scenario_unknown(self, capsys):
        assert main(["sweep", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_sweep_scenario_kind_contradiction(self, capsys):
        assert main(["sweep", "--scenario", "churn-ramp",
                     "--kind", "async"]) == 2
        assert "kind" in capsys.readouterr().err
        # the inverse contradiction errors too: an explicit --kind sync
        # on an async scenario is not silently overridden
        assert main(["sweep", "--scenario", "churn-async",
                     "--kind", "sync"]) == 2
        assert "kind 'async'" in capsys.readouterr().err

    def test_invalid_composition_fails_cleanly_everywhere(
        self, monkeypatch, capsys
    ):
        """A registered scenario whose composition only compile_run can
        reject (churn × exact all-reduce) exits 2 with a clean error
        from run, trace, and sweep — never a traceback."""
        from repro.scenarios import (
            AlgorithmSpec,
            ChurnEventSpec,
            ChurnSpec,
            ScenarioSpec,
        )
        from repro.scenarios.registry import _REGISTRY

        spec = ScenarioSpec(
            name="bad-combo", preset="cifar10-bench",
            churn=ChurnSpec(events=(ChurnEventSpec(2, 0, "leave"),)),
            algorithm=AlgorithmSpec(name="d-psgd-allreduce"),
        )
        monkeypatch.setitem(_REGISTRY, "bad-combo", lambda: spec)
        for argv in (["scenario", "run", "bad-combo"],
                     ["scenario", "trace", "bad-combo"],
                     ["sweep", "--scenario", "bad-combo", "--seeds", "0"]):
            assert main(argv) == 2, argv
            assert "all-reduce" in capsys.readouterr().err

    def test_sweep_scenario_rng_failures_reject_checkpointing(
        self, tiny_preset, monkeypatch, capsys
    ):
        import dataclasses

        from repro.experiments.presets import PRESETS
        from repro.scenarios import AlgorithmSpec, FailureSpec, ScenarioSpec
        from repro.scenarios.registry import _REGISTRY

        preset = dataclasses.replace(tiny_preset, name="micro-cli",
                                     total_rounds=8, eval_every=2)
        monkeypatch.setitem(PRESETS, "micro-cli", lambda: preset)
        spec = ScenarioSpec(
            name="micro-rng-fail", preset="micro-cli", total_rounds=8,
            failures=FailureSpec(kind="independent", p=0.2),
            algorithm=AlgorithmSpec(name="skiptrain"),
        )
        monkeypatch.setitem(_REGISTRY, "micro-rng-fail", lambda: spec)
        assert main(["sweep", "--scenario", "micro-rng-fail",
                     "--checkpoint-every", "2"]) == 2
        assert "independent" in capsys.readouterr().err
