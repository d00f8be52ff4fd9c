"""Figure 4 bench: the train/sync accuracy oscillation.

Paper shape: evaluated every round near convergence, SkipTrain's test
accuracy rises during synchronization rounds and falls during training
rounds, while the inter-node standard deviation does the opposite.
"""

from repro.experiments import figure4

from .conftest import run_once


def test_fig4_train_sync_oscillation(benchmark, bench16_cifar, tmp_path):
    result = run_once(
        benchmark, lambda: figure4(bench16_cifar, tmp_path, seed=11, window=24)
    )

    print("\n" + result.render())
    print(f"\nsync-vs-train accuracy contrast: "
          f"{result.oscillation_contrast() * 100:+.1f} pp (paper: positive sawtooth)")
    print(f"train-vs-sync std contrast: {result.std_contrast() * 100:+.1f} pp "
          f"(paper: sync shrinks the std band)")

    assert result.oscillation_contrast() > 0.0, (
        "accuracy must be higher after sync rounds than after train rounds"
    )
    assert result.std_contrast() > 0.0, (
        "inter-node disagreement must be lower after sync rounds"
    )
