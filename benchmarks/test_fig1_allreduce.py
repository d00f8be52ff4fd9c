"""Figure 1 bench: D-PSGD vs D-PSGD with all-reduce every round.

Paper shape: the all-reduced model gains ≈10 accuracy points over plain
D-PSGD's node-mean accuracy on the sparse topology.
"""

from repro.experiments import figure1

from .conftest import run_once


def test_fig1_allreduce_boost(benchmark, bench16_cifar, tmp_path):
    result = run_once(benchmark,
                      lambda: figure1(bench16_cifar, tmp_path, seed=11))

    print("\n" + result.render())
    print(f"\nall-reduce improvement: {result.improvement() * 100:+.1f} pp "
          f"(paper: ≈ +10 pp)")

    assert result.improvement() > 0.02, (
        "all-reduce should clearly beat D-PSGD on the sparse topology"
    )
    # both runs trained every round: identical energy story, the gain is
    # purely from synchronization
    assert result.dpsgd.rounds[-1] == result.allreduce.rounds[-1]
