"""Mechanism bench: the consensus-distance story of §3.1.

Shapes checked on identical data/topology:

* all-reduce drives consensus distance to (numerically) zero;
* SkipTrain's evaluated (post-sync-batch) consensus distance is below
  D-PSGD's at the end of training;
* the ordering of final consensus distance predicts the ordering of
  final accuracy (the paper's causal claim, as a correlation check).
"""

from repro.experiments import convergence_study

from .conftest import run_once


def test_consensus_mechanism(benchmark, bench16_cifar, tmp_path):
    result = run_once(
        benchmark, lambda: convergence_study(bench16_cifar, tmp_path, seed=11)
    )

    print("\n" + result.render())

    cons_dpsgd = result.final_consensus("d-psgd")
    cons_skip = result.final_consensus("skiptrain")
    cons_ar = result.final_consensus("d-psgd-allreduce")
    acc_dpsgd = result.histories["d-psgd"].final_accuracy()
    acc_skip = result.histories["skiptrain"].final_accuracy()
    acc_ar = result.histories["d-psgd-allreduce"].final_accuracy()

    print(f"\nconsensus distance: all-reduce {cons_ar:.2e} "
          f"< SkipTrain {cons_skip:.3f} < D-PSGD {cons_dpsgd:.3f}")
    print(f"accuracy:           all-reduce {acc_ar * 100:.1f}% "
          f"> SkipTrain {acc_skip * 100:.1f}% > D-PSGD {acc_dpsgd * 100:.1f}%")

    assert cons_ar < 1e-12
    assert cons_skip < cons_dpsgd
    # lower disagreement ↔ higher accuracy, pairwise
    assert acc_ar >= acc_skip - 0.02
    assert acc_skip >= acc_dpsgd
