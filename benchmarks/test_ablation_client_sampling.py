"""Ablation bench: SkipTrain vs client-sampling D-PSGD at equal
training volume.

Client sampling (Liu et al. 2022) also trains a fraction of node-rounds
— but scattered across rounds, so there is never a training-silent
round and the consecutive-mixing contraction of SkipTrain's sync
batches is lost. At matched energy, coordination should win (or tie) on
the heterogeneous task, and both must beat nothing.
"""

import numpy as np
import pytest

from repro.core import ClientSamplingDPSGD, RoundSchedule
from repro.experiments import build_run, execute_run, prepare

from .conftest import run_once


def test_client_sampling_ablation(benchmark, bench16_cifar):
    def compute():
        prepared = prepare(bench16_cifar, 3, seed=11)
        n = bench16_cifar.n_nodes
        skiptrain = execute_run(*build_run(
            prepared, "skiptrain", schedule=RoundSchedule(4, 4)
        ), prepared.trace)
        sampling = execute_run(*build_run(
            prepared,
            ClientSamplingDPSGD(n, n // 2, np.random.default_rng(0)),
        ), prepared.trace)
        return skiptrain, sampling

    skiptrain, sampling = run_once(benchmark, compute)

    acc_skip = skiptrain.history.final_accuracy()
    acc_samp = sampling.history.final_accuracy()
    e_skip = skiptrain.meter.total_train_wh
    e_samp = sampling.meter.total_train_wh
    print(f"\nSkipTrain (4,4)        : {acc_skip * 100:5.1f}% @ {e_skip:.2f} Wh")
    print(f"client-sampling (k=n/2): {acc_samp * 100:5.1f}% @ {e_samp:.2f} Wh")

    # equal expected training volume ⇒ equal energy (within sampling noise)
    assert e_samp == pytest.approx(e_skip, rel=0.1)
    # coordinated silence is at least as good as scattered silence
    assert acc_skip >= acc_samp - 0.03
