"""Figure 6 / Table 4 bench: the energy-constrained setting.

Paper shapes checked (CIFAR-like, sparse topology):

* SkipTrain-constrained beats both Greedy and budget-matched D-PSGD
  (paper: +9 pp over Greedy, +12 pp over D-PSGD);
* Greedy ≥ D-PSGD at equal energy (the §4.6 validation that sync
  rounds keep helping after the budget is gone), with the margin
  shrinking as the topology densifies;
* no node exceeds its battery budget τ_i.
"""


from repro.experiments import build_run, prepare, table4

from .conftest import run_once


def test_table4_cifar(benchmark, bench16_cifar, tmp_path):
    result = run_once(benchmark,
                      lambda: table4(bench16_cifar, tmp_path, seed=11))

    print("\n" + result.render())
    for deg in bench16_cifar.degrees:
        accs = result.accuracy_at_budget(deg)
        print(f"degree {deg}: " + ", ".join(
            f"{k} {v * 100:.1f}%" for k, v in accs.items()
        ))

    sparse = bench16_cifar.degrees[0]
    accs = result.accuracy_at_budget(sparse)
    assert accs["SkipTrain-constrained"] > accs["Greedy"]
    assert accs["SkipTrain-constrained"] > accs["D-PSGD"]
    assert accs["Greedy"] >= accs["D-PSGD"] - 0.03

    # budget respected on every degree: an artifact holds no per-node
    # meter, so the constrained cells run once more in process
    for deg in bench16_cifar.degrees:
        prepared = prepare(bench16_cifar, deg, seed=11)
        engine, algo = build_run(prepared, "skiptrain-constrained")
        engine.run(algo)
        assert (engine.meter.train_rounds <= prepared.trace.budget_rounds).all()


def test_table4_femnist(benchmark, bench16_femnist, tmp_path):
    result = run_once(benchmark,
                      lambda: table4(bench16_femnist, tmp_path, seed=11))

    print("\n" + result.render())
    sparse = bench16_femnist.degrees[0]
    accs = result.accuracy_at_budget(sparse)
    print(f"\nsparse-degree ordering: constrained {accs['SkipTrain-constrained']*100:.1f}%"
          f" vs Greedy {accs['Greedy']*100:.1f}% vs D-PSGD {accs['D-PSGD']*100:.1f}%"
          " (paper: smaller gaps than CIFAR, same direction)")

    # FEMNIST gaps are small in the paper; require constrained not to lose
    assert accs["SkipTrain-constrained"] >= accs["D-PSGD"] - 0.02
    assert accs["SkipTrain-constrained"] >= accs["Greedy"] - 0.02
