"""The import graph matches the call graph.

Every CLI call, pool parent and daemon start pays ``import repro...``
before any work, so packages no cell executes must not load with the
program — and nothing a cell *does* need may hide behind a lazy import,
where its cost would move out of the measured set-up into the first
cell. Each case runs in a fresh interpreter: ``sys.modules`` of the
test process proves nothing. Three cases read the source instead: which
module may import the thread pool and bind scipy's private kernels,
that the product never imports the test suite's oracles, and that
``repro.nn`` holds one implementation of every layer it trains.
"""

import ast
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: what the benchmark's ``cli.import_s`` times, and every process loads
PROGRAM = "import repro.cli, repro.experiments, repro.scenarios.compile"

#: packages no cell executes, by top-level name: scipy counts whole
HEAVY = ("networkx", "scipy", "matplotlib")

#: the one scipy module a process loads, the compiled kernel of the sparse
#: product, bound by file without scipy's package init
KERNEL = "scipy.sparse._sparsetools"


def fresh_python(script: str, cwd: Path = REPO_ROOT) -> dict:
    """Run ``script`` in a new interpreter; it prints one JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_program_import_and_three_cells_load_no_heavy_package(tmp_path):
    out = fresh_python(f"""
        import json, sys
        {PROGRAM}
        def loaded(tops=("repro", "numpy", "scipy")):
            return {{m for m in sys.modules if m.split(".")[0] in tops}}
        at_import = loaded()
        heavy_at_import = sorted(loaded({HEAVY!r}))

        from repro.experiments import build_plan, get_preset, run_cell
        from repro.scenarios import build_scenario_plan, get_scenario
        preset = get_preset("cifar10-bench")
        cells = [(preset, build_plan(preset, ("skiptrain",), degrees=(3,),
                                     seeds=(0,), total_rounds=8)[0])]
        for name in ("churn-async", "churn-crash"):
            spec = get_scenario(name)
            cells.append((get_preset(spec.preset),
                          build_scenario_plan(spec, seeds=(0,), total_rounds=8)[0]))
        for cell_preset, cell in cells:
            run_cell(cell_preset, cell, {str(tmp_path)!r})
        loaded_by_cells = sorted(loaded() - at_import)

        # compressed gossip: the one product path no cell takes
        from repro.core import TopKCompressor
        from repro.experiments import build_run, prepare
        from repro.simulation import SimulationEngine
        engine, algorithm = build_run(prepare(preset, 3, seed=0), "d-psgd",
                                      total_rounds=2)
        SimulationEngine(engine.model, engine.nodes, engine.mixing,
                         engine.config, engine.test_set,
                         compressor=TopKCompressor(0.25)).run(algorithm)
        print(json.dumps({{
            "heavy_at_import": heavy_at_import,
            "heavy_after_runs": sorted(loaded({HEAVY!r})),
            "loaded_by_cells": loaded_by_cells,
            "kinds": [cell.kind for _, cell in cells],
        }}))
    """)
    assert out["kinds"] == ["sync", "async", "sync"]
    assert out["heavy_at_import"] == [KERNEL]
    assert out["heavy_after_runs"] == [KERNEL]
    # nothing a cell needs was deferred out of the import: set-up cost
    # stays where the benchmark's ``setup_s`` measures it
    assert out["loaded_by_cells"] == []


def test_one_lane_module_and_one_private_scipy_binding():
    """One lane pool per process: the thread pool and its at-fork reset
    live in ``repro/lanes.py``. One module binds scipy's private sparse
    kernels, ``repro/topology/sparse.py``, which loads them by file
    without importing scipy; every product goes through its ``Csr``."""
    src = REPO_ROOT / "src"
    sources = {
        path.relative_to(src).as_posix(): path.read_text(encoding="utf-8")
        for path in src.rglob("*.py")
    }

    def users(pattern):
        return sorted(name for name, text in sources.items() if re.search(pattern, text))

    assert users(r"ThreadPoolExecutor") == ["repro/lanes.py"]
    assert users(r"os\.register_at_fork") == ["repro/lanes.py"]
    assert users(r"_sparsetools") == ["repro/topology/sparse.py"]
    bindings = re.findall(r"^_sparsetools = _bind_sparsetools\(\)$",
                          sources["repro/topology/sparse.py"], re.MULTILINE)
    assert len(bindings) == 1


def _src_trees():
    src = REPO_ROOT / "src"
    return {
        path.relative_to(src).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in src.rglob("*.py")
    }


def test_no_product_module_imports_the_oracles():
    """The serial oracles (``tests/oracle_nn.py``, ``tests/oracles.py``)
    check the product; a product module that imported one would run the
    code it is checked against."""
    imports = []
    for name, tree in _src_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            imports.extend(
                f"{name}: {module}" for module in modules
                if {"tests", "oracle_nn", "oracles"} & set(module.split("."))
            )
    assert imports == []


#: the ``repro.nn`` classes that compute a forward/backward: the stacked
#: mirror, and the two layers it refuses (``UnsupportedLayerError``)
COMPUTING_LAYERS = {"BatchNorm2d", "Dropout"}


def test_one_implementation_of_every_trained_layer():
    """A layer or model class under ``repro.nn`` is a spec (shapes, init
    draws, parameter order); only the ``Batched*`` mirror computes. The
    serial forms are the oracle's, ``tests/oracle_nn.py``."""
    classes = [
        (name, node)
        for name, tree in _src_trees().items() if name.startswith("repro/nn/")
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]
    computing = sorted(
        f"{name}: {node.name}" for name, node in classes
        if not node.name.startswith("Batched") and node.name not in COMPUTING_LAYERS
        and any(isinstance(item, ast.FunctionDef) and item.name in ("forward", "backward")
                for item in node.body)
    )
    assert computing == []
    # the exemption names classes that exist
    assert COMPUTING_LAYERS <= {node.name for _, node in classes}


def test_repro_check_runs_without_numpy():
    out = fresh_python("""
        import json, sys
        import repro.cli
        rc = repro.cli.main(["check", "src"])
        print(json.dumps({"rc": rc, "loaded": [
            m for m in ("numpy", "scipy", "networkx") if m in sys.modules]}))
    """)
    assert out == {"rc": 0, "loaded": []}


def test_lazy_package_surface_still_resolves():
    out = fresh_python("""
        import json, sys
        import repro
        before = "numpy" in sys.modules
        listing = dir(repro)
        engine = repro.simulation.SimulationEngine.__name__
        from repro import topology
        try:
            repro.no_such_subpackage
            missing = "resolved"
        except AttributeError as exc:
            missing = str(exc)
        print(json.dumps({
            "numpy_on_bare_import": before, "dir": listing, "engine": engine,
            "topology": topology.__name__, "all": repro.__all__,
            "missing": missing,
        }))
    """)
    assert out["numpy_on_bare_import"] is False
    assert set(out["all"]) <= set(out["dir"])
    assert out["engine"] == "SimulationEngine"
    assert out["topology"] == "repro.topology"
    assert "no_such_subpackage" in out["missing"]


def test_diagnostics_import_their_package_on_first_use():
    out = fresh_python("""
        import json, sys
        from repro.topology import (
            metropolis_hastings_weights, ring_neighbors, small_world_graph,
            spectral_gap,
        )
        def state():
            return ["scipy.sparse" in sys.modules, "networkx" in sys.modules]
        trail = [state()]
        small = spectral_gap(metropolis_hastings_weights(ring_neighbors(64)))
        trail.append(state())
        large = spectral_gap(metropolis_hastings_weights(ring_neighbors(65)))
        trail.append(state())
        graph = small_world_graph(20, k=4, p=0.3, seed=0)
        trail.append(state())
        print(json.dumps({"trail": trail, "gaps": [small, large],
                          "nodes": graph.n_nodes}))
    """)
    assert out["trail"] == [
        [False, False], [False, False], [True, False], [True, True],
    ]
    assert 0.0 < out["gaps"][1] < out["gaps"][0] < 1.0
    assert out["nodes"] == 20
