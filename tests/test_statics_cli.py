"""CLI tests for `repro check`, including the acceptance gates: the
committed tree is clean under the baseline, and seeding any single
violation per rule flips the exit code."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.statics import all_rules

REPO_ROOT = Path(__file__).resolve().parents[1]

#: one minimal seeded violation per registered rule; path is relative to
#: the scanned tree so directory-scoped rules fire.
SEEDS = {
    "rng-global-state": ("util.py", "import numpy as np\nx = np.random.rand(3)\n"),
    "rng-module-import": ("util.py", "import random\n"),
    "rng-default-rng": ("util.py", "import numpy as np\ng = np.random.default_rng()\n"),
    "det-wallclock": ("simulation/t.py", "import time\nt0 = time.time()\n"),
    "det-id-order": ("core/o.py", "def f(xs):\n    return sorted(xs, key=id)\n"),
    "det-set-iter": ("scenarios/s.py", "def f(xs):\n    for x in set(xs):\n        print(x)\n"),
    "state-pair": (
        "m.py",
        "class Half:\n    def state_dict(self):\n        return {}\n",
    ),
    "checkpoint-fields": (
        "m.py",
        "class C:\n"
        "    def __init__(self):\n"
        "        self.count = 0\n"
        "    def step(self):\n"
        "        self.count += 1\n"
        "    def state_dict(self):\n"
        "        return {}\n"
        "    def load_state_dict(self, s):\n"
        "        pass\n",
    ),
    "cache-bound": ("m.py", "_cache = {}\ndef f(k):\n    _cache[k] = k\n    return _cache[k]\n"),
    "artifact-codec": (
        "m.py",
        "import json\ndef save(r, fh):\n    json.dump(r, fh)\n",
    ),
    "shm-unlink": (
        "m.py",
        "from multiprocessing import shared_memory\n"
        "def publish(n):\n"
        "    shm = shared_memory.SharedMemory(create=True, size=n)\n"
        "    return shm.name\n",
    ),
    "no-dense-topology": (
        "topology/d.py",
        "def f(w):\n    return w.toarray()\n",
    ),
    "heavy-import": ("topology/g.py", "import networkx as nx\n"),
}


def run_check(*argv: str) -> int:
    return main(["check", *argv])


# -- the repo-tree acceptance gate --------------------------------------------


def test_repo_tree_is_clean_under_baseline(monkeypatch):
    """`repro check src --baseline` from the repo root must exit 0.

    This is the CI gate; if this fails, a determinism or checkpoint
    contract was violated (or a suppression lost its justification)."""
    monkeypatch.chdir(REPO_ROOT)
    assert run_check("src", "--baseline") == 0


def test_committed_baseline_has_no_unexplained_entries():
    payload = json.loads((REPO_ROOT / ".repro-baseline.json").read_text())
    assert payload["schema"] == "repro/check-baseline/v1"
    for entry in payload["entries"]:
        assert entry.get("note"), f"baseline entry without a note: {entry}"


# -- seeded violations flip the exit code, rule by rule -----------------------


@pytest.mark.parametrize("rule_id", sorted(SEEDS))
def test_seeded_violation_fails_check(rule_id, tmp_path, capsys):
    rel, source = SEEDS[rule_id]
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    assert run_check(str(tmp_path), "--select", rule_id) == 1
    assert f"[{rule_id}]" in capsys.readouterr().out


def test_seed_table_covers_every_rule():
    assert set(SEEDS) == {r.rule_id for r in all_rules()}


# -- exit codes and option handling -------------------------------------------


def test_unknown_rule_exits_2(capsys):
    assert run_check("--select", "nope", str(REPO_ROOT / "src")) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_path_exits_2(tmp_path, capsys):
    assert run_check(str(tmp_path / "nowhere")) == 2
    assert "no such path" in capsys.readouterr().err


def test_list_rules_names_every_rule(capsys):
    assert run_check("--list-rules") == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.rule_id in out


def test_json_format_round_trips(tmp_path, capsys):
    (tmp_path / "bad.py").write_text("import secrets\n")
    assert run_check(str(tmp_path), "--format", "json") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro/check-report/v1"
    assert [f["rule"] for f in payload["findings"]] == ["rng-module-import"]


def test_write_baseline_then_baseline_check(tmp_path, capsys, monkeypatch):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "bad.py").write_text("import random\n")
    baseline = tmp_path / "baseline.json"
    monkeypatch.chdir(tmp_path)

    assert run_check(str(tree), "--write-baseline",
                     "--baseline-file", str(baseline)) == 0
    capsys.readouterr()

    # written entries have no notes yet: the check demands justification
    assert run_check(str(tree), "--baseline",
                     "--baseline-file", str(baseline)) == 1
    assert "allow-needs-reason" in capsys.readouterr().out

    # once a human justifies the entry, the tree passes...
    payload = json.loads(baseline.read_text())
    for entry in payload["entries"]:
        entry["note"] = "grandfathered: test"
    baseline.write_text(json.dumps(payload))
    assert run_check(str(tree), "--baseline",
                     "--baseline-file", str(baseline)) == 0
    capsys.readouterr()

    # ...and fixing the violation makes the entry stale (drift)
    (tree / "bad.py").write_text("x = 1\n")
    assert run_check(str(tree), "--baseline",
                     "--baseline-file", str(baseline)) == 1
    assert "stale" in capsys.readouterr().out
