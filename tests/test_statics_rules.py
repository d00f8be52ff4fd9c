"""Rule-engine tests: every rule has positive/negative fixture cases,
suppressions and the baseline round-trip are exercised end to end, and
the JSON report schema is pinned."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.statics import (
    all_rules,
    check_paths,
    collect_suppressions,
    format_json,
    resolve_rules,
    write_baseline,
)
from repro.statics.baseline import (
    apply_baseline,
    load_baseline,
    unexplained_entries,
)

FIXTURES = Path(__file__).parent / "statics_fixtures"
VIOLATIONS = FIXTURES / "violations"
CLEAN = FIXTURES / "clean"

EXPECT = re.compile(r"#\s*expect:\s*([a-z-]+)")

#: handled by the dedicated suppression tests, not the marker scan
MARKER_EXEMPT = {"suppress_bad.py"}


def expected_markers(path: Path) -> set[tuple[int, str]]:
    out = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for match in EXPECT.finditer(line):
            out.add((lineno, match.group(1)))
    return out


def findings_for(path: Path) -> set[tuple[int, str]]:
    result = check_paths([path], root=FIXTURES)
    return {(f.line, f.rule) for f in result.findings}


# -- rule inventory -----------------------------------------------------------


def test_at_least_six_rules_registered():
    rules = all_rules()
    assert len(rules) >= 6
    assert len({r.rule_id for r in rules}) == len(rules)
    for rule in rules:
        assert rule.title and rule.rationale


def test_every_rule_has_a_positive_fixture():
    """Each registered rule must be exercised by at least one seeded
    violation, so a rule that silently stops firing breaks the suite."""
    seeded = set()
    for path in VIOLATIONS.rglob("*.py"):
        seeded |= {rule for _, rule in expected_markers(path)}
    assert {r.rule_id for r in all_rules()} <= seeded


# -- positive cases: seeded violations are found exactly ----------------------


@pytest.mark.parametrize(
    "fixture",
    sorted(
        p.relative_to(VIOLATIONS).as_posix()
        for p in VIOLATIONS.rglob("*.py")
        if p.name not in MARKER_EXEMPT
    ),
)
def test_seeded_violations_found_exactly(fixture):
    path = VIOLATIONS / fixture
    markers = expected_markers(path)
    assert markers, f"{fixture} has no # expect: markers"
    assert findings_for(path) == markers


# -- negative cases: clean constructs stay clean ------------------------------


def test_clean_fixtures_produce_no_findings():
    result = check_paths([CLEAN], root=FIXTURES)
    assert result.findings == []
    # the justified suppressions in the clean tree are recorded
    assert sorted(f.rule for f, _ in result.suppressed) == [
        "no-dense-topology",
        "rng-global-state",
    ]


def test_determinism_rules_scope_by_directory(tmp_path):
    """The same wallclock source outside an engine package is clean."""
    src = (VIOLATIONS / "simulation" / "wallclock.py").read_text()
    inside = tmp_path / "simulation" / "clock.py"
    inside.parent.mkdir()
    inside.write_text(src)
    outside = tmp_path / "reporting" / "clock.py"
    outside.parent.mkdir()
    outside.write_text(src)
    assert {f.rule for f in check_paths([inside], tmp_path).findings} == {
        "det-wallclock"
    }
    assert check_paths([outside], tmp_path).findings == []


def test_wallclock_rule_patrols_serve_but_other_det_rules_do_not(tmp_path):
    """``det-wallclock`` alone extends to ``serve`` directories — the
    daemon must justify every real-clock read — while id-order and
    set-iteration stay engine-only there."""
    clock_src = (VIOLATIONS / "serve" / "daemon_clock.py").read_text()
    in_serve = tmp_path / "serve" / "clock.py"
    in_serve.parent.mkdir()
    in_serve.write_text(clock_src)
    assert {f.rule for f in check_paths([in_serve], tmp_path).findings} == {
        "det-wallclock"
    }
    set_src = (VIOLATIONS / "simulation" / "set_iter.py").read_text()
    set_in_serve = tmp_path / "serve" / "sets.py"
    set_in_serve.write_text(set_src)
    det = ["det-wallclock", "det-id-order", "det-set-iter"]
    assert check_paths([set_in_serve], tmp_path, select=det).findings == []


def test_shipped_serve_package_accounts_for_every_clock_read():
    """The real serve package passes ``det-wallclock`` with only
    justified suppressions — every wall-clock read it performs is an
    explicit, reasoned call site."""
    import repro.experiments.serve as serve_pkg

    serve_dir = Path(serve_pkg.__file__).parent
    src_root = serve_dir.parents[3]
    result = check_paths([serve_dir], root=src_root,
                         select=["det-wallclock"])
    assert result.findings == []
    assert result.suppressed, "expected justified wall-clock suppressions"
    for finding, sup in result.suppressed:
        assert finding.rule == "det-wallclock"
        assert sup.reason


def test_default_rng_allowed_only_in_simulation_rng(tmp_path):
    src = "import numpy as np\nGEN = np.random.default_rng(7)\n"
    allowed = tmp_path / "simulation" / "rng.py"
    allowed.parent.mkdir()
    allowed.write_text(src)
    banned = tmp_path / "simulation" / "engine.py"
    banned.write_text(src)
    assert check_paths([allowed], tmp_path).findings == []
    assert [f.rule for f in check_paths([banned], tmp_path).findings] == [
        "rng-default-rng"
    ]


def test_shm_unlink_rule_fires_everywhere_and_covers_the_pool():
    """``shm-unlink`` scopes by construct, not directory — a leak in
    any package is a finding — and the shipped sweep pool (the one real
    shared-memory user) must satisfy it with zero suppressions."""
    import repro.experiments.pool as pool_module

    pool_path = Path(pool_module.__file__)
    src_root = pool_path.parents[2]
    result = check_paths([pool_path], root=src_root, select=["shm-unlink"])
    assert result.findings == []
    assert result.suppressed == []


def test_checkpoint_exempt_allowlist(tmp_path):
    src = (
        "class C:\n"
        "    _CHECKPOINT_EXEMPT = ('log',)\n"
        "    def __init__(self):\n"
        "        self.log = []\n"
        "        self.count = 0\n"
        "    def step(self):\n"
        "        self.log.append(1)\n"
        "        self.count += 1\n"
        "    def state_dict(self):\n"
        "        return {'count': self.count}\n"
        "    def load_state_dict(self, s):\n"
        "        self.count = s['count']\n"
    )
    path = tmp_path / "mod.py"
    path.write_text(src)
    assert check_paths([path], tmp_path).findings == []


def test_checkpoint_fields_rule_sees_the_sync_engine(tmp_path):
    """``SimulationEngine`` has the ``state_dict`` pair, so the rule
    polices it: the shipped file is clean, and a copy whose
    ``state_dict`` forgets the error-feedback public copies is not."""
    import ast

    import repro.simulation.engine as engine_module

    engine_path = Path(engine_module.__file__)
    shipped = check_paths([engine_path], root=engine_path.parents[2],
                          select=["checkpoint-fields"])
    assert shipped.findings == [] and shipped.suppressed == []

    tree = ast.parse(engine_path.read_text())
    (cls,) = [n for n in ast.walk(tree)
              if isinstance(n, ast.ClassDef) and n.name == "SimulationEngine"]
    (state_dict,) = [n for n in cls.body if isinstance(n, ast.FunctionDef)
                     and n.name == "state_dict"]
    kept = [n for n in state_dict.body if "_public" not in ast.unparse(n)]
    assert len(kept) == len(state_dict.body) - 1
    state_dict.body = kept
    path = tmp_path / "engine.py"
    path.write_text(ast.unparse(tree))
    (finding,) = check_paths([path], tmp_path,
                             select=["checkpoint-fields"]).findings
    assert "SimulationEngine._public" in finding.message


def test_syntax_error_is_reported_not_raised(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n")
    findings = check_paths([path], tmp_path).findings
    assert [f.rule for f in findings] == ["syntax-error"]


# -- suppressions -------------------------------------------------------------


def test_suppression_comment_parsing():
    source = (
        "x = 1  # repro: allow[rule-a, rule-b] -- because reasons\n"
        "# repro: allow[rule-c] -- standalone, binds to next code line\n"
        "y = 2\n"
        "z = 'repro: allow[rule-d] -- inside a string, ignored'\n"
    )
    sups = collect_suppressions(source)
    assert [(s.line, s.applies_to, s.rules) for s in sups] == [
        (1, 1, ("rule-a", "rule-b")),
        (2, 3, ("rule-c",)),
    ]
    assert sups[0].reason == "because reasons"


def test_suppression_without_reason_does_not_suppress():
    path = VIOLATIONS / "suppress_bad.py"
    result = check_paths([path], root=FIXTURES)
    rules = sorted(f.rule for f in result.findings)
    assert rules == ["allow-needs-reason", "allow-unused", "rng-global-state"]
    assert result.suppressed == []


def test_justified_suppression_silences_and_is_recorded():
    path = CLEAN / "simulation" / "good_engine.py"
    result = check_paths([path], root=FIXTURES)
    assert result.findings == []
    [(finding, sup)] = result.suppressed
    assert finding.rule == "rng-global-state"
    assert "suppression path" in sup.reason


def test_unused_suppression_not_reported_under_select():
    """Partial rule runs cannot know a suppression is dead."""
    path = VIOLATIONS / "suppress_bad.py"
    result = check_paths([path], root=FIXTURES, select=["rng"])
    assert "allow-unused" not in {f.rule for f in result.findings}


# -- selection ----------------------------------------------------------------


def test_resolve_rules_exact_prefix_group_and_unknown():
    assert [r.rule_id for r in resolve_rules(select=["cache-bound"])] == [
        "cache-bound"
    ]
    assert {r.rule_id for r in resolve_rules(select=["rng"])} == {
        "rng-default-rng", "rng-global-state", "rng-module-import",
    }
    fast = {r.rule_id for r in resolve_rules(select=["fast-rules"])}
    assert "checkpoint-fields" not in fast and "rng-global-state" in fast
    ignored = {r.rule_id for r in resolve_rules(ignore=["det"])}
    assert not any(r.startswith("det-") for r in ignored)
    with pytest.raises(ValueError, match="unknown rule"):
        resolve_rules(select=["nope"])


# -- baseline round-trip ------------------------------------------------------


def test_baseline_round_trip(tmp_path):
    result = check_paths([VIOLATIONS], root=FIXTURES)
    assert result.findings
    baseline = tmp_path / "baseline.json"
    notes = {f.baseline_key(): "grandfathered for the test" for f in result.findings}
    count = write_baseline(baseline, result.findings, notes)
    entries = load_baseline(baseline)
    assert count == len(entries)
    assert unexplained_entries(entries) == []

    # identical findings: nothing new, nothing stale
    new, stale = apply_baseline(result.findings, entries)
    assert new == [] and stale == []

    # the checker honours the baseline end to end
    rerun = check_paths([VIOLATIONS], root=FIXTURES, baseline_path=baseline,
                        use_baseline=True)
    assert rerun.findings == [] and rerun.stale_baseline == []
    assert rerun.exit_code == 0

    # one finding fixed -> its entry is stale -> non-zero exit
    fewer = [f for f in result.findings if f.rule != "state-pair"]
    new, stale = apply_baseline(fewer, entries)
    assert new == [] and {e["rule"] for e in stale} == {"state-pair"}

    # a brand-new finding is reported even with the baseline on
    extra = tmp_path / "tree" / "fresh.py"
    extra.parent.mkdir()
    extra.write_text("import secrets\n")
    drift = check_paths([extra], root=tmp_path, baseline_path=baseline,
                        use_baseline=True)
    assert [f.rule for f in drift.findings] == ["rng-module-import"]
    assert drift.exit_code == 1


def test_baseline_entries_without_notes_are_unexplained(tmp_path):
    result = check_paths([VIOLATIONS / "rng_default.py"], root=FIXTURES)
    baseline = tmp_path / "baseline.json"
    write_baseline(baseline, result.findings)  # no notes
    rerun = check_paths([VIOLATIONS / "rng_default.py"], root=FIXTURES,
                        baseline_path=baseline, use_baseline=True)
    assert [f.rule for f in rerun.findings] == ["allow-needs-reason"]
    assert rerun.exit_code == 1


# -- report formats -----------------------------------------------------------


def test_json_report_schema():
    result = check_paths([VIOLATIONS / "rng_global.py"], root=FIXTURES)
    payload = json.loads(format_json(result))
    assert payload["schema"] == "repro/check-report/v1"
    assert payload["exit_code"] == 1
    assert payload["files_checked"] == 1
    assert set(payload) == {
        "schema", "files_checked", "rules_run", "findings", "suppressed",
        "stale_baseline", "exit_code",
    }
    for finding in payload["findings"]:
        assert set(finding) == {"path", "line", "col", "rule", "message"}
        assert finding["path"] == "violations/rng_global.py"
        assert finding["rule"] == "rng-global-state"
