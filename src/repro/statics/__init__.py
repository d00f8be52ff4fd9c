"""``repro.statics`` — the determinism & checkpoint-contract linter.

Five PRs of bit-identity guarantees (oracle ≡ product, kill+resume
byte-identity, eval-cadence independence) rest on conventions nothing
used to machine-check. This package is the correctness tooling layer:
an AST rule framework (:mod:`.rule`), repo-specific rules
(:mod:`.rules`), per-line ``# repro: allow[rule-id] -- reason``
suppressions (:mod:`.suppress`), a committed baseline for grandfathered
findings (:mod:`.baseline`), and the runner behind ``repro check``
(:mod:`.checker`).

The invariants each rule enforces are written down in
``docs/determinism-contracts.md``.
"""

from .baseline import DEFAULT_BASELINE, load_baseline, write_baseline
from .checker import (
    CheckResult,
    check_paths,
    format_json,
    format_text,
    iter_python_files,
)
from .finding import Finding
from .rule import Rule, all_rules, resolve_rules
from .suppress import Suppression, collect_suppressions

__all__ = [
    "CheckResult",
    "DEFAULT_BASELINE",
    "Finding",
    "Rule",
    "Suppression",
    "all_rules",
    "check_paths",
    "collect_suppressions",
    "format_json",
    "format_text",
    "iter_python_files",
    "load_baseline",
    "resolve_rules",
    "write_baseline",
]
