"""Benchmark: full-tree ``repro check`` runtime.

The linter runs on every CI push and in the pre-commit hook, so its
wall-clock cost is a budget worth keeping. Asserts the committed tree
is clean — the same gate CI enforces — and that a full pass stays
interactive.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.statics import check_paths

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def test_check_runtime():
    # warm-up: rule registration, fixture-free parse of the whole tree
    check_paths([SRC], root=REPO_ROOT)

    best = float("inf")
    result = None
    for _ in range(3):
        t0 = time.perf_counter()
        result = check_paths([SRC], root=REPO_ROOT)
        best = min(best, time.perf_counter() - t0)

    assert result.findings == [], [f.render() for f in result.findings]
    # a full AST pass over ~100 modules should stay interactive
    assert best < 30.0, f"repro check took {best:.1f}s on src/"
