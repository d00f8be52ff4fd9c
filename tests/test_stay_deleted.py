"""Deleted names stay deleted.

``tests/golden/stay_deleted.json`` is the ledger: one row per deletion,
with the pattern (a Python regular expression) of the names it removed,
the paths that must never mention them again and what the deletion
was. ``git log -S<name>`` finds the commit that made it. A deletion
adds one row here.

The scan covers the tracked files under those paths (``git ls-files``;
outside a git checkout, every file under them), so docs, READMEs and
examples are checked as well as the code."""

import json
import re
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LEDGER = json.loads((Path(__file__).parent / "golden" / "stay_deleted.json").read_text())


def tracked_files(paths: list[str]) -> list[Path]:
    try:
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--", *paths], cwd=ROOT,
            capture_output=True, check=True,
        ).stdout.decode().split("\0")
        return [ROOT / name for name in listed if name]
    except (OSError, subprocess.CalledProcessError):
        found = []
        for path in map(ROOT.joinpath, paths):
            found.extend([path] if path.is_file() else sorted(path.rglob("*")))
        return [f for f in found if f.is_file() and "__pycache__" not in f.parts]


def test_every_row_is_well_formed():
    assert LEDGER
    for row in LEDGER:
        assert set(row) == {"pattern", "paths", "deleted"}, row
        re.compile(row["pattern"])
        assert row["paths"] and row["deleted"]


@pytest.mark.parametrize("row", LEDGER, ids=[row["deleted"].split(":")[0] for row in LEDGER])
def test_deleted_names_stay_deleted(row):
    pattern = re.compile(row["pattern"])
    files = tracked_files(row["paths"])
    assert files, f"no files under {row['paths']}"
    hits = []
    for path in files:
        try:
            text = path.read_text(encoding="utf-8")
        except (UnicodeDecodeError, FileNotFoundError):
            continue  # binary, or deleted in the working tree
        hits.extend(
            f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
            for number, line in enumerate(text.splitlines(), 1)
            if pattern.search(line)
        )
    assert not hits, "\n".join(hits)
