"""Import-time cost ban.

The evaluation is many short processes: every CLI call, pool parent and
daemon start pays the import graph before any work. Packages no sweep
cell executes once cost each of them 0.2 s and 20 MiB, so they may be
imported only where they are used — in a function body, or under
``TYPE_CHECKING``. ``scipy.sparse`` is one of them: a cell runs only
its compiled product kernel, which :mod:`repro.topology.sparse` loads
without scipy's package init.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import dotted_parts
from ..finding import Finding
from ..rule import FileContext, Rule, register

#: packages nothing on a cell's path calls; importing one costs every
#: process that never uses it
HEAVY_PACKAGES = ("networkx", "scipy.sparse", "scipy.linalg", "scipy.stats", "matplotlib")


def _is_type_checking(test: ast.expr) -> bool:
    parts = dotted_parts(test)
    return parts is not None and parts[-1] == "TYPE_CHECKING"


def _import_time_statements(body: list) -> Iterator[ast.AST]:
    """Statements that run when the module is imported: everything but
    function bodies and ``if TYPE_CHECKING:`` blocks (class bodies and
    module-level ``try``/``except``/``if``/``with`` do run)."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(stmt, ast.If) and _is_type_checking(stmt.test):
            yield from _import_time_statements(stmt.orelse)
            continue
        yield stmt
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _import_time_statements(getattr(stmt, field, []))


@register
class HeavyImport(Rule):
    rule_id = "heavy-import"
    title = "no module-level import of packages no cell executes"
    rationale = (
        "networkx, scipy.sparse, scipy.linalg, scipy.stats and "
        "matplotlib are used by diagnostics and ablation generators "
        "only; imported at module level they tax every process's cold "
        "start — import them inside the function that needs them"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for stmt in _import_time_statements(ctx.tree.body):
            if isinstance(stmt, ast.Import):
                names = [alias.name for alias in stmt.names]
            elif isinstance(stmt, ast.ImportFrom) and not stmt.level:
                module = stmt.module or ""
                names = [module, *(f"{module}.{a.name}" for a in stmt.names)]
            else:
                continue
            heavy = [n for n in names
                     if any((n + ".").startswith(h + ".") for h in HEAVY_PACKAGES)]
            if heavy:
                yield ctx.finding(
                    stmt, self,
                    f"module-level import of {heavy[0]} loads it in every "
                    f"process; move it into the function that uses it (or "
                    f"under TYPE_CHECKING for annotations)",
                )
