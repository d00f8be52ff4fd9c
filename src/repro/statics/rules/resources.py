"""Shared-memory lifecycle: every created segment must be unlinkable.

A ``SharedMemory(create=True)`` segment outlives the process that made
it — a crashed sweep that never unlinks leaves the dataset pinned in
``/dev/shm`` until reboot. The contract for any segment the program
creates is that every creation site keeps a reachable release path: a ``.unlink()`` call on the bound name in the
owning scope (a teardown branch counts — reachability, not
post-dominance, is the bar an AST pass can honestly hold), or the name
registered with a finalizer (``atexit.register`` / ``weakref.finalize``)
in that same scope.

Creating a segment and handing the unlink duty to distant code with no
visible tie to the creation site is exactly how leaks regress; route
ownership through a cache/pool object that closes over the segment
instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..finding import Finding
from ..rule import FileContext, Rule, register

_FINALIZER_FUNCS = frozenset({"register", "finalize"})


def _is_shm_create(node: ast.AST | None) -> bool:
    """Whether ``node`` is a ``SharedMemory(..., create=True)`` call
    (bare name or any-attribute form, so ``shared_memory.SharedMemory``
    and aliased imports both match)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = (
        func.id if isinstance(func, ast.Name)
        else func.attr if isinstance(func, ast.Attribute) else None
    )
    if name != "SharedMemory":
        return False
    for kw in node.keywords:
        if kw.arg == "create" and isinstance(kw.value, ast.Constant):
            return kw.value.value is True
    return False


def _target_name(target: ast.AST) -> tuple[str, str] | None:
    """(kind, name) for plain-name or self-attribute targets."""
    if isinstance(target, ast.Name):
        return ("name", target.id)
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return ("attr", target.attr)
    return None


def _references(node: ast.AST, kind: str, name: str) -> bool:
    """Whether any subnode of ``node`` is the bound segment name (plain
    ``shm``, ``self.shm``, or an attribute of either, e.g.
    ``shm.name``)."""
    for sub in ast.walk(node):
        if _target_name(sub) == (kind, name):
            return True
    return False


def _releases(scope: ast.AST, kind: str, name: str) -> bool:
    """Whether ``scope`` unlinks the segment or registers a finalizer
    over it."""
    for node in ast.walk(scope):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "unlink"
            and _target_name(func.value) == (kind, name)
        ):
            return True
        func_name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if func_name in _FINALIZER_FUNCS:
            args: list[ast.AST] = list(node.args)
            args.extend(kw.value for kw in node.keywords)
            if any(_references(arg, kind, name) for arg in args):
                return True
    return False


@register
class ShmUnlink(Rule):
    rule_id = "shm-unlink"
    title = "created shared-memory segments must show an unlink path"
    rationale = (
        "a SharedMemory(create=True) segment persists in /dev/shm after "
        "the process dies; every creation site needs a reachable "
        ".unlink() in its owning scope or a registered finalizer "
        "(atexit.register / weakref.finalize)"
    )
    #: scope-resolution pass rather than a single visit — keep it out
    #: of the pre-commit fast path alongside cache-bound
    fast = False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        findings: list[Finding] = []

        def visit(node: ast.AST, scopes: list[ast.AST]) -> None:
            enter = isinstance(
                node,
                (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef,
                 ast.ClassDef),
            )
            if enter:
                scopes = scopes + [node]
            for child in ast.iter_child_nodes(node):
                visit(child, scopes)
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                if not _is_shm_create(node.value):
                    return
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    got = _target_name(target)
                    if got is None:
                        continue
                    kind, name = got
                    # self.* segments are owned by the class; locals and
                    # globals by the nearest function/module scope
                    owner = None
                    for scope in reversed(scopes):
                        if kind == "attr" and isinstance(scope, ast.ClassDef):
                            owner = scope
                            break
                        if kind == "name" and isinstance(
                            scope,
                            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module),
                        ):
                            owner = scope
                            break
                    if owner is None or not _releases(owner, kind, name):
                        label = f"self.{name}" if kind == "attr" else name
                        findings.append(ctx.finding(
                            node, self,
                            f"shared-memory segment {label!r} has no "
                            f"reachable unlink() or registered finalizer "
                            f"(atexit.register/weakref.finalize) in its "
                            f"owning scope; segments outlive the process "
                            f"in /dev/shm",
                        ))

        visit(ctx.tree, [])
        yield from findings
