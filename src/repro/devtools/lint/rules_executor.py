"""RPR006 — executor shared-state safety: workers never mutate the parent.

The executor contract is strict: a worker (the shm backend's persistent
worker process) receives *plans* and group state over its pipe, rebuilds
the shard groups locally, replays the plans, and **replies** with
results.  The parent alone commits results back into the facade.  Under
``multiprocessing`` a worker that writes through a captured
facade/topology reference only mutates its own process's copy — the bug
is silent until the same function runs on a thread, at which point it
becomes a data race.  Either way, worker-side mutation of parent-owned
objects is wrong by design.

The rule finds worker entry points statically: any function passed as
the callable to a pool-dispatch call (``pool.map``, ``imap``,
``apply_async``, ``starmap``, ``submit``, ...) or as the ``target=`` of a
``Process(...)``/``Thread(...)`` constructor (``multiprocessing.Process``,
``context.Process``, ``threading.Thread``, ...).  Inside each worker
function it flags:

* attribute or subscript **stores** whose base object is a parameter
  (state shipped from the parent) or a module-level global;
* ``global``/``nonlocal`` declarations (shared-state mutation by
  construction).

Locals the worker builds itself (the rebuilt group, its state dict) are
free to mutate — that is the intended pattern.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import ModuleContext, Rule, Violation, register_rule

__all__ = ["ExecutorSharedStateRule"]

#: Pool/executor methods whose first argument is a worker callable.
_DISPATCH_METHODS = frozenset(
    {
        "map",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
        "apply",
        "apply_async",
        "submit",
    }
)

#: Constructors whose ``target=`` keyword is a worker callable.
_SPAWN_CONSTRUCTORS = frozenset({"Process", "Thread"})


def _callee_name(func: ast.expr) -> str | None:
    """``Process`` for both ``Process(...)`` and ``ctx.Process(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _worker_names(tree: ast.Module) -> frozenset[str]:
    """Names of functions dispatched to a pool, or started as the
    ``target`` of a process/thread, anywhere in the module."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _DISPATCH_METHODS
            and node.args
            and isinstance(node.args[0], ast.Name)
        ):
            names.add(node.args[0].id)
        if _callee_name(node.func) in _SPAWN_CONSTRUCTORS:
            for keyword in node.keywords:
                if keyword.arg == "target" and isinstance(
                    keyword.value, ast.Name
                ):
                    names.add(keyword.value.id)
    return frozenset(names)


def _module_globals(tree: ast.Module) -> frozenset[str]:
    """Names bound at module level (assignments, defs, imports)."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return frozenset(names)


def _store_root(node: ast.AST) -> ast.AST:
    """The base object of an attribute/subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node


@register_rule
class ExecutorSharedStateRule(Rule):
    code = "RPR006"
    name = "executor-shared-state"
    summary = (
        "worker functions (pool callables, Process/Thread targets) must "
        "not mutate parent-owned state (facade/topology attributes, "
        "globals); return results instead"
    )

    def check_module(self, module: ModuleContext) -> Iterator[Violation]:
        workers = _worker_names(module.tree)
        if not workers:
            return
        module_level = _module_globals(module.tree)
        for node in module.tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in workers
            ):
                yield from self._check_worker(module, node, module_level)

    def _check_worker(
        self,
        module: ModuleContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        module_level: frozenset[str],
    ) -> Iterator[Violation]:
        args = func.args
        params = {
            a.arg
            for a in (
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
                *((args.vararg,) if args.vararg else ()),
                *((args.kwarg,) if args.kwarg else ()),
            )
        }
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                kind = "global" if isinstance(node, ast.Global) else "nonlocal"
                yield self.violation(
                    module,
                    node,
                    f"worker function {func.name!r} declares {kind} "
                    f"{', '.join(node.names)}; workers must return "
                    "results, not mutate shared state",
                )
                continue
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                if not isinstance(target, (ast.Attribute, ast.Subscript)):
                    continue
                root = _store_root(target)
                if not isinstance(root, ast.Name):
                    continue
                if root.id in params:
                    yield self.violation(
                        module,
                        target,
                        f"worker function {func.name!r} writes through "
                        f"parameter {root.id!r} (parent-owned state); "
                        "rebuild locally and return the new state instead",
                    )
                elif root.id in module_level:
                    yield self.violation(
                        module,
                        target,
                        f"worker function {func.name!r} mutates module "
                        f"global {root.id!r}; under multiprocessing this "
                        "only changes the worker's fork — return results "
                        "to the parent instead",
                    )
