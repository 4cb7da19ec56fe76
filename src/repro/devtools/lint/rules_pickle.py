"""RPR002 — pickle safety for state that crosses the executor boundary.

The :class:`~repro.runtime.executor.SharedMemoryExecutor` ships group
state, plan metadata, and object item columns to its worker
processes by pickle, and snapshot/deepcopy reach the same
``__reduce__``/``__getstate__`` machinery.  Two classes of bug get
in by default and only explode at runtime, in a worker:

* **Unpicklable resources.**  A class that binds a lock, a process
  pool, an open file handle, a socket, or a shared-memory handle
  (``SharedMemory`` maps a process-local ``mmap``; a pickled copy in
  another process would dangle) to an attribute will raise
  ``TypeError: cannot pickle`` — or silently misbehave — the first time
  an instance is dragged across the boundary, unless it opts out of
  shipping the resource via
  ``__reduce__``/``__getstate__``/``__reduce_ex__``.
* **Shipped derived caches.**  Memoized columns and row-view lists
  (``_hash_columns``, ``*_cache``, ``*_list``, ``*_memo``) are cheap to
  recompute and expensive to serialize; a ``__reduce__``/``__getstate__``
  that references them ships redundant bytes on every crossing
  (:meth:`repro.core.events.EventBatch.__reduce__` is the model: it
  returns only the defining columns).

The rule is static and conservative: it flags attribute assignments
whose value is a call to a known-unpicklable factory on classes with no
pickle-protocol override, and cache-patterned ``self`` attributes
referenced inside ``__reduce__``/``__getstate__`` bodies.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import ModuleContext, Rule, Violation, register_rule

__all__ = ["PickleSafetyRule"]

#: Callable names (last attribute/function component) whose results do
#: not survive pickling.
_UNPICKLABLE_FACTORIES = frozenset(
    {
        "Lock",
        "RLock",
        "Condition",
        "Event",
        "Semaphore",
        "BoundedSemaphore",
        "Barrier",
        "Pool",
        "ThreadPool",
        "ProcessPoolExecutor",
        "ThreadPoolExecutor",
        "Popen",
        "socket",
        "open",
        "SharedMemory",
    }
)

#: Methods that take custody of what an instance ships when pickled.
_PICKLE_OVERRIDES = frozenset({"__reduce__", "__reduce_ex__", "__getstate__"})

#: Attribute-name shapes that mark recomputable derived data.
_CACHE_SUFFIXES = ("_cache", "_caches", "_memo", "_list")
_CACHE_NAMES = frozenset({"_hash_columns"})


def _callee_name(node: ast.Call) -> str | None:
    """Last name component of a call target (``a.b.Pool(...)`` → Pool)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _is_cache_attr(name: str) -> bool:
    return name in _CACHE_NAMES or (
        name.startswith("_") and name.endswith(_CACHE_SUFFIXES)
    )


@register_rule
class PickleSafetyRule(Rule):
    code = "RPR002"
    name = "pickle-boundary-safety"
    summary = (
        "classes holding locks/pools/handles need a pickle-protocol "
        "override, and __reduce__/__getstate__ must not ship derived caches"
    )

    def check_module(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: ModuleContext, cls: ast.ClassDef
    ) -> Iterator[Violation]:
        has_override = any(
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name in _PICKLE_OVERRIDES
            for item in cls.body
        )
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call
            ):
                continue
            factory = _callee_name(node.value)
            if factory not in _UNPICKLABLE_FACTORIES:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and not has_override
                ):
                    yield self.violation(
                        module,
                        node,
                        f"{cls.name}.{target.attr} holds an unpicklable "
                        f"{factory}() result but {cls.name} defines no "
                        "__reduce__/__getstate__ to drop it; instances "
                        "will break at the shm executor's pickle "
                        "boundary (and under deepcopy)",
                    )
        for item in cls.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name in _PICKLE_OVERRIDES
            ):
                yield from self._check_override(module, cls, item)

    def _check_override(
        self,
        module: ModuleContext,
        cls: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Violation]:
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and _is_cache_attr(node.attr)
            ):
                yield self.violation(
                    module,
                    node,
                    f"{cls.name}.{method.name} ships derived cache "
                    f"attribute {node.attr!r} across the pickle "
                    "boundary; drop it and let the receiving side "
                    "recompute (cf. EventBatch.__reduce__)",
                )
