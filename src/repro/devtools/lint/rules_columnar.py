"""RPR001 — no tuple materialization inside columnar fast paths.

The columnar ingest pipeline (PR 4) is only fast because an
:class:`~repro.core.events.EventBatch` stays columnar from the stream
emitter to the sampler core: hash columns are computed once and sliced,
never recomputed, and no layer re-expands the batch into per-event
tuples.  The slow ways to break that are all one innocuous call away:

* ``batch.to_events()`` — rebuilds the full tuple list (no ingest path
  needs it: every ``observe_batch`` builds a batch and every core
  delivers from its columns);
* ``zip(*batch)`` / ``zip(*run)`` — transposes rows back into tuples;
* ``EventBatch.from_events(...)`` — round-trips through tuples (the
  ``observe_batch`` adapters call it once, where an event list enters).

This rule flags those constructs inside the functions that make up the
columnar hot path (``observe_columns``, ``_deliver_columns``,
``_plan_columns``, ``ingest_columns``, ``assignments_for_batch``).
Per-item *delivery* loops over ``items_list()``/``sites_list()`` are
allowed: delivery into site objects is inherently per item — the
invariant protects the hashing/routing/splitting stages, which must stay
vectorized.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import ModuleContext, Rule, Violation, register_rule

__all__ = ["ColumnarTupleMaterializationRule", "COLUMNAR_FAST_PATH_FUNCTIONS"]

#: Function names that constitute the columnar hot path.
COLUMNAR_FAST_PATH_FUNCTIONS = frozenset(
    {
        "observe_columns",
        "_deliver_columns",
        "_plan_columns",
        "ingest_columns",
        "assignments_for_batch",
    }
)


@register_rule
class ColumnarTupleMaterializationRule(Rule):
    code = "RPR001"
    name = "no-tuple-materialization"
    summary = (
        "columnar fast paths (observe_columns & co) must not rebuild "
        "tuple events (to_events/from_events calls, zip(*...) transposes)"
    )

    def check_module(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in COLUMNAR_FAST_PATH_FUNCTIONS
            ):
                yield from self._check_function(module, node)

    def _check_function(
        self, module: ModuleContext, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        where = f"columnar fast path {func.name!r}"
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Attribute):
                if callee.attr == "to_events":
                    yield self.violation(
                        module,
                        node,
                        f"{where} materializes tuple events via "
                        ".to_events(); keep the batch columnar "
                        "(slice/select the EventBatch instead)",
                    )
                elif callee.attr == "from_events":
                    yield self.violation(
                        module,
                        node,
                        f"{where} round-trips through tuple events via "
                        ".from_events(); build row subsets with "
                        "select()/with_sites() instead",
                    )
            elif (
                isinstance(callee, ast.Name)
                and callee.id == "zip"
                and any(isinstance(arg, ast.Starred) for arg in node.args)
            ):
                yield self.violation(
                    module,
                    node,
                    f"{where} transposes rows into tuples via zip(*...); "
                    "use the batch's columns directly",
                )
