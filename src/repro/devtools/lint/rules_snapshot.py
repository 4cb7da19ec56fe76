"""RPR004 — snapshot symmetry: state keys written must equal keys read.

Snapshot-v2 persistence is the serialization substrate for everything:
checkpoint/restore, the shm executor's worker protocol, and the
stateful property tests.  Its weak point is that the writer and the
reader of a state dict are two hand-maintained methods: add a field to
``_state`` and forget ``_load`` (or vice versa) and nothing fails until
a restored sampler silently diverges from its twin.

For every class that defines both halves of a persistence pair —
``_state``/``_load``, ``state_dict``/``load_state``,
``__getstate__``/``__setstate__``, or the per-node hooks a facade base
delegates to (``_site_state``/``_load_site`` and
``_coordinator_state``/``_load_coordinator`` for
:class:`~repro.core.sliding.SlidingFacadeBase`, ``_sites_state``/
``_load_sites`` for :class:`~repro.core.infinite.BottomSFacadeBase`) —
this rule compares:

* **written keys**: every string key of a dict literal (or ``dict(...)``
  keyword) inside the writer, and
* **consumed keys**: every constant subscript ``state["key"]`` and
  ``.get("key")`` call inside the reader.

Keys written but never consumed, or consumed but never written, are
violations.  The comparison is set-based over the whole method body, so
nested sub-dicts pair up naturally as long as both sides spell the same
keys — which is exactly the invariant restores depend on.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import ModuleContext, Rule, Violation, register_rule

__all__ = ["SnapshotSymmetryRule"]

#: (writer, reader) method pairs checked per class.
PERSISTENCE_PAIRS = (
    ("_state", "_load"),
    ("state_dict", "load_state"),
    ("__getstate__", "__setstate__"),
    ("_site_state", "_load_site"),
    ("_coordinator_state", "_load_coordinator"),
    ("_sites_state", "_load_sites"),
)


def _written_keys(method: ast.AST) -> dict[str, ast.AST]:
    """String keys of every dict literal / dict(...) call in ``method``."""
    keys: dict[str, ast.AST] = {}
    for node in ast.walk(method):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.setdefault(key.value, key)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "dict"
        ):
            for keyword in node.keywords:
                if keyword.arg is not None:
                    keys.setdefault(keyword.arg, node)
    return keys


def _consumed_keys(method: ast.AST) -> dict[str, ast.AST]:
    """Constant subscript / ``.get()`` keys read anywhere in ``method``."""
    keys: dict[str, ast.AST] = {}
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            keys.setdefault(node.slice.value, node)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in {"get", "pop"}
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            keys.setdefault(node.args[0].value, node)
    return keys


@register_rule
class SnapshotSymmetryRule(Rule):
    code = "RPR004"
    name = "snapshot-symmetry"
    summary = (
        "state_dict/_state keys written must match the keys "
        "load_state/_load consumes (and vice versa)"
    )

    def check_module(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: ModuleContext, cls: ast.ClassDef
    ) -> Iterator[Violation]:
        methods = {
            item.name: item
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for writer_name, reader_name in PERSISTENCE_PAIRS:
            writer = methods.get(writer_name)
            reader = methods.get(reader_name)
            if writer is None or reader is None:
                continue
            written = _written_keys(writer)
            consumed = _consumed_keys(reader)
            for key in sorted(set(written) - set(consumed)):
                yield self.violation(
                    module,
                    written[key],
                    f"{cls.name}.{writer_name} writes state key {key!r} "
                    f"that {reader_name} never consumes; a restored "
                    "instance silently drops it",
                )
            for key in sorted(set(consumed) - set(written)):
                yield self.violation(
                    module,
                    consumed[key],
                    f"{cls.name}.{reader_name} consumes state key {key!r} "
                    f"that {writer_name} never writes; restore will miss "
                    "or mis-default it",
                )
