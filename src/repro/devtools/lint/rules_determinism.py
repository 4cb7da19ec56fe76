"""RPR005 — determinism: no wall-clock or unseeded randomness in hot layers.

Every differential guarantee in this repo — sharded == oracle,
process == serial, restored == original — holds because a sampler's
behavior is a pure function of (config, seed, stream).  One
``time.time()`` feeding a decision, one unseeded RNG, one iteration
over a ``set`` (whose order hashes per process) or one builtin
``hash()`` of a string and the property suite starts flaking in ways
that are nearly impossible to bisect.

Flagged constructs:

* wall-clock reads: ``time.time``/``time.time_ns`` and
  ``datetime.now``/``utcnow``/``today`` calls
  (``time.perf_counter`` is fine — the runtime uses it for *measuring*,
  never for *deciding*);
* the global ``random`` module's sampling functions (``random.random``,
  ``choice``, ``shuffle``, ...; a seeded ``random.Random(seed)``
  instance is fine);
* NumPy's legacy global RNG (``np.random.seed``/``rand``/...;
  ``default_rng(seed)`` and ``Generator`` are fine) and
  ``default_rng()`` called *without* a seed;
* order-sensitive iteration over sets: ``for x in set(...)``,
  ``list(set(...))``, ``tuple(set(...))``, ``enumerate(set(...))``
  (wrap in ``sorted(...)`` to restore a canonical order);
* the builtin ``hash()``, which salts ``str`` and ``bytes`` per process
  (unless ``PYTHONHASHSEED`` is fixed), outside a ``__hash__`` method
  (use a seeded :class:`~repro.hashing.unit.UnitHasher`).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .engine import ModuleContext, Rule, Violation, register_rule

__all__ = ["DeterminismRule"]

_CLOCK_CALLS = frozenset({"time", "time_ns", "now", "utcnow", "today"})
_CLOCK_OWNERS = frozenset({"time", "datetime", "date"})

#: ``random.<fn>`` module-level functions that read global RNG state.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "betavariate",
        "gauss",
        "normalvariate",
        "seed",
        "getrandbits",
    }
)

#: Legacy ``np.random.<fn>`` global-state functions.
_NUMPY_GLOBAL_FNS = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
    }
)

#: Callables whose output order mirrors their iterable argument's order.
_ORDER_SENSITIVE_WRAPPERS = frozenset({"list", "tuple", "enumerate", "iter"})


def _attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` → ["a", "b", "c"] (empty when not a plain name chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


@register_rule
class DeterminismRule(Rule):
    code = "RPR005"
    name = "determinism"
    summary = (
        "no wall-clock reads, unseeded/global RNGs, set-order "
        "iteration, or builtin hash() on paths that decide sampler behavior"
    )

    def check_module(self, module: ModuleContext) -> Iterator[Violation]:
        # A __hash__ only has to agree with __eq__ within one process.
        in_dunder_hash = {
            node
            for method in ast.walk(module.tree)
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
            and method.name == "__hash__"
            for node in ast.walk(method)
        }
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                message = self._check_call(node, node in in_dunder_hash)
                if message is not None:
                    yield self.violation(module, node, message)
            elif isinstance(node, (ast.For, ast.comprehension)):
                iterable = node.iter
                if _is_set_expression(iterable):
                    anchor = node if isinstance(node, ast.For) else iterable
                    yield self.violation(
                        module,
                        anchor,
                        "iteration over a set is hash-order dependent and "
                        "varies across processes; sort it first "
                        "(sorted(...)) to keep sample order deterministic",
                    )

    def _check_call(self, node: ast.Call, in_dunder_hash: bool) -> Optional[str]:
        chain = _attr_chain(node.func)
        if not chain:
            return None
        if chain == ["hash"] and not in_dunder_hash:
            return (
                "builtin hash() salts str and bytes per process; use a "
                "seeded UnitHasher (hash() belongs only in __hash__)"
            )
        last = chain[-1]
        owner = chain[-2] if len(chain) >= 2 else None
        if last in _CLOCK_CALLS and owner in _CLOCK_OWNERS:
            return (
                f"wall-clock read {'.'.join(chain)}() is nondeterministic; "
                "derive decisions from slots/config (perf_counter is fine "
                "for measuring, never for deciding)"
            )
        # The numpy check must precede the generic one: np.random.shuffle
        # would otherwise match the stdlib-`random` branch (owner is the
        # same "random" component) and report the wrong remedy.
        if (
            owner == "random"
            and len(chain) >= 3
            and chain[-3] in {"np", "numpy"}
            and last in _NUMPY_GLOBAL_FNS
        ):
            return (
                f"legacy numpy global RNG {'.'.join(chain)}() depends on "
                "process state; use np.random.default_rng(seed)"
            )
        if owner == "random" and last in _GLOBAL_RANDOM_FNS:
            return (
                f"global-RNG call {'.'.join(chain)}() depends on process "
                "state; use a seeded random.Random or numpy Generator"
            )
        if last == "default_rng" and not node.args and not node.keywords:
            return (
                "default_rng() without a seed draws OS entropy; pass the "
                "config's seed so runs are reproducible"
            )
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_SENSITIVE_WRAPPERS
            and node.args
            and _is_set_expression(node.args[0])
        ):
            return (
                f"{node.func.id}(set(...)) freezes hash order into a "
                "sequence; sort the set first to keep order deterministic"
            )
        return None
