"""REP002 — ``id()`` used as an identity key.

CPython reuses object ids the moment an object is collected, so keying a
dict, populating a set, or comparing with ``id(x)`` is only correct while
every keyed object is provably kept alive — an invariant refactors break
without a test noticing (the simulator once keyed queued tasks by
``id(task)``; it now carries each task's job on the task itself). This rule
flags ``id(...)`` the moment its value flows somewhere key-like:

* a subscript key (``d[id(x)]``), a dict-literal or dict-comprehension
  key, a set literal/comprehension element;
* an argument to a key-like method: ``add``, ``get``, ``setdefault``,
  ``discard``, ``remove``, ``pop``, ``index``, ``count``,
  ``__contains__``;
* any comparison, including ``in`` / ``not in`` membership tests.

Printing or logging ``id(x)`` for diagnostics is fine and is not flagged.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.core import Finding, ModuleContext
from repro.analysis.registry import Rule, register

__all__ = ["IdAsKeyRule"]

_KEYLIKE_METHODS = frozenset(
    {
        "add",
        "get",
        "setdefault",
        "discard",
        "remove",
        "pop",
        "index",
        "count",
        "__contains__",
    }
)


def _is_id_call(ctx: ModuleContext, node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
        and not ctx.is_shadowed("id", node)
        and "id" not in ctx.imports
        and len(node.args) == 1
    )


@register
class IdAsKeyRule(Rule):
    code = "REP002"
    name = "id-as-key"
    summary = (
        "id(x) must not flow into dict keys, set members, or comparisons "
        "— CPython reuses ids after collection"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not _is_id_call(ctx, node):
                continue
            sink = self._keylike_sink(ctx, node)
            if sink is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"id(...) flows into {sink}: object ids are reused "
                    "after collection, so this aliases once the referent "
                    "dies — key by a run-scoped id or by value instead",
                )

    def _keylike_sink(self, ctx: ModuleContext, node: ast.Call) -> str | None:
        parent = ctx.parent(node)
        if isinstance(parent, ast.Subscript) and parent.slice is node:
            return "a subscript key"
        if isinstance(parent, ast.Compare):
            return "a comparison"
        if isinstance(parent, ast.Set):
            return "a set literal"
        if isinstance(parent, ast.Dict) and node in parent.keys:
            return "a dict-literal key"
        if isinstance(parent, ast.DictComp) and parent.key is node:
            return "a dict-comprehension key"
        if isinstance(parent, ast.SetComp) and parent.elt is node:
            return "a set-comprehension element"
        if (
            isinstance(parent, ast.Call)
            and node in parent.args
            and isinstance(parent.func, ast.Attribute)
            and parent.func.attr in _KEYLIKE_METHODS
        ):
            return f"a .{parent.func.attr}(...) call"
        if isinstance(parent, ast.Tuple):
            # A tuple built around id(x) that is itself a key/member —
            # e.g. d[(id(a), id(b))] or s.add((kind, id(x))).
            grand = ctx.parent(parent)
            if isinstance(grand, ast.Subscript) and grand.slice is parent:
                return "a subscript key (via a tuple)"
            if isinstance(grand, ast.Set):
                return "a set literal (via a tuple)"
            if (
                isinstance(grand, ast.Call)
                and parent in grand.args
                and isinstance(grand.func, ast.Attribute)
                and grand.func.attr in _KEYLIKE_METHODS
            ):
                return f"a .{grand.func.attr}(...) call (via a tuple)"
        return None
