"""REP003 — pickle-hostile state on pool/spool-crossing dataclasses.

Requests, scenarios, fault plans, and config builds cross process
boundaries (``ProcessPoolBackend`` workers) and the file spool
(``LocalQueueBackend``), so every one of them must pickle cleanly. The
constructs that break that do so only at runtime — and only on the first
parallel or durable run, long after the field was added. This rule flags
them at lint time, on any *boundary class* (the known crossing types and
every subclass of ``ConfigBuild`` — subclassing one is what puts a type
on the wire):

* a ``lambda`` as a field default (``f: Callable = lambda: ...`` or
  ``field(default=lambda ...)``) — lambdas never pickle; module-level
  functions do (``field(default_factory=...)`` stays legal: the factory
  itself is not instance state);
* assigning a lambda, an open file handle, or a ``threading`` /
  ``multiprocessing`` / ``socket`` primitive to ``self`` (including via
  ``object.__setattr__`` on frozen dataclasses);
* defining a class inside a method — instances of a local class cannot
  be pickled (pickle resolves classes by qualified module path).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.core import Finding, ModuleContext
from repro.analysis.registry import Rule, register

__all__ = ["PickleSafetyRule", "BOUNDARY_CLASS_NAMES", "BOUNDARY_BASE_NAMES"]

#: Types that ride the pool / spool by name. Extending the execution plane
#: with a new crossing type means adding it here (the cache-key rule keys
#: off methods instead, so it self-extends).
BOUNDARY_CLASS_NAMES = frozenset(
    {
        "SimulationRequest",
        "SimulationOutcome",
        "WindowOutcome",
        "PairedWindow",
        "OutcomeTiming",
        "Scenario",
        "TenantSpec",
        "FaultPlan",
        "OutageSpec",
        "StragglerSpec",
        "MachineSelector",
        "ObservationSpec",
        "RolloutPlan",
        "RolloutWave",
        "RolloutCheckpoint",
        "PlannedFlight",
        "FlightPlan",
    }
)

#: Subclassing one of these puts the subclass on the wire.
BOUNDARY_BASE_NAMES = frozenset({"ConfigBuild"} | BOUNDARY_CLASS_NAMES)

_UNPICKLABLE_ORIGINS = ("threading.", "multiprocessing.", "_thread.", "socket.")


def _base_names(node: ast.ClassDef) -> set[str]:
    names = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def is_boundary_class(node: ast.ClassDef) -> bool:
    return node.name in BOUNDARY_CLASS_NAMES or bool(
        _base_names(node) & BOUNDARY_BASE_NAMES
    )


@register
class PickleSafetyRule(Rule):
    code = "REP003"
    name = "pickle-safety"
    summary = (
        "pool/spool-crossing dataclasses must not carry lambdas, local "
        "classes, open handles, or threading primitives"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and is_boundary_class(node):
                yield from self._check_class(ctx, node)

    def _check_class(
        self, ctx: ModuleContext, cls: ast.ClassDef
    ) -> Iterable[Finding]:
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                yield from self._check_field_default(ctx, cls, stmt.value)
            elif isinstance(stmt, ast.Assign):
                yield from self._check_field_default(ctx, cls, stmt.value)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_method(ctx, cls, stmt)

    def _check_field_default(
        self, ctx: ModuleContext, cls: ast.ClassDef, value: ast.expr
    ) -> Iterable[Finding]:
        if isinstance(value, ast.Lambda):
            yield self.finding(
                ctx,
                value,
                f"{cls.name} is a pickle-boundary class, but this field "
                "defaults to a lambda — lambdas never pickle; use a "
                "module-level function",
            )
            return
        if isinstance(value, ast.Call):
            origin = ctx.resolve_call_origin(value.func, value)
            if origin in ("field", "dataclasses.field"):
                for kw in value.keywords:
                    if kw.arg == "default" and isinstance(kw.value, ast.Lambda):
                        yield self.finding(
                            ctx,
                            kw.value,
                            f"{cls.name} is a pickle-boundary class, but "
                            "field(default=<lambda>) stores a lambda on "
                            "every instance — use a module-level function",
                        )
                    elif kw.arg in ("default", "default_factory"):
                        inner = kw.value
                        if isinstance(inner, ast.Call) or isinstance(
                            inner, ast.Name
                        ):
                            yield from self._check_value(
                                ctx, cls, inner, "field default"
                            )
            else:
                yield from self._check_value(ctx, cls, value, "field default")

    def _check_method(
        self, ctx: ModuleContext, cls: ast.ClassDef, method: ast.AST
    ) -> Iterable[Finding]:
        for node in ast.walk(method):
            if isinstance(node, ast.ClassDef):
                yield self.finding(
                    ctx,
                    node,
                    f"class {node.name!r} is defined inside a method of "
                    f"pickle-boundary class {cls.name}: instances of a "
                    "local class cannot pickle (pickle resolves classes "
                    "by module path) — hoist it to module level",
                )
            elif isinstance(node, ast.Assign):
                if any(self._targets_self(t) for t in node.targets):
                    yield from self._check_value(
                        ctx, cls, node.value, "attribute assigned to self"
                    )
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if self._targets_self(node.target):
                    yield from self._check_value(
                        ctx, cls, node.value, "attribute assigned to self"
                    )
            elif isinstance(node, ast.Call):
                # object.__setattr__(self, "x", <value>) — the frozen-
                # dataclass spelling of self.x = <value>.
                origin = ctx.resolve_call_origin(node.func, node)
                if (
                    origin == "object.__setattr__"
                    and len(node.args) == 3
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id == "self"
                ):
                    yield from self._check_value(
                        ctx, cls, node.args[2], "attribute assigned to self"
                    )

    @staticmethod
    def _targets_self(target: ast.expr) -> bool:
        return (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        )

    def _check_value(
        self, ctx: ModuleContext, cls: ast.ClassDef, value: ast.expr, where: str
    ) -> Iterable[Finding]:
        if isinstance(value, ast.Lambda):
            yield self.finding(
                ctx,
                value,
                f"{cls.name} is a pickle-boundary class, but a lambda is "
                f"stored as {where} — lambdas never pickle; use a "
                "module-level function",
            )
            return
        if not isinstance(value, ast.Call):
            return
        origin = ctx.resolve_call_origin(value.func, value)
        if origin is None:
            return
        if origin == "open":
            yield self.finding(
                ctx,
                value,
                f"open(...) stored as {where} on pickle-boundary class "
                f"{cls.name}: file handles cannot cross the pool/spool — "
                "store the path and open lazily",
            )
        elif origin.startswith(_UNPICKLABLE_ORIGINS):
            yield self.finding(
                ctx,
                value,
                f"{origin}(...) stored as {where} on pickle-boundary "
                f"class {cls.name}: thread/process/socket primitives "
                "cannot pickle — keep them off the wire-crossing types",
            )
