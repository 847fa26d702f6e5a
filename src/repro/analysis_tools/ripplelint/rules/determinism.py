"""Determinism rules: RPL001 (randomness), RPL002 (clocks), RPL013 (hash order).

These protect the repo's central guarantee — bit-identical replay of any
seeded run — against the three ways CPython leaks nondeterminism into a
program: global random state, the wall clock, and hash-randomized
iteration order.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import dotted, walk_with_function_stack
from ..engine import (Finding, ParsedModule, Project, finding_at,
                      in_shared_scope, sim_scope)

__all__ = ["check_rpl001", "check_rpl002", "check_rpl013"]


# ---------------------------------------------------------------------------
# RPL001 -- unseeded randomness breaks deterministic replay
# ---------------------------------------------------------------------------

#: ``np.random`` members that merely *construct* seeded generators.
_NP_RANDOM_ALLOWED = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "Philox", "SFC64", "MT19937",
})


def check_rpl001(module: ParsedModule,
                 project: Project | None) -> Iterator[Finding]:
    """RPL001: no unseeded randomness in shipped code.

    Replay under a seeded ``FaultPlan`` is bit-identical only while every
    random draw flows from an explicitly seeded ``np.random.Generator``
    (threaded through constructors) or :func:`repro.common.hashing.mix`.
    The process-global ``random`` module and the legacy ``np.random.<fn>``
    module-level draws are hidden global state and are banned outright.
    """
    if not in_shared_scope(module, project):
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield finding_at(
                        module, node, "RPL001",
                        "import of the process-global 'random' module; "
                        "thread a seeded np.random.Generator instead")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                yield finding_at(
                    module, node, "RPL001",
                    "import from the process-global 'random' module; "
                    "thread a seeded np.random.Generator instead")
        elif isinstance(node, ast.Call):
            path = dotted(node.func)
            if path is None:
                continue
            parts = path.split(".")
            if (len(parts) == 3 and parts[0] in ("np", "numpy")
                    and parts[1] == "random"
                    and parts[2] not in _NP_RANDOM_ALLOWED):
                yield finding_at(
                    module, node, "RPL001",
                    f"legacy global-state draw '{path}'; use a seeded "
                    "np.random.default_rng(...) generator")


# ---------------------------------------------------------------------------
# RPL002 -- wall-clock reads where virtual time rules
# ---------------------------------------------------------------------------

_TIME_FNS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns",
})
_DATETIME_FNS = frozenset({"now", "utcnow", "today"})

#: The single sanctioned wall-clock shim: a module-private helper named
#: ``_wallclock`` whose body is the only place the rule permits real
#: clock reads (see ``repro/experiments/runner.py``).
_WALLCLOCK_HELPER = "_wallclock"


def check_rpl002(module: ParsedModule,
                 project: Project | None) -> Iterator[Finding]:
    """RPL002: no wall-clock reads outside a ``_wallclock`` helper.

    Simulation code (``core/``, ``net/``, ``overlays/``, ``queries/``)
    runs on virtual time — ``EventSimulator.now`` and hop counts — so a
    real clock read is always a bug there.  The one legitimate consumer
    (experiment progress reporting) must route through a module-private
    ``_wallclock()`` helper, which keeps every real clock read greppable
    and explicitly allowlisted.
    """
    if not in_shared_scope(module, project):
        return
    for node, functions in walk_with_function_stack(module.tree):
        if _WALLCLOCK_HELPER in functions:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _TIME_FNS:
                    yield finding_at(
                        module, node, "RPL002",
                        f"wall-clock import 'from time import {alias.name}'; "
                        "simulation code runs on virtual time "
                        f"(route real timing through {_WALLCLOCK_HELPER}())")
        if not isinstance(node, ast.Call):
            continue
        path = dotted(node.func)
        if path is None:
            continue
        parts = path.split(".")
        if parts[0] == "time" and len(parts) == 2 and parts[1] in _TIME_FNS:
            yield finding_at(
                module, node, "RPL002",
                f"wall-clock read '{path}()'; simulation code runs on "
                f"virtual time (route real timing through "
                f"{_WALLCLOCK_HELPER}())")
        elif (parts[-1] in _DATETIME_FNS and len(parts) >= 2
                and "datetime" in parts[:-1]):
            yield finding_at(
                module, node, "RPL002",
                f"wall-clock read '{path}()'; simulation code runs on "
                f"virtual time (route real timing through "
                f"{_WALLCLOCK_HELPER}())")


# ---------------------------------------------------------------------------
# RPL013 -- hash-randomized iteration order breaks bit-identical replay
# ---------------------------------------------------------------------------

#: Callables whose result does not depend on the order their (sole
#: iterable) argument is consumed in.
_ORDER_INSENSITIVE_SINKS = frozenset({
    "sum", "len", "min", "max", "any", "all", "set", "frozenset",
    "sorted",
})

#: Callables that *capture* iteration order into a sequence.
_ORDER_CAPTURING = frozenset({"list", "tuple"})

#: Methods whose result is a set regardless of receiver typing noise.
_SET_RETURNING_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})

#: Annotation spellings that mark a parameter/variable as a set.
_SET_ANNOTATIONS = frozenset({
    "set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet",
})

_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)


def _annotation_is_set(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    name = dotted(node)
    return name is not None and name.split(".")[-1] in _SET_ANNOTATIONS


def _is_set_expr(node: ast.AST, local_sets: frozenset[str]) -> bool:
    """Syntactic set-typed-ness: literals, constructors, set algebra,
    ``os.environ``/``globals()``/``vars()``, and locally traced names."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in local_sets
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and \
                func.id in ("set", "frozenset", "globals", "vars", "locals"):
            return True
        if isinstance(func, ast.Attribute) and \
                func.attr in _SET_RETURNING_METHODS:
            return True
        return False
    if isinstance(node, ast.Attribute):
        return dotted(node) == "os.environ"
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
        return _is_set_expr(node.left, local_sets) or \
            _is_set_expr(node.right, local_sets)
    if isinstance(node, ast.IfExp):
        return _is_set_expr(node.body, local_sets) or \
            _is_set_expr(node.orelse, local_sets)
    return False


def _local_set_names(scope: ast.AST) -> frozenset[str]:
    """Names bound to set-typed expressions within ``scope``.

    Two passes give simple transitivity (``a = set(); b = a``); this is
    deliberately assignment-only inference — attributes and containers
    stay untracked, the module-prefix/reachability scope plus the
    dynamic ``PYTHONHASHSEED`` A/B job cover what escapes it.
    """
    names: set[str] = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if _annotation_is_set(arg.annotation):
                names.add(arg.arg)
    for _pass in (0, 1):
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                if _is_set_expr(node.value, frozenset(names)):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and (
                        _annotation_is_set(node.annotation)
                        or (node.value is not None and _is_set_expr(
                            node.value, frozenset(names)))):
                    names.add(node.target.id)
    return frozenset(names)


def _iteration_scopes(tree: ast.Module) -> Iterator[ast.AST]:
    """The module itself plus each function definition, innermost last."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def check_rpl013(module: ParsedModule,
                 project: Project | None) -> Iterator[Finding]:
    """RPL013: no order-sensitive iteration over sets in sim-reachable code.

    ``for x in some_set``, a list/generator comprehension over a set, or
    ``list(some_set)`` observes CPython's hash-randomized order: the run
    is still *correct* per-answer but no longer bit-identical across
    interpreter launches, which silently breaks ``replay(trace) ==
    QueryStats`` and every seeded golden.  Iterations wrapped in
    ``sorted(...)``, set-to-set comprehensions, and reductions through
    order-insensitive sinks (``sum``/``len``/``min``/``max``/``any``/
    ``all``/set algebra) are exempt — their results cannot encode the
    order.  Scope: the sim-prefix fallback plus everything the call
    graph proves reachable from the simulation entry points.
    """
    emitted: set[int] = set()
    for scope in _iteration_scopes(module.tree):
        local_sets = _local_set_names(scope)
        if not local_sets and not _scope_mentions_sets(scope):
            continue
        # Comprehensions feeding an order-insensitive sink call, e.g.
        # ``sum(x for x in seen)`` or ``max(f(p) for p in peers_set)``.
        sanctioned: set[int] = set()
        for node in ast.walk(scope):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in _ORDER_INSENSITIVE_SINKS \
                    and len(node.args) >= 1:
                for arg in node.args:
                    if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                        sanctioned.add(id(arg))
        for node in ast.walk(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is not scope:
                continue  # inner functions get their own scope pass
            for found in _check_iteration_node(module, project, node,
                                               local_sets, sanctioned):
                if id(node) not in emitted:
                    emitted.add(id(node))
                    yield found


def _scope_mentions_sets(scope: ast.AST) -> bool:
    """Cheap pre-filter: any set-ish syntax at all in the scope?"""
    for node in ast.walk(scope):
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name) and \
                node.id in ("set", "frozenset", "globals", "vars", "locals"):
            return True
        if isinstance(node, ast.Attribute) and (
                node.attr == "environ"
                or node.attr in _SET_RETURNING_METHODS):
            return True
    return False


def _check_iteration_node(module: ParsedModule, project: Project | None,
                          node: ast.AST, local_sets: frozenset[str],
                          sanctioned: set[int]) -> Iterator[Finding]:
    message = ("iterates a set/frozenset (hash-randomized order) in "
               "sim-reachable code; wrap the iterable in sorted(...) or "
               "reduce through an order-insensitive sink "
               "(sum/len/min/max/set algebra)")
    if isinstance(node, (ast.For, ast.AsyncFor)):
        if _is_set_expr(node.iter, local_sets) and \
                sim_scope(module, node.lineno, project):
            yield finding_at(module, node, "RPL013", message)
    elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
        if id(node) in sanctioned:
            return
        for comp in node.generators:
            if _is_set_expr(comp.iter, local_sets) and \
                    sim_scope(module, node.lineno, project):
                yield finding_at(module, node, "RPL013", message)
                return
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _ORDER_CAPTURING and len(node.args) == 1:
        if _is_set_expr(node.args[0], local_sets) and \
                sim_scope(module, node.lineno, project):
            yield finding_at(
                module, node, "RPL013",
                f"{node.func.id}(...) over a set captures hash-randomized "
                "order in sim-reachable code; use sorted(...) instead")
