"""Source-level invariants that no runtime test can observe.

Each test reads the files an invariant covers (their AST or their comment
tokens) and names every offending line.  The per-source checks it uses
are exercised on known-good and known-bad fixtures in
``tests/test_source_invariant_fixtures.py``.  Everything else the code must
not do is caught at runtime; ``docs/STATIC_ANALYSIS.md`` says by which
test, gate or harness.
"""

import ast
import dataclasses
import importlib
import inspect
import io
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGE = SRC / "repro"


def _scripts(root):
    """``.py`` files under ``root`` plus extensionless python scripts."""
    for path in sorted(root.rglob("*")):
        if path.suffix == ".py":
            yield path
        elif not path.suffix and path.is_file():
            with path.open("rb") as script:
                first = script.readline(128)
            if first.startswith(b"#!") and b"python" in first:
                yield path


def _shipped_files():
    """``(path, repo-relative posix path)`` for the package, the benchmark
    drivers and the repo scripts."""
    for root in (PACKAGE, REPO / "benchmarks", REPO / "tools"):
        for path in _scripts(root):
            yield path, path.relative_to(REPO).as_posix()


def _all_modules():
    names = sorted({
        ".".join(p.parts[:-1] if p.parts[-1] == "__init__" else p.parts)
        for p in (path.relative_to(SRC).with_suffix("")
                  for path in PACKAGE.rglob("*.py"))})
    assert names, "no modules found under src/repro"
    return [importlib.import_module(name) for name in names]


def _chain(node):
    """Names along an attribute/subscript chain, root first
    (``peers[0].store.insert`` -> ``["peers", "store", "insert"]``)."""
    parts = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts[::-1]


def package_api_problems(module):
    """``__all__`` names that do not resolve, and, for a package, a
    missing docstring or ``__all__``."""
    problems = []
    if module.__file__.endswith("__init__.py"):
        if not module.__doc__:
            problems.append(f"package {module.__name__} has no docstring")
        if not hasattr(module, "__all__"):
            problems.append(f"package {module.__name__} has no __all__")
    for export in getattr(module, "__all__", ()):
        if not hasattr(module, export):
            problems.append(
                f"{module.__name__}.__all__ names unresolvable {export!r}")
    return problems


def test_all_exports_resolve_at_runtime():
    """Every ``__all__`` name of every repro module imports for real, and
    every package states its public API (a docstring and an ``__all__``)."""
    problems = [p for module in _all_modules()
                for p in package_api_problems(module)]
    assert not problems, "\n".join(problems)


def test_strict_packages_fully_annotated():
    """Local stand-in for the CI mypy gate (mypy may be absent here):
    every function in the strict packages carries full annotations."""
    missing = []
    for pkg in ("core", "net", "common", "overlays", "obs"):
        for path in sorted((PACKAGE / pkg).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                args = node.args
                unannotated = [
                    a.arg for a in (args.posonlyargs + args.args
                                    + args.kwonlyargs)
                    if a.annotation is None and a.arg not in ("self", "cls")]
                for star in (args.vararg, args.kwarg):
                    if star is not None and star.annotation is None:
                        unannotated.append(star.arg)
                if node.returns is None:
                    unannotated.append("return")
                if unannotated:
                    missing.append(f"{path.relative_to(REPO)}:{node.lineno}"
                                   f" {node.name}: "
                                   + ", ".join(unannotated))
    assert not missing, "\n".join(missing)


_CLOCK_FNS = {"time", "time_ns", "perf_counter", "perf_counter_ns",
              "monotonic", "monotonic_ns", "process_time", "process_time_ns"}


def clock_reads(source, rel):
    """Lines of ``source`` (at repo-relative ``rel``) that read a real
    clock; only ``src/repro/obs/clock.py`` may."""
    if rel == "src/repro/obs/clock.py":
        return []
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "time" \
                and any(a.name in _CLOCK_FNS for a in node.names):
            reads.append(node.lineno)
        elif isinstance(node, ast.Attribute) and (
                (node.attr in _CLOCK_FNS
                 and isinstance(node.value, ast.Name)
                 and node.value.id == "time")
                or (node.attr in ("now", "utcnow", "today")
                    and "datetime" in ast.unparse(node.value))):
            reads.append(node.lineno)
    return reads


def test_only_the_clock_module_reads_a_clock():
    """Simulations run on virtual time; operator-facing timing goes
    through ``repro.obs.clock.wallclock`` and nowhere else."""
    reads = [f"{rel}:{line}" for path, rel in _shipped_files()
             for line in clock_reads(path.read_text(), rel)]
    assert not reads, "real clock read outside repro/obs/clock.py:\n" \
        + "\n".join(reads)


def bad_type_ignores(source):
    """Lines whose ``type: ignore`` comment names no error code or gives
    no reason.  Strings that mention the phrase are not comments."""
    bad = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.COMMENT or "type: ignore" not in token.string:
            continue
        rest = token.string.split("type: ignore", 1)[1]
        if not rest.startswith("[") or "#" not in rest:
            bad.append(token.start[0])
    return bad


def test_type_ignores_are_narrow_and_justified():
    """``# type: ignore[code]  # why`` — never a blanket mute button."""
    bad = [f"{rel}:{line}" for path, rel in _shipped_files()
           for line in bad_type_ignores(path.read_text())]
    assert not bad, "blanket or unexplained type: ignore:\n" + "\n".join(bad)


#: The structure-of-arrays substrate.  ``from_overlay`` is exempt: its job
#: is to walk an object overlay's peers once and snapshot them.
_ARENA = ("src/repro/overlays/arena.py", "src/repro/overlays/arena_build.py")
_PEER_RANGE = {"peers", "n_peers", "num_peers", "peer_count"}


def _mentions_peer_range(expr):
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Name) and sub.id in _PEER_RANGE:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in _PEER_RANGE:
            return True
    return False


def _is_object_dtype(node):
    return (isinstance(node, ast.Name) and node.id == "object") \
        or (isinstance(node, ast.Attribute)
            and node.attr in ("object", "object_")) \
        or (isinstance(node, ast.Constant) and node.value in ("object", "O"))


def arena_violations(source, rel):
    """``(line, what)`` for each object-dtype array and each Python loop
    over the peer range in an arena module (``rel`` repo-relative)."""
    if rel not in _ARENA:
        return []
    tree = ast.parse(source)
    skip = {id(n) for fn in tree.body if isinstance(fn, ast.FunctionDef)
            and fn.name == "from_overlay" for n in ast.walk(fn)}
    bad = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Call) and (
                any(k.arg == "dtype" and _is_object_dtype(k.value)
                    for k in node.keywords)
                or (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "astype" and node.args
                    and _is_object_dtype(node.args[0]))):
            bad.append((node.lineno, "object dtype"))
        loops = [node.iter] if isinstance(node, ast.For) else [
            g.iter for g in getattr(node, "generators", ())]
        if any(_mentions_peer_range(it) for it in loops):
            bad.append((node.lineno, "loop over the peer range"))
    return bad


def test_arena_modules_stay_vectorized():
    """No ``dtype=object`` array and no Python loop over the peer range:
    either brings back the per-peer interpreter cost the arena removes."""
    bad = [f"{rel}:{line} {what}" for rel in _ARENA
           for line, what in arena_violations((REPO / rel).read_text(), rel)]
    assert not bad, "\n".join(bad)


_INFRA = {"peer", "peers", "overlay", "store", "links"}
_STORE_MUTATORS = {"insert", "bulk_load", "extract", "take_all"}


def _handler_classes():
    from repro.core.handler import QueryHandler
    _all_modules()
    found, stack = [], [QueryHandler]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro."):
            found.append(cls)
    return found


def handler_writes(source, handlers=("QueryHandler",)):
    """``(line, code)`` for each write through a peer, overlay, link table
    or store inside a class whose base is named in ``handlers``."""
    bad = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef) or not any(
                (_chain(base) or [""])[-1] in handlers for base in cls.bases):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _STORE_MUTATORS and \
                    _INFRA & set(_chain(node.func)[:-1]):
                bad.append((node.lineno, ast.unparse(node)))
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AugAssign) else []
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)) and \
                        _INFRA & set(_chain(target)[:-1] or _chain(target)):
                    bad.append((node.lineno, ast.unparse(target)))
    return bad


def test_handler_methods_never_write_through_simulation_state():
    """Handler callbacks are functions of ``(state, store)``: the engines
    reorder, replay and batch them.  A method may set ``self.…`` but
    never write through a peer, overlay, link table or store."""
    classes = _handler_classes()
    names = {cls.__name__ for cls in classes}
    files = sorted({Path(inspect.getsourcefile(cls)) for cls in classes})
    bad = [f"{path.relative_to(REPO)}:{line} {code}" for path in files
           for line, code in handler_writes(path.read_text(), names)]
    assert not bad, "\n".join(bad)


#: Where query answers may be memoised: the result cache (whose entries
#: carry ``(peer, store version)`` evidence) and the store's
#: version-keyed kernel cache.
_CACHES_ALLOWED = tuple("src/repro/" + p for p in (
    "net/resultcache.py", "common/store.py"))
_SIM_PACKAGES = ("core", "net", "overlays", "queries", "common", "obs")


def ad_hoc_cache_writes(source, rel):
    """Lines that write into a dict named ``…cache``/``…memo`` in
    simulation code outside the sanctioned modules (``rel`` repo-relative)."""
    if not rel.startswith(tuple(f"src/repro/{p}/" for p in _SIM_PACKAGES)) \
            or rel.startswith(_CACHES_ALLOWED):
        return []
    bad = []
    for node in ast.walk(ast.parse(source)):
        written = []
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            written = [t.value for t in getattr(
                node, "targets", [getattr(node, "target", None)])
                if isinstance(t, ast.Subscript)]
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in ("setdefault", "update"):
            written = [node.func.value]
        if any(s in (_chain(c) or [""])[-1].lower()
               for c in written for s in ("cache", "memo")):
            bad.append(node.lineno)
    return bad


def test_answers_are_cached_only_through_cache_directory():
    """A dict named ``…cache``/``…memo`` written in simulation code is a
    second answer cache with no invalidation: it keeps serving answers
    after the stores under them change."""
    bad = [f"{rel}:{line}" for path, rel in _shipped_files()
           for line in ad_hoc_cache_writes(path.read_text(), rel)]
    assert not bad, "ad-hoc answer cache outside CacheDirectory:\n" \
        + "\n".join(bad)


#: The one module that builds an event simulator: every query reaches the
#: event queue through ``QueryEngine``.
_SIMULATOR_BUILDER = "src/repro/net/scheduler.py"


def simulator_constructions(source, rel):
    """Lines of ``source`` (at repo-relative ``rel``) that construct an
    ``EventSimulator`` outside the scheduler; code outside ``src/`` (tests,
    benchmark drivers) may build its own."""
    if not rel.startswith("src/") or rel == _SIMULATOR_BUILDER:
        return []
    tree = ast.parse(source)
    names = {"EventSimulator"} | {
        alias.asname for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names
        if alias.name == "EventSimulator" and alias.asname}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (_chain(node.func) or [""])[-1] in names]


def test_only_the_scheduler_builds_an_event_simulator():
    """One way onto the event queue: a second place that builds a
    simulator is a second engine entry point, with its own launch,
    settlement and latency rules."""
    bad = [f"{rel}:{line}" for path, rel in _shipped_files()
           for line in simulator_constructions(path.read_text(), rel)]
    assert not bad, "EventSimulator built outside " \
        f"{_SIMULATOR_BUILDER}:\n" + "\n".join(bad)


# -- every public option has a caller ----------------------------------------

#: ``(export, option)`` -> why it stays although no shipped caller passes
#: it; ``"*"`` stands for every option of the export.
_UNPASSED_OPTIONS = {
    ("QueryJob", "*"): "built only by QueryEngine.submit/submit_at, "
                       "whose keywords run_workload passes",
    ("WorkloadReport", "*"): "run_workload fills the report in after "
                             "construction: its fields are results",
    ("QueryRejected", "reason"): "an outcome's field, read by reports; "
                                 "the engine sheds only a full queue",
    ("QueryEngine", "fanout"): "bench_layers passes it through its "
                               "engine_class(...) factory",
    ("WorkloadSpec", "deadline"): "benchmarks/bench_load.py passes it "
                                  "in a **kwargs dict",
    ("WorkloadSpec", "priorities"): "benchmarks/bench_load.py passes it "
                                    "in a **kwargs dict",
    ("WorkloadSpec", "max_events"): "the per-query event budget of a "
                                    "workload, kept beside the job's",
    ("resilient_ripple", "max_events"): "the per-query event budget of "
                                        "a supervised run, kept beside "
                                        "the job's",
    ("event_driven_ripple", "sink"): "the trace hook every engine entry "
                                     "point takes",
    ("run_workload", "sink"): "the trace hook every engine entry point "
                              "takes",
    **{(name, "strict"): "strictness is set per overlay family; its "
                         "removal is ROADMAP item 21(d)"
       for name in ("RippleDiversifier", "distributed_skyline",
                    "distributed_topk", "event_driven_ripple")},
}


def _caller_files():
    """Every shipped caller: the package, the per-layer benchmark, the
    benchmark drivers and the repo scripts, without their tests
    (``examples/`` do not count)."""
    for root in (PACKAGE, REPO / "bench_layers", REPO / "benchmarks",
                 REPO / "tools"):
        for path in _scripts(root):
            if not path.name.startswith("test_"):
                yield path


def option_passes(source, passes):
    """Fold ``source``'s calls into ``passes``: callee name ->
    ``[keyword names, most positional arguments]``.  A call credits its
    keywords to the callee and to every callable handed to it as an
    argument (``rec.call(name, fn, x, k=v)``); ``cls(...)`` inside a
    class body calls that class."""

    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Call):
            callee = (_chain(node.func) or [None])[-1]
            if callee == "cls" and owner is not None:
                callee = owner
            named = {k.arg for k in node.keywords if k.arg is not None}
            for j, name in enumerate([callee] + [
                    (_chain(arg) or [None])[-1] for arg in node.args]):
                if name is not None:
                    entry = passes.setdefault(name, [set(), 0])
                    entry[0] |= named
                    if j == 0:
                        entry[1] = max(entry[1], len(node.args))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return passes


def public_options(obj):
    """``(option, position or None)`` that a caller of ``obj`` may set:
    a dataclass's init fields (positional unless keyword-only), else the
    keyword-only parameters of the function or constructor."""
    if dataclasses.is_dataclass(obj):
        fields = [f for f in dataclasses.fields(obj) if f.init]
        return [(f.name, None if f.kw_only else i)
                for i, f in enumerate(fields)]
    try:
        parameters = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):          # a builtin's constructor
        return []
    return [(p.name, None) for p in parameters if p.kind is p.KEYWORD_ONLY]


def unpassed_options(exports, passes):
    """``(export, option)`` for each option of ``exports`` (name ->
    object) that no call in ``passes`` sets by name or position.  A class
    also counts the calls of its package subclasses."""
    missing = []
    for export, obj in exports.items():
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        names, stack = [], [obj]
        while stack:
            cls = stack.pop()
            names.append(cls.__name__)
            if inspect.isclass(cls):
                stack.extend(sub for sub in cls.__subclasses__()
                             if sub.__module__.startswith("repro"))
        named = set().union(*(passes.get(n, [set(), 0])[0] for n in names))
        most = max(passes.get(n, [set(), 0])[1] for n in names)
        missing += [(export, option)
                    for option, position in public_options(obj)
                    if option not in named
                    and (position is None or position >= most)]
    return missing


def test_every_public_option_has_a_caller():
    """An option only tests set is a branch no product run takes: make it
    a constant (docs/STATIC_ANALYSIS.md, "Option census"), or excuse it
    in ``_UNPASSED_OPTIONS`` with a reason."""
    import repro
    passes = {}
    for path in _caller_files():
        option_passes(path.read_text(), passes)
    exports = {name: getattr(repro, name) for name in repro.__all__}
    unpassed = unpassed_options(exports, passes)
    missing = [f"{export}.{option}" for export, option in unpassed
               if (export, option) not in _UNPASSED_OPTIONS
               and (export, "*") not in _UNPASSED_OPTIONS]
    assert not missing, "options no shipped caller sets:\n" \
        + "\n".join(missing)
    excused = {key for export, option in unpassed
               for key in ((export, option), (export, "*"))}
    stale = [f"{export}.{option}" for export, option in _UNPASSED_OPTIONS
             if (export, option) not in excused]
    assert not stale, "excused options that a caller sets, or that are " \
        "gone:\n" + "\n".join(stale)
