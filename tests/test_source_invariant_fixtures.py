"""Known-good and known-bad fixtures for the source checks of
``tests/test_source_invariants.py``.

The linter these classes once tested is gone; its checks now live in
``tests/test_source_invariants.py``, and each class below pins one of
them (named after the rule it replaced, if any) on small fixtures, so a
check that silently stops firing fails here.
"""

import dataclasses
import types

from tests.test_source_invariants import (ad_hoc_cache_writes,
                                          arena_violations,
                                          bad_type_ignores, clock_reads,
                                          handler_writes, option_passes,
                                          package_api_problems,
                                          simulator_constructions,
                                          unpassed_options)

MODULE = "src/repro/somewhere/mod.py"
NET_MODULE = "src/repro/net/mod.py"
ARENA_PATH = "src/repro/overlays/arena.py"


def module_from(source, package=False):
    module = types.ModuleType("repro.fixture")
    module.__file__ = "repro/fixture/" + ("__init__.py" if package
                                          else "mod.py")
    exec(compile(source, module.__file__, "exec"), module.__dict__)
    return module


# -- RPL002: clock reads go through repro.obs.clock ------------------------


class TestRPL002:
    def test_bad_time_time(self):
        assert clock_reads("import time\nstart = time.time()\n", MODULE) \
            == [2]

    def test_bad_perf_counter_import(self):
        assert clock_reads("from time import perf_counter\n", MODULE) == [1]

    def test_bad_datetime_now(self):
        assert clock_reads(
            "import datetime\nstamp = datetime.datetime.now()\n",
            MODULE) == [2]

    def test_good_inside_wallclock_helper(self):
        source = ("import time\n"
                  "def wallclock() -> float:\n"
                  "    return time.perf_counter()\n")
        assert clock_reads(source, "src/repro/obs/clock.py") == []
        assert clock_reads(source, MODULE) == [3]

    def test_good_virtual_time(self):
        assert clock_reads("def f(sim):\n    return sim.now\n", MODULE) == []


# -- RPL008: package API ---------------------------------------------------


class TestRPL008:
    def test_bad_unresolved_name(self):
        problems = package_api_problems(module_from('__all__ = ["missing"]\n'))
        assert len(problems) == 1 and "missing" in problems[0]

    def test_good_resolved_names(self):
        source = ('__all__ = ["f", "X"]\n'
                  "def f():\n    return 1\n"
                  "class X:\n    pass\n")
        assert package_api_problems(module_from(source)) == []

    def test_pep562_getattr_exempts_resolution(self):
        source = ('__all__ = ["lazy"]\n'
                  "def __getattr__(name):\n"
                  "    if name == 'lazy':\n"
                  "        return 1\n"
                  "    raise AttributeError(name)\n")
        assert package_api_problems(module_from(source)) == []

    def test_bad_package_without_all(self):
        problems = package_api_problems(
            module_from('"""docstring."""\n', package=True))
        assert len(problems) == 1 and "no __all__" in problems[0]

    def test_bad_package_without_docstring(self):
        problems = package_api_problems(
            module_from("__all__ = []\n", package=True))
        assert len(problems) == 1 and "no docstring" in problems[0]


# -- RPL009: type-ignore hygiene ------------------------------------------


class TestRPL009:
    def test_bad_blanket_ignore(self):
        assert bad_type_ignores("x = f()  # type: ignore\n") == [1]

    def test_bad_unjustified_narrow_ignore(self):
        assert bad_type_ignores("x = f()  # type: ignore[arg-type]\n") == [1]

    def test_good_justified_narrow_ignore(self):
        source = ("x = f()  # type: ignore[arg-type]  "
                  "# the checker cannot see the runtime registry\n")
        assert bad_type_ignores(source) == []

    def test_mention_inside_string_is_not_a_finding(self):
        source = 'doc = "never write # type: ignore without codes"\n'
        assert bad_type_ignores(source) == []


# -- RPL012: arena modules stay vectorized ---------------------------------


class TestRPL012:
    def test_bad_object_dtype(self):
        source = ("import numpy as np\n"
                  "views = np.empty(9, dtype=object)\n")
        assert arena_violations(source, ARENA_PATH) == [(2, "object dtype")]

    def test_bad_object_dtype_string_and_astype(self):
        source = ("import numpy as np\n"
                  "a = np.zeros(4, dtype=\"O\")\n"
                  "b = a.astype(object)\n")
        assert sorted(arena_violations(source, ARENA_PATH)) == [
            (2, "object dtype"), (3, "object dtype")]

    def test_bad_loop_over_peers_call(self):
        source = ("def snapshot(overlay):\n"
                  "    for peer in overlay.peers():\n"
                  "        peer.links()\n")
        assert arena_violations(source, ARENA_PATH) == [
            (2, "loop over the peer range")]

    def test_bad_comprehension_over_peer_range(self):
        source = "zones = [walk(i) for i in range(n_peers)]\n"
        assert arena_violations(source, ARENA_PATH) == [
            (1, "loop over the peer range")]

    def test_good_vectorized_code(self):
        source = ("import numpy as np\n"
                  "order = np.lexsort((-scores, group))\n"
                  "sizes = np.diff(store_ptr)\n"
                  "for cap in (4, 16, 64):\n"
                  "    pass\n")
        assert arena_violations(source, ARENA_PATH) == []

    def test_outside_arena_modules_exempt(self):
        source = "links = [peer for peer in overlay.peers()]\n"
        assert arena_violations(source, "src/repro/overlays/midas.py") == []


# -- one simulator builder: QueryEngine ------------------------------------


class TestOneSimulatorBuilder:
    def test_bad_second_entry_point(self):
        source = ("from .eventsim import EventSimulator\n"
                  "def my_ripple(peer, handler):\n"
                  "    sim = EventSimulator(faults=None)\n"
                  "    return sim.run()\n")
        assert simulator_constructions(source, MODULE) == [3]

    def test_bad_aliased_or_qualified_construction(self):
        source = ("from repro.net.eventsim import EventSimulator as Sim\n"
                  "from repro.net import eventsim\n"
                  "a = Sim()\n"
                  "b = eventsim.EventSimulator(service_time=1)\n")
        assert simulator_constructions(source, MODULE) == [3, 4]

    def test_good_inside_the_scheduler(self):
        source = "sim = EventSimulator(max_events=None)\n"
        assert simulator_constructions(
            source, "src/repro/net/scheduler.py") == []

    def test_good_tests_and_type_mentions(self):
        assert simulator_constructions(
            "sim = EventSimulator()\n", "tests/net/test_eventsim.py") == []
        assert simulator_constructions(
            "def f(sim: EventSimulator) -> None:\n    sim.run()\n",
            MODULE) == []


# -- RPL014: handler methods never write through simulation state ----------


class TestRPL014:
    def test_bad_store_mutation_in_handler_method(self):
        assert handler_writes(
            "class H(QueryHandler):\n"
            "    def compute_local_answer(self, store, state):\n"
            "        peer.store.insert(1.0)\n"
            "        return []\n") == [(3, "peer.store.insert(1.0)")]

    def test_bad_peer_state_assignment(self):
        assert handler_writes(
            "class H(QueryHandler):\n"
            "    def update_local_state(self, states):\n"
            "        peer.replicas = {}\n") == [(3, "peer.replicas")]

    def test_good_self_state_and_reads(self):
        assert handler_writes(
            "class H(QueryHandler):\n"
            "    def update_local_state(self, states):\n"
            "        self.best = max(states)\n"
            "    def compute_local_answer(self, store, state):\n"
            "        return store.top_scoring(state, 5)\n") == []

    def test_overlay_data_plane_is_exempt(self):
        assert handler_writes(
            "def load(peer, rows):\n"
            "    peer.store.bulk_load(rows)\n"
            "class Grid(Overlay):\n"
            "    def add(self, peer, row):\n"
            "        peer.store.insert(row)\n") == []


# -- RPL016: answers are cached only through CacheDirectory ----------------


class TestRPL016:
    def test_bad_cache_subscript_write(self):
        assert ad_hoc_cache_writes(
            "def answer(q):\n"
            "    _answer_cache[q.key] = run(q)\n"
            "    return _answer_cache[q.key]\n", NET_MODULE) == [2]

    def test_bad_memo_setdefault(self):
        assert ad_hoc_cache_writes(
            "class Engine:\n"
            "    def answer(self, q):\n"
            "        return self._memo.setdefault(q.key, run(q))\n",
            NET_MODULE) == [3]

    def test_bad_cache_update(self):
        assert ad_hoc_cache_writes(
            "def warm(queries):\n"
            "    query_cache.update({q.key: run(q) for q in queries})\n",
            NET_MODULE) == [2]

    def test_good_cache_directory_usage(self):
        # The sanctioned path: method calls on a CacheDirectory, no
        # subscript writes into a dict.
        assert ad_hoc_cache_writes(
            "def answer(engine, q):\n"
            "    hit = engine.cache.lookup(q.handler, q.restriction)\n"
            "    engine.cache.store(q.handler, q.restriction, hit)\n"
            "    return hit\n", NET_MODULE) == []

    def test_good_non_cache_container(self):
        assert ad_hoc_cache_writes(
            "def tally(outcomes):\n"
            "    counts = {}\n"
            "    counts['done'] = len(outcomes)\n"
            "    return counts\n", NET_MODULE) == []

    def test_good_cache_read_is_fine(self):
        assert ad_hoc_cache_writes(
            "def peek(q):\n"
            "    return _answer_cache.get(q.key)\n", NET_MODULE) == []

    def test_sanctioned_modules_exempt(self):
        source = ("def store(key, answer):\n"
                  "    _cache[key] = answer\n")
        assert ad_hoc_cache_writes(source, NET_MODULE) == [2]
        for rel in ("src/repro/net/resultcache.py",
                    "src/repro/common/store.py"):
            assert ad_hoc_cache_writes(source, rel) == []

    def test_out_of_sim_scope_without_project(self):
        source = "def remember(k, v):\n    _cache[k] = v\n"
        assert ad_hoc_cache_writes(source, "src/repro/experiments/x.py") == []
        assert ad_hoc_cache_writes(source, "benchmarks/x.py") == []
        assert ad_hoc_cache_writes(source, "src/repro/baselines/dsl.py") == []


# -- every public option has a caller ----------------------------------------


def engine(capacity=4, *, budget=100, trace=None):
    """A fixture export with two options."""


@dataclasses.dataclass
class Spec:
    queries: int
    rate: float = 1.0
    seed: int = dataclasses.field(default=0, kw_only=True)
    tally: dict = dataclasses.field(init=False, default_factory=dict)


def unpassed(source):
    exports = {"engine": engine, "Spec": Spec, "VERSION": "1"}
    return unpassed_options(exports, option_passes(source, {}))


class TestOptionCensus:
    def test_bad_nothing_calls(self):
        assert unpassed("x = 1\n") == [
            ("engine", "budget"), ("engine", "trace"),
            ("Spec", "queries"), ("Spec", "rate"), ("Spec", "seed")]

    def test_good_keywords_and_positions(self):
        assert unpassed("engine(8, budget=5, trace=sink)\n"
                        "Spec(10, 2.0, seed=1)\n") == []

    def test_positions_never_reach_keyword_only_options(self):
        assert unpassed("engine(8, 5, sink)\nSpec(1, 2, 3)\n") == [
            ("engine", "budget"), ("engine", "trace"), ("Spec", "seed")]

    def test_good_callable_handed_to_a_helper(self):
        # ``rec.call(name, fn, *args, **kwargs)`` calls ``fn`` with them.
        assert unpassed("rec.call('probe', engine, budget=1, trace=t)\n"
                        "mod.Spec(queries=1, rate=2, seed=3)\n") == []

    def test_good_cls_inside_its_class(self):
        assert ("Spec", "seed") not in unpassed(
            "class Spec:\n"
            "    @classmethod\n"
            "    def fast(cls):\n"
            "        return cls(seed=7)\n")
        assert ("Spec", "seed") in unpassed(
            "def fast(cls):\n    return cls(seed=7)\n")
