"""Known-good and known-bad fixtures for the handler-purity and
answer-caching checks of ``tests/test_source_invariants.py``.

Each class is named after the linter rule the check replaced.
"""

from tests.test_source_invariants import (ad_hoc_cache_writes,
                                          handler_writes)

NET_MODULE = "src/repro/net/mod.py"


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
            "        peer.alive = False\n") == [(3, "peer.alive")]

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
                    "src/repro/common/store.py",
                    "src/repro/baselines/speerto.py"):
            assert ad_hoc_cache_writes(source, rel) == []

    def test_out_of_sim_scope_without_project(self):
        source = "def remember(k, v):\n    _cache[k] = v\n"
        assert ad_hoc_cache_writes(source, "src/repro/experiments/x.py") == []
        assert ad_hoc_cache_writes(source, "benchmarks/x.py") == []
