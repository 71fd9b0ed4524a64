"""Content-addressed result cache: hit/miss semantics and resolution."""

import numpy as np
import pytest

from repro.core.branching import make_policy
from repro.distributed import ResultCache, resolve_cache, task_key
from repro.distributed.cache import CACHE_ENV_VAR
from repro.engine import CobraRule
from repro.engine.completion import AllVertices
from repro.graphs import random_regular_graph
from repro.parallel import ShardTask, run_shard


def _task(seed=1):
    graph = random_regular_graph(16, 4, rng=2)
    state = np.zeros((4, graph.n), dtype=bool)
    state[:, 0] = True
    return ShardTask(
        rule=CobraRule(make_policy(2)),
        topology=graph,
        completion=AllVertices(),
        state=state,
        seed=np.random.SeedSequence(seed),
        track_hits=True,
    )


class TestResultCache:
    def test_miss_then_hit_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = _task()
        key = task_key(task)
        assert cache.get(key) is None
        assert key not in cache
        result = run_shard(task)
        path = cache.put(key, result)
        assert path.exists()
        assert key in cache
        assert len(cache) == 1
        back = cache.get(key)
        assert np.array_equal(back.finish_times, result.finish_times)
        assert np.array_equal(back.hit_times, result.hit_times)
        assert np.array_equal(back.final_state, result.final_state)
        assert cache.hits == 1 and cache.misses == 1

    def test_different_tasks_different_addresses(self, tmp_path):
        cache = ResultCache(tmp_path)
        a, b = _task(seed=1), _task(seed=2)
        cache.put(task_key(a), run_shard(a))
        assert cache.get(task_key(b)) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = task_key(_task())
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(key) is None

    @pytest.mark.parametrize("entry", ["undigested", "digest-mismatch"])
    def test_unverified_entry_is_quarantined(self, tmp_path, entry):
        # put() wraps every result in a digest envelope, so a bare
        # result at a key's path came from elsewhere: it is quarantined
        # like an entry whose digest does not match.
        import json

        from repro.distributed import encode_result
        from repro.distributed.wire import canonical_bytes

        cache = ResultCache(tmp_path)
        task = _task()
        key = task_key(task)
        path = cache.put(key, run_shard(task))
        if entry == "undigested":
            payload = encode_result(run_shard(task))
        else:
            payload = json.loads(path.read_text())
            payload["digest"] = "0" * 64
        path.write_bytes(canonical_bytes(payload))
        assert cache.get(key) is None
        assert (cache.hits, cache.corrupt) == (0, 1)
        assert not path.exists() and path.with_suffix(".corrupt").exists()

    def test_put_accepts_encoded_dict(self, tmp_path):
        from repro.distributed import encode_result

        cache = ResultCache(tmp_path)
        task = _task()
        result = run_shard(task)
        cache.put(task_key(task), encode_result(result))
        back = cache.get(task_key(task))
        assert np.array_equal(back.finish_times, result.finish_times)


class TestResolution:
    def test_none_disables(self):
        assert resolve_cache(None) is None

    def test_instance_passes_through(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert resolve_cache(cache) is cache

    def test_path_builds_cache(self, tmp_path):
        cache = resolve_cache(tmp_path / "store")
        assert isinstance(cache, ResultCache)
        assert cache.root == tmp_path / "store"

    @pytest.mark.parametrize("value", ["", "0", "off", "OFF"])
    def test_env_disables_auto(self, monkeypatch, value):
        monkeypatch.setenv(CACHE_ENV_VAR, value)
        assert resolve_cache("auto") is None

    def test_env_points_auto_at_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cc"))
        cache = resolve_cache("auto")
        assert cache is not None
        assert cache.root == tmp_path / "cc"

    def test_unset_env_defaults_to_home(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        root = ResultCache.default_root()
        assert root is not None
        assert root.parts[-2:] == ("repro", "results")


class TestLRUBound:
    def _fill(self, cache, seeds):
        keys = []
        for seed in seeds:
            task = _task(seed=seed)
            keys.append(task_key(task))
            cache.put(keys[-1], run_shard(task))
        return keys

    def test_unbounded_by_default(self, tmp_path, monkeypatch):
        from repro.distributed.cache import CACHE_MAX_BYTES_ENV_VAR

        monkeypatch.delenv(CACHE_MAX_BYTES_ENV_VAR, raising=False)
        cache = ResultCache(tmp_path)
        assert cache.max_bytes is None
        self._fill(cache, range(1, 6))
        assert len(cache) == 5 and cache.evictions == 0

    def test_put_evicts_down_to_bound(self, tmp_path):
        probe = ResultCache(tmp_path / "probe", max_bytes=None)
        self._fill(probe, [1])
        entry_size = probe.total_bytes()

        cache = ResultCache(tmp_path / "lru", max_bytes=7 * entry_size // 2)
        keys = self._fill(cache, range(1, 6))
        assert cache.total_bytes() <= cache.max_bytes
        assert cache.evictions >= 2
        # The newest entry always survives.
        assert keys[-1] in cache

    def test_eviction_is_lru_by_access(self, tmp_path):
        import os
        import time

        probe = ResultCache(tmp_path / "probe", max_bytes=None)
        self._fill(probe, [1])
        entry_size = probe.total_bytes()

        # Entry sizes differ by a few bytes (JSON digit counts), so the
        # bound gets half an entry of slack: three fit, a fourth won't.
        cache = ResultCache(tmp_path / "lru", max_bytes=7 * entry_size // 2)
        k1, k2, k3 = self._fill(cache, [1, 2, 3])
        # Age the stored atimes apart, then touch k1: it becomes the
        # most recently used despite being the oldest write.
        now = time.time()
        for offset, key in ((30, k1), (20, k2), (10, k3)):
            path = cache.path_for(key)
            os.utime(path, (now - offset, now - offset))
        assert cache.get(k1) is not None
        (k4,) = self._fill(cache, [4])
        assert k2 not in cache  # the true LRU went first
        assert k1 in cache and k3 in cache and k4 in cache

    def test_oversized_entry_still_caches(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=1)
        (key,) = self._fill(cache, [1])
        assert key in cache  # the fresh entry is exempt from eviction
        assert len(cache) == 1

    def test_env_var_sets_bound(self, tmp_path, monkeypatch):
        from repro.distributed.cache import CACHE_MAX_BYTES_ENV_VAR

        monkeypatch.setenv(CACHE_MAX_BYTES_ENV_VAR, "12345")
        assert ResultCache(tmp_path).max_bytes == 12345
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV_VAR, "0")
        assert ResultCache(tmp_path).max_bytes is None
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV_VAR, "not-a-number")
        with pytest.raises(ValueError, match="byte count"):
            ResultCache(tmp_path)

    def test_hit_refreshes_atime(self, tmp_path):
        import os
        import time

        cache = ResultCache(tmp_path, max_bytes=None)
        (key,) = self._fill(cache, [1])
        stale = time.time() - 1000
        os.utime(cache.path_for(key), (stale, stale))
        assert cache.get(key) is not None
        assert cache.path_for(key).stat().st_atime > stale + 500
