"""Tests for the persistent content-addressed solve cache (repro.store).

Covers the store mechanics (envelope validation, quarantine, racing
writers, LRU gc), the codec's zero-trust decoding, the ambient-store
plumbing, and the end-to-end Tier A behaviour through ``synthesize``,
``run_batch`` and the service.
"""

import json
import pickle
import threading

import pytest

from repro.cases import generate_case
from repro.core import BindingPolicy, SynthesisOptions, SynthesisStatus
from repro.core.synthesizer import synthesize
from repro.store import (
    CACHE_EPOCH,
    Store,
    StoreError,
    active_store,
    code_salt,
    digest,
    load_result,
    result_key,
    store_result,
)


def small_spec(seed=0):
    return generate_case(seed=seed, switch_size=8, n_flows=2, n_inlets=2,
                         n_conflicts=0, binding=BindingPolicy.FIXED)


def some_key(tag="x"):
    return digest("test-entry", tag)


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------
def test_keys_are_sha256_hex():
    key = some_key()
    assert len(key) == 64
    assert all(c in "0123456789abcdef" for c in key)


def test_keys_fold_in_the_salt(monkeypatch):
    before = some_key()
    monkeypatch.setenv("REPRO_STORE_SALT", "tenant-b")
    assert some_key() != before
    assert code_salt() == "tenant-b"


def test_default_salt_names_the_epoch():
    assert f"epoch{CACHE_EPOCH}:" in code_salt()


def test_result_key_separates_case_and_config():
    spec = small_spec()
    base = result_key(spec, SynthesisOptions())
    assert result_key(spec, SynthesisOptions(mip_gap=1e-2)) != base
    assert result_key(small_spec(seed=1), SynthesisOptions()) != base
    # runtime attachments are not identity
    assert result_key(spec, SynthesisOptions(cache=False)) == base


def test_result_key_is_fault_salted():
    """A degraded chip must never address a healthy chip's entry."""
    from repro.repair import mask_spec
    from repro.sim import stuck_closed
    from repro.store import fault_salt

    spec = small_spec()
    assert fault_salt(spec) == "healthy"
    seg = next(k for k in sorted(spec.switch.segments)
               if not spec.switch.is_pin(k[0])
               and not spec.switch.is_pin(k[1]))
    degraded = mask_spec(small_spec(), [stuck_closed(*seg)])
    assert fault_salt(degraded) == degraded.switch.health.digest()
    assert result_key(degraded, SynthesisOptions()) != \
        result_key(spec, SynthesisOptions())
    # the salt is canonical: re-deriving the same mask gives the same key
    assert result_key(mask_spec(small_spec(), [stuck_closed(*seg)]),
                      SynthesisOptions()) == \
        result_key(degraded, SynthesisOptions())


def test_cached_healthy_result_never_serves_a_degraded_chip(tmp_path):
    from repro.repair import mask_spec
    from repro.sim import stuck_closed

    store = Store(tmp_path)
    opts = SynthesisOptions(store=store, time_limit=60)
    healthy = synthesize(small_spec(), opts)
    assert healthy.status is SynthesisStatus.OPTIMAL
    assert healthy.counters.get("store_put") == 1
    # strike a junction-junction segment the healthy routing uses
    seg = next(k for k in sorted(healthy.used_segments)
               if not healthy.spec.switch.is_pin(k[0])
               and not healthy.spec.switch.is_pin(k[1]))
    degraded_spec = mask_spec(small_spec(), [stuck_closed(*seg)])
    degraded = synthesize(degraded_spec, opts)
    assert "store_hit" not in degraded.counters  # no healthy-entry hit
    assert degraded.status.solved
    for path in degraded.flow_paths.values():
        assert seg not in path.segments
    # the degraded result got its own fault-salted entry
    warm = synthesize(mask_spec(small_spec(), [stuck_closed(*seg)]), opts)
    assert warm.counters.get("store_hit") == 1
    assert warm.objective == degraded.objective


def test_digest_canonicalizes_tuples_and_floats():
    assert digest("catalog", ("a", 1, 0.5)) == digest("catalog", ["a", 1, 0.5])
    assert digest("catalog", 0.5) != digest("catalog", 0.25)


# ----------------------------------------------------------------------
# store mechanics
# ----------------------------------------------------------------------
def test_put_get_roundtrip(tmp_path):
    store = Store(tmp_path)
    key = some_key()
    assert store.put(key, "catalog", {"routes": [["a", "b"]]})
    assert store.get(key, "catalog") == {"routes": [["a", "b"]]}
    assert store.counters["hits"] == 1
    assert store.contains(key, "catalog")


def test_get_miss(tmp_path):
    store = Store(tmp_path)
    assert store.get(some_key(), "catalog") is None
    assert store.counters["misses"] == 1


def test_malformed_key_rejected(tmp_path):
    with pytest.raises(StoreError):
        Store(tmp_path).get("not-a-key", "catalog")


def test_entries_are_immutable_first_writer_wins(tmp_path):
    store = Store(tmp_path)
    key = some_key()
    assert store.put(key, "catalog", {"routes": [["a", "b"]]})
    assert not store.put(key, "catalog", {"routes": [["c", "d"]]})
    assert store.get(key, "catalog") == {"routes": [["a", "b"]]}
    assert store.counters["put_races"] == 1


def test_truncated_entry_is_a_miss_and_is_repaired(tmp_path):
    """A torn write (crash mid-flush without atomic rename) heals."""
    store = Store(tmp_path)
    key = some_key()
    store.put(key, "catalog", {"routes": [["a", "b"]]})
    path = store._object_path(key)
    raw = path.read_text()
    path.write_text(raw[: len(raw) // 2])  # truncate: unparseable JSON
    assert store.get(key, "catalog") is None
    assert store.counters["corrupt"] == 1
    assert not path.exists()  # quarantined
    # the next writer repairs the entry
    assert store.put(key, "catalog", {"routes": [["a", "b"]]})
    assert store.get(key, "catalog") is not None


def test_tampered_payload_is_a_miss(tmp_path):
    store = Store(tmp_path)
    key = some_key()
    store.put(key, "catalog", {"routes": [["a", "b"]]})
    path = store._object_path(key)
    entry = json.loads(path.read_text())
    entry["payload"]["routes"] = [["evil", "route"]]  # sha now mismatches
    path.write_text(json.dumps(entry))
    assert store.get(key, "catalog") is None
    assert store.counters["corrupt"] == 1


def test_wrong_kind_or_stale_salt_is_a_miss(tmp_path, monkeypatch):
    store = Store(tmp_path)
    key = some_key()
    store.put(key, "catalog", {"routes": []})
    assert store.get(key, "incumbent") is None  # kind mismatch
    store.put(key, "catalog", {"routes": []})
    monkeypatch.setenv("REPRO_STORE_SALT", "next-version")
    assert store.get(key, "catalog") is None  # stale salt


def test_concurrent_writers_converge(tmp_path):
    """Racing writers on one key leave exactly one valid entry."""
    store = Store(tmp_path)
    key = some_key()
    wins = []
    barrier = threading.Barrier(8)

    def writer(i):
        barrier.wait()
        if store.put(key, "catalog", {"routes": [["a", "b"]]}):
            wins.append(i)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(wins) == 1
    assert store.get(key, "catalog") == {"routes": [["a", "b"]]}
    assert store.verify()["invalid"] == []


def test_gc_evicts_least_recently_used(tmp_path):
    store = Store(tmp_path)
    keys = [some_key(str(i)) for i in range(4)]
    for i, key in enumerate(keys):
        store.put(key, "catalog", {"routes": [["n", str(i)]]})
        path = store._object_path(key)
        import os

        os.utime(path, (1000 + i, 1000 + i))  # deterministic recency
    sizes = sum(size for _, _, size in store._entries())
    report = store.gc(max_bytes=sizes // 2)
    assert report["evicted"] >= 1
    assert report["kept_bytes"] <= sizes // 2
    # the oldest entries went first
    assert store.contains(keys[-1], "catalog")
    assert not store.contains(keys[0], "catalog")
    assert store.counters["evictions"] == report["evicted"]


def test_hit_bumps_recency(tmp_path):
    import os

    store = Store(tmp_path)
    a, b = some_key("a"), some_key("b")
    store.put(a, "catalog", {"routes": [["a", "a"]]})
    store.put(b, "catalog", {"routes": [["b", "b"]]})
    os.utime(store._object_path(a), (1000, 1000))
    os.utime(store._object_path(b), (2000, 2000))
    store.get(a, "catalog")  # a becomes most recent
    entries = sum(size for _, _, size in store._entries())
    store.gc(max_bytes=entries - 1)  # must evict exactly one
    assert store.contains(a, "catalog")
    assert not store.contains(b, "catalog")


def test_gc_spares_entry_hit_between_scan_and_lock(tmp_path):
    """A reader bumping recency after gc's scan but before its lock
    must win: gc re-stats under the shard lock and skips the entry."""
    import contextlib
    import os

    store = Store(tmp_path)
    keys = [some_key(str(i)) for i in range(3)]
    for i, key in enumerate(keys):
        store.put(key, "catalog", {"routes": [["n", str(i)]]})
        os.utime(store._object_path(key), (1000 + i, 1000 + i))
    victim = keys[0]  # oldest: first on gc's eviction list
    original_lock = store._shard_lock
    raced = []

    def lock_after_racing_reader(key):
        @contextlib.contextmanager
        def cm():
            if key == victim and not raced:
                raced.append(key)
                os.utime(store._object_path(victim))  # the reader's bump
            with original_lock(key):
                yield
        return cm()

    store._shard_lock = lock_after_racing_reader
    entries = sum(size for _, _, size in store._entries())
    report = store.gc(max_bytes=entries - 1)
    assert raced, "the injected reader never fired"
    # the just-hit entry survived; gc moved on to the next-oldest
    assert store.contains(victim, "catalog")
    assert not store.contains(keys[1], "catalog")
    assert report["evicted"] == 1


def test_gc_tolerates_entry_vanishing_before_lock(tmp_path):
    """An entry unlinked between scan and lock (concurrent gc/repair)
    frees its bytes without crashing or counting as an eviction."""
    import contextlib
    import os

    store = Store(tmp_path)
    keys = [some_key(str(i)) for i in range(3)]
    for i, key in enumerate(keys):
        store.put(key, "catalog", {"routes": [["n", str(i)]]})
        os.utime(store._object_path(key), (1000 + i, 1000 + i))
    victim = keys[0]
    original_lock = store._shard_lock
    vanished = []

    def lock_after_concurrent_unlink(key):
        @contextlib.contextmanager
        def cm():
            if not vanished:
                vanished.append(key)
                store._object_path(victim).unlink()
            with original_lock(key):
                yield
        return cm()

    store._shard_lock = lock_after_concurrent_unlink
    report = store.gc(max_bytes=0)
    assert vanished
    # the vanished entry is not *our* eviction; the other two are
    assert report["evicted"] == 2
    assert store.counters["evictions"] == 2


def test_get_tolerates_eviction_between_read_and_bump(tmp_path,
                                                     monkeypatch):
    """gc unlinking a file after a reader loaded it but before the
    LRU utime bump must not break the read (payload already in hand)."""
    import os as _os

    from repro.store import store as store_module

    store = Store(tmp_path)
    key = some_key("racy")
    store.put(key, "catalog", {"routes": [["a", "b"]]})
    real_utime = _os.utime

    def unlink_then_bump(path, *args, **kwargs):
        _os.unlink(path)  # the concurrent gc wins the race
        return real_utime(path, *args, **kwargs)  # ENOENT

    monkeypatch.setattr(store_module.os, "utime", unlink_then_bump)
    assert store.get(key, "catalog") == {"routes": [["a", "b"]]}
    monkeypatch.undo()
    assert store.get(key, "catalog") is None  # really evicted


def test_gc_and_readers_race_without_losing_hot_entries(tmp_path):
    """Thread-level smoke: hammer get() against gc() and require the
    hot key (re-put on miss, as real callers do) always readable."""
    store = Store(tmp_path)
    hot = some_key("hot")
    payload = {"routes": [["h", "h"]]}
    store.put(hot, "catalog", payload)
    for i in range(6):
        store.put(some_key(f"cold{i}"), "catalog", {"routes": [["c", str(i)]]})
    stop = threading.Event()
    failures = []

    def reader():
        while not stop.is_set():
            got = store.get(hot, "catalog")
            if got is None:
                store.put(hot, "catalog", payload)
            elif got != payload:
                failures.append(got)

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    for _ in range(25):
        store.gc(max_bytes=256)
    stop.set()
    for t in threads:
        t.join(timeout=10)
    assert not failures


def test_verify_reports_and_repairs(tmp_path):
    store = Store(tmp_path)
    good, bad = some_key("good"), some_key("bad")
    store.put(good, "catalog", {"routes": []})
    store.put(bad, "catalog", {"routes": []})
    store._object_path(bad).write_text("{ nope")
    report = store.verify(repair=True)
    assert report["checked"] == 2
    assert report["valid"] == 1
    assert report["invalid"][0]["key"] == bad
    assert not store._object_path(bad).exists()
    assert store.verify() == {"checked": 1, "valid": 1, "invalid": []}


def test_entries_of_a_retired_kind_stay_valid_and_age_out(tmp_path):
    """Older stores can hold ``pseudocosts`` entries (branching
    statistics) that nothing reads any more: they must audit clean,
    show up in the stats, and be evicted by gc like any other entry."""
    import os

    store = Store(tmp_path)
    old = digest("pseudocosts", "form-digest", 0)
    store.put(old, "pseudocosts", {"dsum": [0.5], "dcnt": [1],
                                   "usum": [1.5], "ucnt": [1]})
    os.utime(store._object_path(old), (1000, 1000))  # least recently used
    store.put(some_key(), "catalog", {"routes": []})
    assert store.verify() == {"checked": 2, "valid": 2, "invalid": []}
    assert store.stats()["by_kind"] == {"catalog": 1, "pseudocosts": 1}
    newest = store._object_path(some_key()).stat().st_size
    report = store.gc(max_bytes=newest)
    assert report["evicted"] == 1
    assert not store._object_path(old).exists()
    assert store.contains(some_key(), "catalog")


def test_stats_shape(tmp_path):
    store = Store(tmp_path, max_bytes=1 << 20)
    store.put(some_key(), "catalog", {"routes": []})
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["by_kind"] == {"catalog": 1}
    assert stats["max_bytes"] == 1 << 20
    assert stats["salt"] == code_salt()
    assert stats["counters"]["puts"] == 1


def test_store_pickles_by_configuration(tmp_path):
    store = Store(tmp_path, max_bytes=123)
    store.put(some_key(), "catalog", {"routes": []})
    clone = pickle.loads(pickle.dumps(store))
    assert str(clone.root) == str(store.root)
    assert clone.max_bytes == 123
    assert clone.counters["puts"] == 0  # counters are per-process
    assert clone.contains(some_key(), "catalog")  # same on-disk cache


# ----------------------------------------------------------------------
# ambient store
# ----------------------------------------------------------------------
def test_repro_store_env_opens_a_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "envstore"))
    store = active_store()
    assert store is not None
    assert str(store.root) == str(tmp_path / "envstore")
    assert active_store() is store  # cached across calls


# ----------------------------------------------------------------------
# Tier A through synthesize
# ----------------------------------------------------------------------
def test_synthesize_tier_a_roundtrip(tmp_path):
    spec = small_spec()
    store = Store(tmp_path)
    opts = SynthesisOptions(store=store, time_limit=60)
    cold = synthesize(spec, opts)
    assert cold.status is SynthesisStatus.OPTIMAL
    assert cold.counters.get("store_put") == 1
    warm = synthesize(small_spec(), opts)  # fresh but identical spec
    assert warm.counters.get("store_hit") == 1
    assert warm.objective == cold.objective
    assert warm.binding == cold.binding
    assert warm.flow_sets == cold.flow_sets
    assert {f: p.vertices for f, p in warm.flow_paths.items()} == \
        {f: p.vertices for f, p in cold.flow_paths.items()}


def test_cache_false_ignores_the_store(tmp_path):
    spec = small_spec()
    store = Store(tmp_path)
    synthesize(spec, SynthesisOptions(store=store, time_limit=60))
    again = synthesize(
        spec, SynthesisOptions(store=store, cache=False, time_limit=60))
    assert "store_hit" not in again.counters
    assert again.status is SynthesisStatus.OPTIMAL


def test_tier_a_hit_failing_verification_falls_through(tmp_path):
    """A stored result the checker rejects must not be served."""
    spec = small_spec()
    store = Store(tmp_path)
    opts = SynthesisOptions(store=store, time_limit=60)
    cold = synthesize(spec, opts)
    key = result_key(spec, opts)
    payload = store.get(key, "result")
    assert payload is not None
    # Forge a valid-looking entry whose binding is wrong: it decodes
    # cleanly but the independent verifier rejects it.
    forged = dict(payload)
    (m, p), = [list(forged["binding"].items())[0]]
    wrong = next(pin for pin in spec.switch.pins if pin != p)
    forged["binding"] = {**forged["binding"], m: wrong}
    store.delete(key)
    store.put(key, "result", forged)
    assert load_result(store, key, spec) is None  # rejected + deleted
    assert store.counters["verify_failed"] == 1
    assert not store.contains(key, "result")
    # synthesize falls through to a real solve and repairs the entry
    result = synthesize(spec, opts)
    assert "store_hit" not in result.counters
    assert result.status is SynthesisStatus.OPTIMAL
    assert result.objective == cold.objective
    assert store.contains(key, "result")


def test_only_proven_optimal_results_are_cached(tmp_path):
    spec = small_spec()
    store = Store(tmp_path)
    result = synthesize(spec, SynthesisOptions(store=store, time_limit=60))
    assert result.status is SynthesisStatus.OPTIMAL
    fake = synthesize(spec, SynthesisOptions(cache=False, time_limit=60))
    fake.status = SynthesisStatus.FEASIBLE
    assert store_result(store, some_key(), fake) is False


def test_ambient_store_reaches_synthesize(tmp_path, monkeypatch):
    spec = small_spec()
    monkeypatch.setenv("REPRO_STORE", str(tmp_path))
    synthesize(spec, SynthesisOptions(time_limit=60))
    warm = synthesize(spec, SynthesisOptions(time_limit=60))
    assert warm.counters.get("store_hit") == 1


def test_explicit_store_is_never_installed_as_the_ambient_one(tmp_path):
    """A run's own store stays its own: nothing deeper in the pipeline
    reads the ambient store, so no worker thread can leave another
    run's store installed behind it."""
    from repro.opt.solvers import get_backend, register_backend, \
        unregister_backend
    from repro.opt.solvers.base import SolverBackend

    seen = []

    class ProbeBackend(SolverBackend):
        name = "ambient_probe"

        def solve(self, model, **kwargs):
            seen.append(active_store())
            return get_backend("highs").solve(model, **kwargs)

    register_backend("ambient_probe", ProbeBackend)
    try:
        assert active_store() is None
        result = synthesize(small_spec(), SynthesisOptions(
            backend="ambient_probe", store=Store(tmp_path), time_limit=60))
    finally:
        unregister_backend("ambient_probe")
    assert result.counters.get("store_put") == 1
    assert seen and seen == [None] * len(seen)
    assert active_store() is None


# ----------------------------------------------------------------------
# batch + service integration
# ----------------------------------------------------------------------
def test_run_batch_warm_rows_match_cold(tmp_path):
    from repro.experiments import run_batch

    specs = [small_spec(s) for s in range(2)]
    store = Store(tmp_path)
    cold = run_batch(specs, SynthesisOptions(time_limit=60, store=store))
    warm = run_batch([small_spec(s) for s in range(2)],
                     SynthesisOptions(time_limit=60, store=store))
    strip = lambda row: {k: v for k, v in row.items() if k != "runtime_s"}
    assert [strip(r) for r in warm.rows] == [strip(r) for r in cold.rows]
    assert store.counters["hits"] >= 2


def test_service_completes_stored_jobs_at_admission(tmp_path):
    from repro.service import SynthesisService

    spec = small_spec()
    store = Store(tmp_path)
    opts = SynthesisOptions(time_limit=60)
    with SynthesisService(workers=1, options=opts, store=store) as svc:
        job = svc.submit(spec)
        record = svc.wait(job, timeout=120)
        assert record.state == "done"
    # a second tenant on the same store: terminal at submit time
    with SynthesisService(workers=1, options=opts, store=store) as svc2:
        job2 = svc2.submit(small_spec())
        assert svc2.job(job2).terminal  # no worker involved
        assert svc2.job(job2).state == "done"
        assert svc2.job(job2).row["status"] == "optimal"
        assert svc2.job(job2).row == record.row or \
            {k: v for k, v in svc2.job(job2).row.items()
             if k != "runtime_s"} == \
            {k: v for k, v in record.row.items() if k != "runtime_s"}
