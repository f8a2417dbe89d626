"""Distributed evaluation fleet: broker, leases, elastic membership.

The contracts under test, bottom-up:

* **Wire protocol** — length-prefixed pickled op dicts survive a
  roundtrip; bad handshakes are rejected.
* **Lease semantics** — the broker reports and never retries: the
  first expiry completes the chunk with ``ChunkTimeoutError``, the
  first disconnect with ``FleetWorkerLostError``, and both classify
  *transient*; completed tasks are forgotten, and a late result for one
  is counted as a straggler and dropped.
* **One retry owner** — over a ``FleetPool`` the executor's
  ``FaultPolicy`` alone retries, so a chunk that keeps hanging is
  leased at most ``max_retries + 1`` times.
* **FuturePool contract** — ``FleetPool`` slots into
  ``AsyncPopulationExecutor`` unchanged, and results are bit-identical
  to serial no matter how many workers serve the chunks.
* **Elastic membership** (the headline): a worker SIGKILLed mid-lease
  plus another joining mid-run lose zero rows — the executor retries
  the lost chunk, surviving results stay
  bit-identical to a fault-free serial run minus quarantined
  candidates, and everything computed is persisted in the shared store.
* **Store-mediated warm starts** — a worker with a ``--store`` serves
  already-persisted rows from the store instead of recomputing them,
  follows the segment log (each chunk reads only the files added since
  the last one) and flushes only the freshly computed delta back.
"""

import os
import pickle
import signal
import socket
import threading
import time
from dataclasses import astuple

import numpy as np
import pytest

from repro.engine import Engine
from repro.engine.cache import IndicatorCache
from repro.errors import SearchError
from repro.runtime.async_pool import AsyncPopulationExecutor, ChunkGatherError
from repro.runtime.faults import (
    ChunkTimeoutError,
    FaultPlan,
    FaultPolicy,
    chunk_item_identity,
    classify_failure,
)
from repro.runtime.fleet import (
    FleetBroker,
    FleetPool,
    FleetWorkerLostError,
    FleetWorkerStats,
    _recv_msg,
    _send_msg,
    _warm_start_evaluate,
    parse_address,
    run_worker,
)
from repro.runtime.pool import (
    _evaluate_genotype_chunk,
    _fork_available,
    genotype_indicator_keys,
)
from repro.runtime.store import RuntimeStore, cache_fingerprint
from repro.searchspace.canonical import canonicalize
from repro.searchspace.genotype import Genotype
from repro.searchspace.network import MacroConfig
from repro.searchspace.space import NasBench201Space

pytestmark = pytest.mark.fleet

needs_fork = pytest.mark.skipif(not _fork_available(),
                                reason="needs fork start method")


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
class Client:
    """A hand-driven fleet worker connection (protocol-level tests)."""

    def __init__(self, broker, token=""):
        self.sock = socket.create_connection((broker.host, broker.port),
                                             timeout=5.0)
        self.sock.settimeout(5.0)
        self.token = token
        self.worker_id = None

    def send(self, **message):
        _send_msg(self.sock, message)

    def recv(self):
        return _recv_msg(self.sock)

    def register(self):
        self.send(op="register", token=self.token, pid=os.getpid())
        reply = self.recv()
        if reply.get("op") == "welcome":
            self.worker_id = reply["worker_id"]
        return reply

    def lease(self):
        self.send(op="lease", worker_id=self.worker_id)
        return self.recv()

    def result(self, task_id, value):
        self.send(op="result", worker_id=self.worker_id,
                  task_id=task_id, value=value)
        return self.recv()

    def error(self, task_id, error):
        self.send(op="error", worker_id=self.worker_id,
                  task_id=task_id, error=error)
        return self.recv()

    def close(self):
        self.sock.close()


def drain_completed(broker, n, timeout=5.0):
    """Collect ``n`` completed tasks (sweeping leases while waiting)."""
    done = []
    deadline = time.monotonic() + timeout
    while len(done) < n and time.monotonic() < deadline:
        done.extend(broker.wait_completed())
    return done


def wait_until(predicate, timeout=10.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def echo_chunk(payload):
    """Module-level (picklable) toy chunk worker."""
    return [(item, {"v": item * 2}) for item in payload]


def failing_chunk(payload):
    raise ValueError(f"bad payload {payload!r}")


def slow_genotype_chunk(payload):
    """The real genotype chunk worker, slowed enough that a SIGKILL can
    reliably land mid-lease."""
    rows = _evaluate_genotype_chunk(payload)
    time.sleep(0.3)
    return rows


def constant_chunk(payload):
    """A deterministic stand-in for the genotype chunk worker: each
    (genotype, indicator) gets a fixed value, with no proxy compute (so
    no proxy seconds either)."""
    items, _, _ = payload
    rows = []
    for ops, needs in items:
        index = Genotype(tuple(ops)).to_index()
        rows.append((index, {name: index + 0.25 * slot
                             for slot, (name, need) in enumerate(
                                 zip(("ntk", "linear_regions"), needs))
                             if need}, {}))
    return rows


def chunk_payload(genotypes, proxy_config, macro_config):
    return (tuple((g.ops, (True, True)) for g in genotypes),
            proxy_config, macro_config)


def seed_rows(store, fingerprint, genotypes, proxy_config, macro_config):
    """Flush ``constant_chunk`` rows for ``genotypes``, as a sibling
    worker would."""
    rows = constant_chunk(chunk_payload(genotypes, proxy_config,
                                        macro_config))
    cache = IndicatorCache()
    for index, row, _ in rows:
        keys = genotype_indicator_keys(index, astuple(proxy_config),
                                       astuple(macro_config))
        for name, value in row.items():
            cache.put(keys[name], value)
    return store.save_cache(cache, fingerprint)


def distinct_genotypes(n):
    """``n`` canonical genotypes with distinct canonical indices."""
    found = {}
    for genotype in NasBench201Space().sample(4 * n, rng=11):
        canon = canonicalize(genotype)
        found.setdefault(canon.to_index(), canon)
    assert len(found) >= n
    return list(found.values())[:n]


def store_files(directory):
    """Names of the base and segment files in a cache directory."""
    return ({path.name for path in directory.glob("seg-*.jsonl")}
            | {path.name for path in directory.glob("base.jsonl")})


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_parse_address(self):
        assert parse_address("127.0.0.1:7707") == ("127.0.0.1", 7707)
        assert parse_address("broker.local:0") == ("broker.local", 0)
        for bad in ("nocolon", ":123", "host:notaport", "host:"):
            with pytest.raises(SearchError):
                parse_address(bad)

    def test_message_roundtrip(self):
        a, b = socket.socketpair()
        try:
            message = {"op": "result", "task_id": 3,
                       "value": ([(1, {"ntk": 2.5})], 0.25)}
            _send_msg(a, message)
            assert _recv_msg(b) == message
        finally:
            a.close()
            b.close()

    def test_register_and_idle(self):
        with FleetBroker() as broker:
            client = Client(broker)
            assert client.register()["op"] == "welcome"
            assert broker.num_workers == 1
            assert client.lease()["op"] == "idle"  # no work queued
            client.close()

    def test_bad_token_rejected(self):
        with FleetBroker(token="secret") as broker:
            client = Client(broker, token="wrong")
            assert client.register()["op"] == "reject"
            client.close()
            assert wait_until(lambda: broker.rejected == 1, timeout=2.0)
            assert broker.num_workers == 0

    def test_graceful_leave_not_counted_lost(self):
        with FleetBroker() as broker:
            client = Client(broker)
            client.register()
            client.send(op="leave", worker_id=client.worker_id)
            assert client.recv()["op"] == "ok"
            client.close()
            assert wait_until(lambda: broker.num_workers == 0)
            assert broker.workers_lost == 0

    def test_immediate_close_does_not_kill_accept_thread(self, monkeypatch):
        """A broker closed right after it was built must not fail its
        accept thread on the closed listener."""
        raised = []
        monkeypatch.setattr(threading, "excepthook", raised.append)
        for _ in range(200):
            FleetBroker().close()
        assert raised == []

    def test_finished_handler_threads_are_dropped(self):
        with FleetBroker() as broker:
            for _ in range(50):
                client = Client(broker)
                client.register()
                client.close()
            assert wait_until(lambda: not any(
                thread.is_alive() for thread in list(broker._threads)))
            live = Client(broker)
            live.register()
            # Accepting the live client pruned every finished handler.
            assert len(broker._threads) == 1
            assert all(thread.is_alive() for thread in broker._threads)
            live.close()


# ----------------------------------------------------------------------
# Lease semantics
# ----------------------------------------------------------------------
class TestLeases:
    def test_lease_result_roundtrip(self):
        with FleetBroker() as broker:
            task_id = broker.submit(echo_chunk, [1, 2], tag="t0")
            client = Client(broker)
            client.register()
            reply = client.lease()
            assert reply["op"] == "task" and reply["task_id"] == task_id
            # The shipped callable really is the submitted worker.
            value = reply["worker"](reply["payload"])
            assert client.result(task_id, value)["op"] == "ok"
            (done,) = drain_completed(broker, 1)
            assert done.error is None
            assert done.value == [(1, {"v": 2}), (2, {"v": 4})]
            assert done.tag == "t0"
            client.close()

    def test_first_expiry_completes_the_chunk(self):
        with FleetBroker(lease_seconds=0.15) as broker:
            broker.submit(echo_chunk, [1])
            client = Client(broker)
            client.register()
            assert client.lease()["op"] == "task"
            time.sleep(0.2)
            (done,) = drain_completed(broker, 1)
            assert isinstance(done.error, ChunkTimeoutError)
            assert classify_failure(done.error) == "transient"
            assert broker.lease_expiries == 1
            # Nothing is requeued: retrying is the executor's call.
            assert broker.num_pending == 0
            assert client.lease()["op"] == "idle"
            assert broker.leases == 1
            client.close()

    def test_first_disconnect_completes_the_chunk(self):
        with FleetBroker() as broker:
            broker.submit(echo_chunk, [1])
            first = Client(broker)
            first.register()
            assert first.lease()["op"] == "task"
            first.close()  # SIGKILL looks exactly like this to the broker
            (done,) = drain_completed(broker, 1)
            assert isinstance(done.error, FleetWorkerLostError)
            assert classify_failure(done.error) == "transient"
            assert broker.lost_tasks == 1
            assert broker.workers_lost == 1
            second = Client(broker)
            second.register()
            assert second.lease()["op"] == "idle"  # nothing requeued
            second.close()

    def test_straggler_result_for_expired_task_dropped(self):
        with FleetBroker(lease_seconds=0.15) as broker:
            task_id = broker.submit(echo_chunk, [5])
            slow = Client(broker)
            slow.register()
            assert slow.lease()["op"] == "task"
            time.sleep(0.2)
            (expired,) = drain_completed(broker, 1)
            assert isinstance(expired.error, ChunkTimeoutError)
            # The executor's retry is a fresh task on another worker.
            retry_id = broker.submit(echo_chunk, [5])
            fast = Client(broker)
            fast.register()
            assert fast.lease()["task_id"] == retry_id != task_id
            # The slow worker finishes after all: the broker has
            # forgotten its task, so the result is a straggler.
            assert slow.result(task_id, "late")["op"] == "ok"
            assert wait_until(lambda: broker.stragglers == 1)
            assert fast.result(retry_id, "retried")["op"] == "ok"
            (done,) = drain_completed(broker, 1)
            assert done.task_id == retry_id and done.value == "retried"
            assert broker.stragglers == 1
            slow.close()
            fast.close()

    def test_completed_tasks_are_forgotten(self):
        with FleetBroker() as broker:
            client = Client(broker)
            client.register()
            ids = [broker.submit(echo_chunk, [k]) for k in range(5)]
            for _ in ids:
                reply = client.lease()
                client.result(reply["task_id"], reply["task_id"])
            done = drain_completed(broker, len(ids))
            assert sorted(task.value for task in done) == ids
            assert len(broker._tasks) == 0
            assert broker.num_pending == 0
            # A late duplicate for a forgotten task is one straggler.
            assert client.result(ids[0], "late")["op"] == "ok"
            assert wait_until(lambda: broker.stragglers == 1)
            assert broker.wait_completed(timeout=0.0) == []
            client.close()

    def test_drain_serves_queue_before_retiring_workers(self):
        with FleetBroker() as broker:
            broker.submit(echo_chunk, [1])
            broker.drain()
            client = Client(broker)
            client.register()
            reply = client.lease()
            assert reply["op"] == "task"  # queued work still served
            client.result(reply["task_id"], "done")
            assert client.lease()["op"] == "drain"  # then retire
            client.close()
            assert wait_until(lambda: broker.num_workers == 0)
            assert broker.workers_lost == 0  # drain exit is graceful


# ----------------------------------------------------------------------
# FleetPool: the FuturePool contract over real worker processes
# ----------------------------------------------------------------------
@needs_fork
class TestFleetPool:
    def test_submit_gather_with_local_workers(self):
        with FleetPool(n_workers=2, lease_seconds=30.0) as pool:
            pool.spawn_local_workers(2)
            ids = [pool.submit(echo_chunk, [k], tag=f"t{k}")
                   for k in range(5)]
            assert pool.num_pending == 5
            results = pool.gather(2)
            assert len(results) >= 2
            results += pool.gather_all()
            assert pool.num_pending == 0
            assert sorted(r.task_id for r in results) == ids
            for result in results:
                assert result.error is None
                (item,) = result.value
                assert item == (int(result.tag[1:]),
                                {"v": int(result.tag[1:]) * 2})

    def test_unpicklable_task_raises_at_submit(self, monkeypatch):
        """The task frame is pickled at submit: an unpicklable worker
        raises in the driver and costs no worker."""
        raised = []
        monkeypatch.setattr(threading, "excepthook", raised.append)
        with FleetPool(n_workers=1, lease_seconds=30.0) as pool:
            pool.spawn_local_workers(1)
            assert wait_until(lambda: pool.broker.num_workers == 1)
            with pytest.raises((pickle.PicklingError, AttributeError)):
                pool.submit(lambda payload: payload, [1])
            assert pool.num_pending == 0
            pool.submit(echo_chunk, [2])
            (result,) = pool.gather(1)
            assert result.error is None
            assert pool.broker.num_workers == 1
        assert raised == []

    def test_worker_exception_travels_back(self):
        with FleetPool(n_workers=1, lease_seconds=30.0) as pool:
            pool.spawn_local_workers(1)
            pool.submit(failing_chunk, [9])
            (result,) = pool.gather(1)
            assert isinstance(result.error, ValueError)
            assert classify_failure(result.error) == "poison"

    def test_hanging_chunk_leased_at_most_max_retries_plus_one(
            self, tmp_path, tiny_proxy_config):
        """The executor is the one retry owner: a chunk whose leases
        keep expiring is leased ``max_retries + 1`` times, then fails."""
        genotype = canonicalize(NasBench201Space().sample(1, rng=3)[0])
        plan = FaultPlan(state_path=str(tmp_path / "faults"),
                         script={genotype.to_index(): ("hang",) * 6},
                         hang_seconds=1.0)
        pool = FleetPool(n_workers=4, lease_seconds=0.2)
        executor = AsyncPopulationExecutor(
            chunk_size=1,
            genotype_worker=plan.wrap(constant_chunk),
            fault_policy=FaultPolicy(max_retries=2, quarantine=False,
                                     backoff_base=0.01),
            pool=pool,
        )
        pool.spawn_local_workers(4)
        try:
            assert wait_until(lambda: pool.broker.num_workers == 4)
            executor.submit_population(
                Engine(proxy_config=tiny_proxy_config), [genotype])
            with pytest.raises(ChunkGatherError) as info:
                executor.gather(1)
        finally:
            executor.close()
        (error,) = info.value.failures
        assert isinstance(error, ChunkTimeoutError)
        assert pool.broker.leases == 3
        assert pool.broker.lease_expiries == 3
        assert executor.stats.retries == 2
        assert executor.stats.timeouts == 3

    def test_close_idempotent_and_reaps_workers(self):
        pool = FleetPool(n_workers=1)
        procs = pool.spawn_local_workers(1)
        pool.close()
        pool.close()
        assert wait_until(lambda: not procs[0].is_alive(), timeout=5.0)

    def test_executor_over_fleet_bit_identical(self, tiny_proxy_config):
        population = NasBench201Space().sample(8, rng=11)
        serial = Engine(proxy_config=tiny_proxy_config) \
            .evaluate_population(population)
        pool = FleetPool(n_workers=2, lease_seconds=60.0)
        executor = AsyncPopulationExecutor(chunk_size=2, pool=pool)
        engine = Engine(proxy_config=tiny_proxy_config, executor=executor)
        pool.spawn_local_workers(2)
        try:
            fleet = engine.evaluate_population(population)
        finally:
            executor.close()
        assert fleet.unique_canonical == serial.unique_canonical
        for name in serial.columns:
            np.testing.assert_array_equal(serial.columns[name],
                                          fleet.columns[name])


# ----------------------------------------------------------------------
# Elastic membership: the headline property
# ----------------------------------------------------------------------
@needs_fork
class TestElasticMembership:
    def test_sigkill_mid_lease_and_join_mid_run(self, tmp_path,
                                                tiny_proxy_config):
        """One worker is SIGKILLed *mid-lease*, a replacement joins
        mid-run, and one scripted poison candidate exercises the
        quarantine path over the fleet: surviving rows must be
        bit-identical to a fault-free serial run minus the quarantined
        candidate, with zero lost rows in the shared store."""
        population = NasBench201Space().sample(10, rng=5)
        serial_engine = Engine(proxy_config=tiny_proxy_config)
        serial_engine.evaluate_population(population)
        # The rows workers compute: the two proxies (FLOPs are priced in
        # the driver, and this run builds no table).
        serial_rows = {key: value
                       for key, value in serial_engine.cache.items()
                       if key[0] in ("ntk", "linear_regions")}

        poison_identity = canonicalize(population[0]).to_index()
        plan = FaultPlan(state_path=str(tmp_path / "faults"),
                         script={poison_identity: ("poison",)})
        store_dir = str(tmp_path / "store")
        engine = Engine(proxy_config=tiny_proxy_config)
        pool = FleetPool(n_workers=2, lease_seconds=60.0)
        executor = AsyncPopulationExecutor(
            chunk_size=2,
            genotype_worker=plan.wrap(slow_genotype_chunk),
            fault_policy=FaultPolicy(chunk_timeout=60.0, quarantine=True,
                                     backoff_base=0.01),
            pool=pool,
        )
        victim = pool.spawn_local_workers(1, store_dir=store_dir)[0]
        executor.submit_population(engine, population)

        def victim_computing():
            """The victim holds a fresh lease on a chunk without the
            poison candidate.  The poison chunk fails before any compute,
            so a lease on it may be over before the kill lands."""
            broker = pool.broker
            with broker._lock:
                held = [broker._tasks[task_id]
                        for session in broker._workers.values()
                        if session.pid == victim.pid
                        for task_id in session.leased]
                return any(
                    time.time() - task.leased_wall < 0.15
                    and poison_identity not in {
                        chunk_item_identity("genotype", item)
                        for item in task.payload[0]}
                    for task in held)

        assert wait_until(victim_computing, timeout=30.0), \
            "victim never held a fresh lease on a clean chunk"
        os.kill(victim.pid, signal.SIGKILL)
        joiner = pool.spawn_local_workers(1, store_dir=store_dir)[0]
        try:
            while executor.num_pending:
                executor.gather(1)
        finally:
            executor.close()
        assert not victim.is_alive()
        assert pool.broker.workers_lost >= 1
        # The mid-lease chunk failed as lost, and the executor retried it.
        assert pool.broker.lost_tasks >= 1
        assert executor.stats.retries >= 1
        assert executor.quarantined_genotypes == {poison_identity}

        # Surviving rows: serial minus the quarantined candidate's.
        quarantined_keys = set(genotype_indicator_keys(
            poison_identity,
            astuple(serial_engine.proxy_config),
            astuple(serial_engine.macro_config),
        ).values())
        survivors = dict(engine.cache.items())
        for key, value in serial_rows.items():
            if key in quarantined_keys:
                assert key not in survivors
            else:
                assert survivors[key] == value  # bit-identical
        # Zero lost persisted rows: every surviving row a worker
        # computed is in the shared store, bit-identical.
        probe = IndicatorCache()
        store = RuntimeStore(store_dir)
        fingerprint = cache_fingerprint(serial_engine.proxy_config,
                                        serial_engine.macro_config)
        loaded = store.load_cache_into(probe, fingerprint)
        assert loaded > 0
        persisted = dict(probe.items())
        for key, value in survivors.items():
            assert persisted[key] == value
        joiner.join(timeout=5.0)


# ----------------------------------------------------------------------
# Store-mediated warm starts
# ----------------------------------------------------------------------
@pytest.mark.store
class TestWarmStart:
    def test_worker_reads_store_and_flushes_only_delta(
            self, tmp_path, tiny_proxy_config):
        macro = MacroConfig.full()
        fingerprint = cache_fingerprint(tiny_proxy_config, macro)
        store = RuntimeStore(tmp_path / "store")
        genotypes = [canonicalize(g)
                     for g in NasBench201Space().sample(4, rng=3)]
        items = tuple((g.ops, (True, True)) for g in genotypes)

        # Persist the first two candidates' rows, as a sibling run would.
        warm_rows = _evaluate_genotype_chunk(
            (items[:2], tiny_proxy_config, macro))
        proxy_key = astuple(tiny_proxy_config)
        macro_key = astuple(macro)
        seed_cache = IndicatorCache()
        for index, row, _ in warm_rows:
            keys = genotype_indicator_keys(index, proxy_key, macro_key)
            for name, value in row.items():
                seed_cache.put(keys[name], value)
        assert store.save_cache(seed_cache, fingerprint) == 4

        with FleetBroker() as broker:
            broker.submit(_evaluate_genotype_chunk,
                          (items, tiny_proxy_config, macro))
            stats = run_worker(broker.address,
                               store_dir=str(tmp_path / "store"),
                               poll_seconds=0.01, max_chunks=1)
            (done,) = drain_completed(broker, 1)
        assert done.error is None
        # 2 candidates × 2 proxies warm-started from the store; only
        # the other 2 candidates were computed and flushed back.
        assert stats.store_rows_loaded == 4
        assert stats.store_rows_flushed == 4
        rows = {index: row for index, row, _ in done.value}
        direct = _evaluate_genotype_chunk(
            (items, tiny_proxy_config, macro))
        for index, row, _ in direct:
            for name, value in row.items():
                assert rows[index][name] == value  # bit-identical
        # The store now holds all four candidates.
        probe = IndicatorCache()
        assert store.load_cache_into(probe, fingerprint) == 8

    def test_second_chunk_reads_only_new_segments(
            self, tmp_path, tiny_proxy_config, monkeypatch):
        """The follow path: a worker's first chunk replays the store
        once; its second reads only the segment files added since —
        its own flush and a sibling's — never a base again."""
        macro = MacroConfig.full()
        fingerprint = cache_fingerprint(tiny_proxy_config, macro)
        store = RuntimeStore(tmp_path / "store")
        directory = store.cache_dir(fingerprint)
        genotypes = distinct_genotypes(6)
        seed_rows(store, fingerprint, genotypes[:2], tiny_proxy_config,
                  macro)
        store.compact_cache(fingerprint)
        seed_rows(store, fingerprint, genotypes[2:3], tiny_proxy_config,
                  macro)
        read = []
        original = RuntimeStore._read_jsonl_rows

        def spy(self, path, entries):
            read.append(path.name)
            return original(self, path, entries)

        monkeypatch.setattr(RuntimeStore, "_read_jsonl_rows", spy)
        resident, stats = {}, FleetWorkerStats()
        before_first = store_files(directory)
        _warm_start_evaluate(
            constant_chunk,
            chunk_payload(genotypes[:4], tiny_proxy_config, macro),
            store, resident, stats)
        assert sorted(read) == sorted(before_first)
        assert stats.store_rows_loaded == 6  # the three seeded genotypes
        # A sibling flushes a genotype this worker has never seen.
        seed_rows(store, fingerprint, genotypes[4:5], tiny_proxy_config,
                  macro)
        before_second = store_files(directory)
        read.clear()
        _warm_start_evaluate(
            constant_chunk,
            chunk_payload(genotypes[3:], tiny_proxy_config, macro),
            store, resident, stats)
        # Exactly the worker's own first flush plus the sibling's.
        assert set(read) == before_second - before_first
        assert len(read) == len(set(read))
        assert all(name.startswith("seg-") for name in read)
        # Genotype 3 (own flush) and genotype 4 (sibling) were served.
        assert stats.store_rows_loaded == 6 + 4

    @needs_fork
    def test_follower_matches_replay_after_foreign_compaction(
            self, tmp_path, tiny_proxy_config):
        """Another process appends and compacts the directory between a
        worker's chunks: the worker's resident cache must then equal a
        fresh full replay, float for float."""
        import multiprocessing

        macro = MacroConfig.full()
        fingerprint = cache_fingerprint(tiny_proxy_config, macro)
        store = RuntimeStore(tmp_path / "store")
        genotypes = distinct_genotypes(7)
        seed_rows(store, fingerprint, genotypes[:3], tiny_proxy_config,
                  macro)
        resident, stats = {}, FleetWorkerStats()
        _warm_start_evaluate(
            constant_chunk,
            chunk_payload(genotypes[:4], tiny_proxy_config, macro),
            store, resident, stats)

        def sibling():
            other = RuntimeStore(tmp_path / "store")
            seed_rows(other, fingerprint, genotypes[4:6],
                      tiny_proxy_config, macro)
            other.compact_cache(fingerprint)

        process = multiprocessing.get_context("fork").Process(
            target=sibling)
        process.start()
        process.join(timeout=30)
        assert process.exitcode == 0
        assert not list(store.cache_dir(fingerprint).glob("*.seg-*"))
        _warm_start_evaluate(
            constant_chunk,
            chunk_payload(genotypes[3:], tiny_proxy_config, macro),
            store, resident, stats)
        (_, cache, _), = resident.values()
        fresh = IndicatorCache()
        store.load_cache_into(fresh, fingerprint, strict=True)
        assert len(fresh) == 7 * 2  # two proxy rows per genotype

        def as_hex(rows):
            return {key: float(value).hex() for key, value in rows}

        assert as_hex(cache.items()) == as_hex(fresh.items())

    def test_storeless_worker_still_computes(self, tiny_proxy_config):
        macro = MacroConfig.full()
        genotypes = [canonicalize(g)
                     for g in NasBench201Space().sample(2, rng=9)]
        items = tuple((g.ops, (True, False)) for g in genotypes)
        with FleetBroker() as broker:
            broker.submit(_evaluate_genotype_chunk,
                          (items, tiny_proxy_config, macro))
            stats = run_worker(broker.address, poll_seconds=0.01,
                               max_chunks=1)
            (done,) = drain_completed(broker, 1)
        assert done.error is None
        assert stats.store_rows_loaded == 0
        direct = _evaluate_genotype_chunk(
            (items, tiny_proxy_config, macro))
        # Same rows; only the per-proxy seconds differ between runs.
        assert [row[:2] for row in done.value] == \
            [row[:2] for row in direct]


# ----------------------------------------------------------------------
# Harness + CLI wiring
# ----------------------------------------------------------------------
@needs_fork
class TestHarnessIntegration:
    def test_fleet_run_bit_identical_and_warm(self, tmp_path):
        from repro.runtime import RunHarness, RuntimeConfig

        store = str(tmp_path / "store")
        serial = RunHarness(RuntimeConfig(algorithm="random", samples=8,
                                          seed=3)).run()
        fleet_config = RuntimeConfig(algorithm="random", samples=8,
                                     seed=3, fleet_workers=2,
                                     store_dir=store, chunk_size=4,
                                     chunk_timeout=120.0)
        fleet = RunHarness(fleet_config).run()
        assert fleet.pool["mode"] == "fleet"
        assert fleet.arch_index == serial.arch_index
        assert fleet.indicators == serial.indicators
        # A rerun warm-starts entirely from what the workers flushed.
        warm = RunHarness(fleet_config).run()
        assert warm.arch_index == serial.arch_index
        assert warm.cache["misses"] == 0


class TestCli:
    def test_runtime_fleet_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["runtime", "--fleet-bind", "127.0.0.1:0",
             "--fleet-workers", "3", "--fleet-lease", "20",
             "--fleet-token", "t"])
        assert args.fleet_bind == "127.0.0.1:0"
        assert args.fleet_workers == 3
        assert args.fleet_lease_seconds == 20.0
        assert args.fleet_token == "t"
        assert not hasattr(args, "store_read_mode")

    def test_fleet_worker_subcommand(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["fleet", "worker", "--connect", "localhost:7707",
             "--store", "/tmp/s", "--max-chunks", "2"])
        assert args.fn.__name__ == "cmd_fleet_worker"
        assert args.connect == "localhost:7707"
        assert not hasattr(args, "read_mode")
