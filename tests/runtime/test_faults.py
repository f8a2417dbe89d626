"""Fault tolerance: timeouts, retry/backoff, quarantine, respawn, drain.

Everything here runs under a deterministic
:class:`~repro.runtime.faults.FaultPlan` — scripted crash/hang/flake/
poison actions keyed by candidate identity, with cross-process attempt
counting through a flock'd state file — so every failure mode is exact
and replayable.  The central contract: **surviving rows are bit-identical
to a fault-free serial run minus the quarantined candidates**, no matter
what the workers did on the way there.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine import Engine
from repro.errors import SearchError
from repro.runtime.async_pool import (
    AsyncPopulationExecutor,
    ChunkGatherError,
    FuturePool,
)
from repro.runtime.faults import (
    POISON,
    TRANSIENT,
    WORKER_LOST,
    ChunkTimeoutError,
    FaultPlan,
    FaultPolicy,
    QuarantineLedger,
    ScriptedPoisonError,
    TransientWorkerError,
    chunk_item_identity,
    classify_failure,
)
from repro.runtime.pool import _evaluate_genotype_chunk
from repro.search.objective import HybridObjective
from repro.searchspace.canonical import canonicalize
from repro.searchspace.space import NasBench201Space

pytestmark = pytest.mark.faults


@pytest.fixture()
def population():
    space = NasBench201Space()
    sample = space.sample(8, rng=21)
    return sample + sample[:3]  # duplicates exercise canonical dedupe


def _engine(tiny_proxy_config):
    return Engine(proxy_config=tiny_proxy_config)


def _canon_index(genotype):
    return canonicalize(genotype).to_index()


def _policy(**kwargs):
    """A test policy whose backoff sleeps are recorded, not paid."""
    slept = []
    kwargs.setdefault("backoff_base", 0.001)
    policy = FaultPolicy(sleep=slept.append, **kwargs)
    policy.slept = slept
    return policy


def _assert_bit_identical(tiny_proxy_config, engine, genotypes):
    serial = _engine(tiny_proxy_config).evaluate_population(genotypes)
    evals = dict(engine.ledger.counts)
    table = engine.evaluate_population(genotypes)
    # The executor merged every proxy row: the table computes none (only
    # FLOPs, priced in the driver, may miss).
    for entry in ("ntk_eval", "lr_eval"):
        assert engine.ledger.counts.get(entry) == evals.get(entry)
    for name in serial.columns:
        np.testing.assert_array_equal(serial.columns[name],
                                      table.columns[name])


# ----------------------------------------------------------------------
# Policy primitives
# ----------------------------------------------------------------------
class TestFailureClassification:
    def test_taxonomy(self):
        assert classify_failure(ChunkTimeoutError("t")) == TRANSIENT
        assert classify_failure(TransientWorkerError("t")) == TRANSIENT
        assert classify_failure(OSError("pipe")) == TRANSIENT
        assert classify_failure(TimeoutError()) == TRANSIENT
        assert classify_failure(ValueError("nan")) == POISON
        assert classify_failure(ScriptedPoisonError(7)) == POISON
        from concurrent.futures import BrokenExecutor

        assert classify_failure(BrokenExecutor("died")) == WORKER_LOST

    def test_backoff_is_deterministic_and_exponential(self):
        policy = FaultPolicy(backoff_base=0.1, backoff_factor=2.0,
                            backoff_jitter=0.25)
        material = ("genotype", (("ntk", 3, 1),))
        first = policy.backoff_delay(material, 0)
        assert first == policy.backoff_delay(material, 0)  # pure function
        # Jitter stays inside +/- 25% of the exponential schedule.
        for attempt in range(4):
            delay = policy.backoff_delay(material, attempt)
            nominal = 0.1 * 2.0 ** attempt
            assert nominal * 0.75 <= delay <= nominal * 1.25
        # Different chunks de-synchronise.
        assert policy.backoff_delay(material, 0) != \
            policy.backoff_delay(("genotype", (("ntk", 4, 1),)), 0)

    def test_policy_validation(self):
        with pytest.raises(SearchError):
            FaultPolicy(max_retries=-1)
        with pytest.raises(SearchError):
            FaultPolicy(chunk_timeout=0.0)


class TestQuarantineLedger:
    def test_round_trip_and_dedupe(self, tmp_path):
        ledger = QuarantineLedger(tmp_path / "q.jsonl")
        assert len(ledger) == 0
        assert ledger.add("genotype", 1462, reason="ValueError('nan')",
                          attempts=3)
        assert not ledger.add("genotype", 1462, reason="again")  # dup
        assert ledger.add("supernet", (("a", 1), ("b", 2)), reason="r")
        assert ("genotype", 1462) in ledger
        assert ledger.identities("genotype") == {1462}
        assert ledger.identities("supernet") == {(("a", 1), ("b", 2))}
        # A fresh reader sees the same facts (tuples survive JSON).
        again = QuarantineLedger(tmp_path / "q.jsonl")
        assert again.identities("supernet") == {(("a", 1), ("b", 2))}
        assert again.entries()[0]["attempts"] == 3

    def test_tolerates_torn_tail_line(self, tmp_path):
        path = tmp_path / "q.jsonl"
        QuarantineLedger(path).add("genotype", 5, reason="r")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "genotype", "identity": 9, "rea')  # crash
        ledger = QuarantineLedger(path)
        assert ledger.identities("genotype") == {5}
        assert ledger.add("genotype", 6, reason="r")  # still writable


class TestFaultPlan:
    def test_scripted_actions_consume_in_order(self, tmp_path):
        plan = FaultPlan(state_path=str(tmp_path / "s"),
                         script={7: ("flake", "crash", "ok")})
        assert plan.action_for(7) == "flake"
        assert plan.action_for(7) == "crash"
        assert plan.action_for(7) == "ok"
        assert plan.action_for(7) == "ok"      # exhausted: healed
        assert plan.action_for(8) == "ok"      # unscripted: clean

    def test_trailing_poison_never_heals(self, tmp_path):
        plan = FaultPlan(state_path=str(tmp_path / "s"),
                         script={3: ("poison",)})
        for _ in range(4):
            assert plan.action_for(3) == "poison"

    def test_hash_faults_fire_once_and_deterministically(self, tmp_path):
        plan = FaultPlan(state_path=str(tmp_path / "s"), hash_rate=0.5,
                         hash_actions=("flake",))
        first = {i: plan.action_for(i) for i in range(40)}
        faulted = [i for i, a in first.items() if a == "flake"]
        assert 0 < len(faulted) < 40  # rate selected a strict subset
        # Same identities fault under a fresh plan (digest-driven)...
        replay = FaultPlan(state_path=str(tmp_path / "s2"), hash_rate=0.5,
                           hash_actions=("flake",))
        assert [i for i in range(40)
                if replay.action_for(i) == "flake"] == faulted
        # ...and non-poison hash faults heal after one attempt.
        assert all(plan.action_for(i) == "ok" for i in faulted)

    def test_attempt_counters_shared_through_state_file(self, tmp_path):
        # Two plan objects over one state file behave like two processes.
        a = FaultPlan(state_path=str(tmp_path / "s"), script={1: ("flake",)})
        b = FaultPlan(state_path=str(tmp_path / "s"), script={1: ("flake",)})
        assert a.action_for(1) == "flake"
        assert b.action_for(1) == "ok"  # b sees a's attempt

    def test_unknown_action_rejected(self, tmp_path):
        with pytest.raises(SearchError):
            FaultPlan(state_path=str(tmp_path / "s"),
                      script={1: ("explode",)})

    def test_identity_extraction(self, population):
        ops = canonicalize(population[0]).ops
        assert chunk_item_identity(
            "genotype", (ops, (True, True))
        ) == _canon_index(population[0])
        state = (("spec", 1),)
        assert chunk_item_identity("supernet", (state, (True, True))) \
            == state


# ----------------------------------------------------------------------
# Transport: deadlines, hung workers, pool death, close() hardening
# ----------------------------------------------------------------------
class TestChunkTimeouts:
    def test_timeout_expiry_releases_the_gather(self, tiny_proxy_config,
                                                population):
        release = threading.Event()

        def stuck_worker(payload):
            release.wait(timeout=20.0)
            return []

        executor = AsyncPopulationExecutor(
            n_workers=1, chunk_size=100, mode="thread",
            genotype_worker=stuck_worker,
            fault_policy=FaultPolicy(chunk_timeout=0.2, max_retries=0))
        try:
            assert executor.submit_population(
                _engine(tiny_proxy_config), population) == 1
            start = time.monotonic()
            with pytest.raises(ChunkGatherError) as info:
                executor.gather_all()
            assert time.monotonic() - start < 5.0  # did not block forever
            (error,) = info.value.failures
            assert isinstance(error, ChunkTimeoutError)
            assert executor.stats.timeouts == 1
            assert executor.num_pending == 0
        finally:
            release.set()  # let the abandoned thread finish
            executor.close()

    def test_fast_chunks_unaffected_by_deadline(self, tiny_proxy_config,
                                                population):
        engine = _engine(tiny_proxy_config)
        with AsyncPopulationExecutor(
                n_workers=2, chunk_size=2, mode="thread",
                fault_policy=FaultPolicy(chunk_timeout=30.0)) as executor:
            executor.warm_population(engine, population,
                                     assume_canonical=False)
            assert executor.stats.timeouts == 0
        _assert_bit_identical(tiny_proxy_config, engine, population)

    def test_close_never_blocks_on_hung_workers(self):
        release = threading.Event()

        def stuck_worker(payload):
            release.wait(timeout=20.0)
            return payload

        pool = FuturePool(n_workers=1, mode="thread", chunk_timeout=0.2)
        try:
            pool.submit(stuck_worker, "wedged")
            results = pool.gather_all()
            assert isinstance(results[0].error, ChunkTimeoutError)
            start = time.monotonic()
            pool.close()   # must not wait out the 20s sleeper
            pool.close()   # idempotent
            assert time.monotonic() - start < 5.0
        finally:
            release.set()


def _crash_worker(payload):
    os._exit(23)


def _crash_once_worker(payload):
    # Crashes the first process that runs it, then heals: the flag file
    # is created *before* the _exit, so the resubmitted task sees it.
    flag, value = payload
    if not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(23)
    return value


def _plus_one(value):
    return value + 1


class TestPoolRespawn:
    def test_broken_pool_respawns_and_resubmits_exactly_once(
            self, tmp_path):
        flag = str(tmp_path / "crashed.flag")
        pool = FuturePool(n_workers=2, mode="fork")
        try:
            pool.submit(_crash_once_worker, (flag, 99), tag="boom")
            for i in range(3):
                pool.submit(_plus_one, i, tag=f"ok{i}")
            results = pool.gather_all()
            # The crash killed the pool once; the respawn resubmitted
            # every lost task and ALL of them (crasher included, now
            # healed) completed — nothing lost, nothing duplicated.
            assert sorted(r.value for r in results) == [1, 2, 3, 99]
            assert all(r.error is None for r in results)
            assert pool.respawns == 1
            assert pool.num_pending == 0
        finally:
            pool.close()

    def test_sticky_crasher_burns_budget_then_fails(self):
        pool = FuturePool(n_workers=1, mode="fork", max_respawns=2)
        try:
            pool.submit(_crash_worker, None, tag="boom")
            results = pool.gather_all()
            assert pool.respawns == 2       # every recovery was tried
            assert len(results) == 1
            assert results[0].error is not None  # then it surfaced
            assert pool.num_pending == 0
        finally:
            pool.close()

    def test_close_is_idempotent_after_broken_pool(self):
        pool = FuturePool(n_workers=1, mode="fork", max_respawns=0)
        pool.submit(_crash_worker, None)
        results = pool.gather_all()
        assert results[0].error is not None  # budget 0: surfaced as-is
        pool.close()
        pool.close()  # second close after breakage: silent no-op


# ----------------------------------------------------------------------
# Executor: retry, bisection, quarantine
# ----------------------------------------------------------------------
class TestTransientRetry:
    def test_flaky_chunk_retries_to_bit_identical_rows(
            self, tiny_proxy_config, population, tmp_path):
        target = _canon_index(population[2])
        plan = FaultPlan(state_path=str(tmp_path / "s"),
                         script={target: ("flake", "flake")})
        policy = _policy(max_retries=3)
        engine = _engine(tiny_proxy_config)
        executor = AsyncPopulationExecutor(
            n_workers=1, chunk_size=3, mode="serial",
            genotype_worker=plan.wrap(_evaluate_genotype_chunk),
            fault_policy=policy,
        )
        executor.submit_population(engine, population)
        executor.gather_all()
        assert executor.stats.retries == 2
        assert executor.stats.quarantined == 0
        assert len(policy.slept) == 2  # backoff paid per retry
        assert executor.num_pending == 0
        _assert_bit_identical(tiny_proxy_config, engine, population)

    def test_transient_budget_exhaustion_surfaces_failure(
            self, tiny_proxy_config, population, tmp_path):
        target = _canon_index(population[0])
        plan = FaultPlan(state_path=str(tmp_path / "s"),
                         script={target: ("flake",) * 5})
        engine = _engine(tiny_proxy_config)
        executor = AsyncPopulationExecutor(
            n_workers=1, chunk_size=100, mode="serial",
            genotype_worker=plan.wrap(_evaluate_genotype_chunk),
            fault_policy=_policy(max_retries=1),
        )
        executor.submit_population(engine, population)
        with pytest.raises(ChunkGatherError) as info:
            executor.gather_all()
        assert isinstance(info.value.__cause__, TransientWorkerError)
        assert executor.stats.retries == 1  # budget, not the script, won
        # Claims were released: the candidates are resubmittable.
        assert executor.submit_population(engine, population) == 1


class TestPoisonQuarantine:
    def test_bisection_quarantines_exactly_the_bad_genotype(
            self, tiny_proxy_config, population, tmp_path):
        target = _canon_index(population[3])
        plan = FaultPlan(state_path=str(tmp_path / "s"),
                         script={target: ("poison",)})
        ledger = QuarantineLedger(tmp_path / "q.jsonl")
        engine = _engine(tiny_proxy_config)
        executor = AsyncPopulationExecutor(
            n_workers=1, chunk_size=8, mode="serial",
            genotype_worker=plan.wrap(_evaluate_genotype_chunk),
            fault_policy=_policy(), quarantine_ledger=ledger,
        )
        executor.submit_population(engine, population)
        chunks = executor.gather_all()   # no raise: poison was contained
        assert executor.quarantined_genotypes == {target}
        assert executor.stats.quarantined == 1
        assert ledger.identities("genotype") == {target}
        quarantined_events = [c for c in chunks if c.quarantined_indices]
        assert [c.quarantined_indices for c in quarantined_events] \
            == [(target,)]
        # Every chunk-mate of the poison candidate still landed, and the
        # survivors are bit-identical to fault-free serial.
        survivors = [g for g in population if _canon_index(g) != target]
        assert executor.num_pending == 0
        _assert_bit_identical(tiny_proxy_config, engine, survivors)

    @pytest.mark.parametrize("chunk_size", [3, 8])
    def test_guided_split_quarantines_the_bad_genotype_alone(
            self, tiny_proxy_config, tmp_path, chunk_size):
        # Two workers cut 20 candidates into shrinking chunks; the poison
        # candidate sits in the tail, where chunks are smallest.
        population = NasBench201Space().sample(24, rng=8)
        canons = list(dict.fromkeys(_canon_index(g) for g in population))
        target = canons[-3]
        plan = FaultPlan(state_path=str(tmp_path / "s"),
                         script={target: ("poison",)})
        engine = _engine(tiny_proxy_config)
        with AsyncPopulationExecutor(
                n_workers=2, chunk_size=chunk_size, mode="thread",
                genotype_worker=plan.wrap(_evaluate_genotype_chunk),
                fault_policy=_policy()) as executor:
            executor.submit_population(engine, population)
            chunks = executor.gather_all()
        assert executor.quarantined_genotypes == {target}
        assert executor.stats.quarantined == 1
        assert [c.quarantined_indices for c in chunks
                if c.quarantined_indices] == [(target,)]
        survivors = [g for g in population if _canon_index(g) != target]
        _assert_bit_identical(tiny_proxy_config, engine, survivors)

    def test_quarantined_candidate_never_reships(
            self, tiny_proxy_config, population, tmp_path):
        target = _canon_index(population[1])
        plan = FaultPlan(state_path=str(tmp_path / "s"),
                         script={target: ("poison",)})
        ledger = QuarantineLedger(tmp_path / "q.jsonl")
        engine = _engine(tiny_proxy_config)
        executor = AsyncPopulationExecutor(
            n_workers=1, chunk_size=4, mode="serial",
            genotype_worker=plan.wrap(_evaluate_genotype_chunk),
            fault_policy=_policy(), quarantine_ledger=ledger,
        )
        executor.submit_population(engine, population)
        executor.gather_all()
        # Same population again: everything is cached or banned.
        assert executor.submit_population(engine, population) == 0
        # A *new* executor seeded from the persisted ledger (a restart)
        # refuses to ship it too, against a cold engine.
        fresh_engine = _engine(tiny_proxy_config)
        restarted = AsyncPopulationExecutor(
            n_workers=1, chunk_size=4, mode="serial",
            genotype_worker=plan.wrap(_evaluate_genotype_chunk),
            fault_policy=_policy(),
            quarantine_ledger=QuarantineLedger(tmp_path / "q.jsonl"),
        )
        assert restarted.quarantined_genotypes == {target}
        restarted.submit_population(fresh_engine, [population[1]])
        assert restarted.num_pending == 0

    def test_without_policy_poison_raises_as_before(
            self, tiny_proxy_config, population):
        def dead_worker(payload):
            raise ValueError("worker died")

        engine = _engine(tiny_proxy_config)
        executor = AsyncPopulationExecutor(n_workers=1, chunk_size=100,
                                           mode="serial",
                                           genotype_worker=dead_worker)
        executor.submit_population(engine, population)
        with pytest.raises(ChunkGatherError):
            executor.gather_all()


class TestPoisonInASharedSupernetChunk:
    def test_poison_state_is_bisected_out_of_a_shared_chunk(
            self, tiny_proxy_config, tmp_path, monkeypatch):
        """A state that fails halfway through a chunk whose states share
        forward values is quarantined alone; its chunk-mates' rows are
        the bits a fault-free serial run gives."""
        from repro.engine import supernet_state_key
        from repro.proxies import ntk
        from repro.runtime.faults import ScriptedPoisonError
        from repro.searchspace.ops import CANDIDATE_OPS
        from repro.searchspace.specs import EdgeSpec

        base = [EdgeSpec(i, tuple(CANDIDATE_OPS)) for i in range(6)]
        states = [[spec.without(op) if spec.edge_index == edge else spec
                   for spec in base]
                  for edge in range(2) for op in CANDIDATE_OPS]
        target = supernet_state_key(states[5])
        real = ntk.supernet_ntk_condition_number

        def poisoned(specs, *args, **kwargs):
            if supernet_state_key(specs) == target:
                raise ScriptedPoisonError(target)
            return real(specs, *args, **kwargs)

        monkeypatch.setattr(ntk, "supernet_ntk_condition_number", poisoned)
        engine = _engine(tiny_proxy_config)
        executor = AsyncPopulationExecutor(
            n_workers=1, chunk_size=8, mode="serial", fault_policy=_policy(),
            quarantine_ledger=QuarantineLedger(tmp_path / "q.jsonl"))
        executor.submit_supernets(engine, states)
        executor.gather_all()
        assert executor.quarantined_states == {target}
        monkeypatch.setattr(ntk, "supernet_ntk_condition_number", real)
        serial = _engine(tiny_proxy_config)
        for specs in states:
            if supernet_state_key(specs) != target:
                for name in ("supernet_ntk", "supernet_linear_regions"):
                    assert getattr(engine, name)(specs).hex() == \
                        getattr(serial, name)(specs).hex()


class TestClaimReleaseWithFlushFailure:
    def test_claims_released_when_flush_raises_alongside_failure(
            self, tiny_proxy_config, population):
        """Satellite regression: a flush-hook error riding along with a
        worker failure must not leak the failed chunk's in-flight claims
        — a leaked claim would dedupe the key out of every future
        submit, permanently."""
        calls = {"n": 0}

        def flaky_worker(payload):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ValueError("worker died")
            return _evaluate_genotype_chunk(payload)

        engine = _engine(tiny_proxy_config)
        executor = AsyncPopulationExecutor(n_workers=1, chunk_size=2,
                                           mode="serial",
                                           genotype_worker=flaky_worker)

        def broken_flush(gathered):
            raise OSError("disk full")

        executor.on_gather = broken_flush
        executor.submit_population(engine, population)
        with pytest.raises(ChunkGatherError) as info:
            executor.gather_all()
        assert isinstance(info.value.flush_error, OSError)
        # No claims leaked anywhere: every in-flight set is empty.
        assert all(not keys for keys in executor._in_flight.values())
        # And the failed candidates are genuinely resubmittable.
        executor.on_gather = None
        assert executor.submit_population(engine, population) == 1
        assert executor.gather_all()[0].merged_rows > 0
        _assert_bit_identical(tiny_proxy_config, engine, population)


# ----------------------------------------------------------------------
# Worker-death recovery through the executor (fork)
# ----------------------------------------------------------------------
class TestWorkerDeathRecovery:
    def test_crash_respawns_and_completes_without_duplicates(
            self, tiny_proxy_config, population, tmp_path):
        target = _canon_index(population[4])
        plan = FaultPlan(state_path=str(tmp_path / "s"),
                         script={target: ("crash",)})
        engine = _engine(tiny_proxy_config)
        executor = AsyncPopulationExecutor(
            n_workers=2, chunk_size=2, mode="fork",
            genotype_worker=plan.wrap(_evaluate_genotype_chunk),
            fault_policy=FaultPolicy(backoff_base=0.001),
        )
        try:
            executor.submit_population(engine, population)
            merged = sum(c.merged_rows for c in executor.gather_all())
        finally:
            executor.close()
        assert executor.stats.respawns >= 1
        assert executor.stats.quarantined == 0
        # Exactly-once resubmission: every row merged exactly once (the
        # cache would reject duplicates, so merged == all needed rows).
        unique = {_canon_index(g) for g in population}
        assert merged == 2 * len(unique)  # ntk + linear_regions
        assert executor.num_pending == 0
        _assert_bit_identical(tiny_proxy_config, engine, population)


# ----------------------------------------------------------------------
# Steady-state search under a fuzzed 20% mixed fault plan
# ----------------------------------------------------------------------
class TestSteadyStateUnderFaults:
    def test_fuzzed_faults_quarantine_and_stay_bit_identical(
            self, tiny_proxy_config, tmp_path):
        from repro.search.evolutionary import (
            EvolutionConfig,
            SteadyStateEvolutionarySearch,
        )

        plan = FaultPlan(state_path=str(tmp_path / "s"), hash_rate=0.2,
                         hash_actions=("flake", "poison"))
        ledger = QuarantineLedger(tmp_path / "q.jsonl")
        executor = AsyncPopulationExecutor(
            n_workers=1, chunk_size=1, mode="serial",
            genotype_worker=plan.wrap(_evaluate_genotype_chunk),
            fault_policy=_policy(max_retries=2), quarantine_ledger=ledger,
        )
        engine = Engine(proxy_config=tiny_proxy_config, executor=executor)
        result = SteadyStateEvolutionarySearch(
            HybridObjective(engine=engine),
            EvolutionConfig(population_size=6, sample_size=2, cycles=10),
            seed=11,
        ).search()
        assert result.genotype is not None
        banned = executor.quarantined_genotypes
        assert _canon_index(result.genotype) not in banned
        # Everything the search committed is bit-identical to serial.
        landed = [key for key in engine.cache.items()]
        assert landed
        serial = _engine(tiny_proxy_config)
        for key, value in landed:
            assert key[1] not in banned  # nothing quarantined ever landed
        # The winner's indicators replay exactly on a fault-free engine.
        assert result.indicators == serial.evaluate(result.genotype,
                                                    with_latency=False)


# ----------------------------------------------------------------------
# Graceful drain (signal-driven, subprocess)
# ----------------------------------------------------------------------
_DRAIN_SCRIPT = """
import json, os, signal, sys

from repro.engine import Engine
from repro.runtime import RunHarness, RuntimeConfig
from repro.runtime.store import RuntimeStore, cache_fingerprint

store_dir, out_path = sys.argv[1], sys.argv[2]
config = RuntimeConfig(algorithm="steady-state", n_workers=2, chunk_size=1,
                       store_dir=store_dir,
                       population_size=6, cycles=60, seed=3)
harness = RunHarness(config)
flush = harness.executor.on_gather
state = {"n": 0}

def hook(gathered):
    flush(gathered)
    state["n"] += 1
    if state["n"] == 2:  # mid-run, deterministically
        os.kill(os.getpid(), signal.SIGTERM)

harness.executor.on_gather = hook
report = harness.run()

# Zero-lost-rows check: every cache row this run computed must be
# readable back from the store by a fresh process-alike reader.
fresh = Engine(proxy_config=harness.proxy_config,
               macro_config=harness.macro_config)
loaded = RuntimeStore(store_dir).load_cache_into(fresh.cache,
                                                 harness.fingerprint)
persisted = {key for key, _ in fresh.cache.items()}
computed = {key for key, _ in harness.engine.cache.items()}
json.dump({
    "status": report.status,
    "committed_evals": report.num_evaluations,
    "loaded": loaded,
    "missing": sorted(map(str, computed - persisted)),
}, open(out_path, "w"))
"""


class TestGracefulDrain:
    def test_sigterm_drains_with_zero_lost_rows(self, tmp_path):
        out = tmp_path / "report.json"
        env = dict(os.environ)
        root = Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.run(
            [sys.executable, "-c", _DRAIN_SCRIPT,
             str(tmp_path / "store"), str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        assert payload["status"] == "interrupted"
        assert payload["missing"] == []   # zero persisted rows lost
        assert payload["loaded"] > 0      # ...and the drain saved work

    def test_second_signal_aborts(self, tiny_proxy_config):
        """The drain handler escalates: a second signal raises."""
        from repro.runtime import RunHarness, RuntimeConfig

        harness = RunHarness(RuntimeConfig(algorithm="steady-state",
                                           n_workers=1,
                                           population_size=4, cycles=2))
        try:
            harness._handle_drain_signal(signal.SIGTERM, None)
            assert harness._drain_requested
            assert harness.executor.drain_requested
            with pytest.raises(KeyboardInterrupt):
                harness._handle_drain_signal(signal.SIGTERM, None)
        finally:
            harness.close()

    def test_drain_flag_stops_spawning(self, tiny_proxy_config):
        from repro.search.evolutionary import (
            EvolutionConfig,
            SteadyStateEvolutionarySearch,
        )

        executor = AsyncPopulationExecutor(n_workers=1, chunk_size=1,
                                           mode="serial",
                                           fault_policy=_policy())
        executor.request_drain()  # drained before the search even starts
        engine = Engine(proxy_config=tiny_proxy_config, executor=executor)
        result = SteadyStateEvolutionarySearch(
            HybridObjective(engine=engine),
            EvolutionConfig(population_size=4, sample_size=2, cycles=50),
            seed=2,
        ).search()
        # The initial population landed (it was already submitted), but
        # no children were spawned on top of it.
        assert result.genotype is not None
        assert result.ledger.counts["evolution_candidates"] == 4
