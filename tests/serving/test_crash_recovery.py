"""Crash-recovery acceptance: kill -9 the *parent* mid-stream and recover.

The recovery contract under test: after SIGKILLing the service process at an
arbitrary point of a journaled stream, ``RecommendationService.recover``
replays snapshot + intact tail into a fresh planner, the journal's record
count names exactly which batches still need executing, and every batch
redeemed from there is fingerprint-identical to an uninterrupted sequential
run.  The hypothesis matrix generalises the per-fault tests: *any* schedule
of injected worker faults leaves redeemed results oracle-identical.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import time
import warnings

import pytest

from repro.config import ServiceConfig
from repro.serving import RecommendationService, recommendation_fingerprint

from .faults import FAULT_KINDS, FAST_SUPERVISION, FaultInjectingBackend

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="platform has no fork start method")

pytestmark = [needs_fork, pytest.mark.chaos]

CHUNK = 16


def _chunks(workload, size=CHUNK):
    return [list(workload[i : i + size]) for i in range(0, len(workload), size)]


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid reused by another user
        return True
    return True


def _fingerprints(responses):
    return [recommendation_fingerprint(response.result) for response in responses]


def _journaled_config(planner, journal_dir, **overrides) -> ServiceConfig:
    config = ServiceConfig.from_planner_config(planner.config)
    overrides.setdefault("snapshot_every_truths", 24)
    return dataclasses.replace(
        config,
        backend="pooled",
        pool_size=2,
        journal_path=str(journal_dir),
        **overrides,
    )


def _stream_until_killed(planner, workload, journal_dir, progress_path):
    """Child-process body: serve the whole stream, journaling each batch.

    Runs under a ``fork`` context, so the prepared planner is inherited
    directly — no pickling.  The parent SIGKILLs this process mid-stream;
    anything printed or raised after that point never happens.
    """
    service = RecommendationService(planner, config=_journaled_config(planner, journal_dir))
    for index, chunk in enumerate(_chunks(workload)):
        service.results(service.submit(chunk))
        # Progress is advisory (tells the parent when to shoot); the journal
        # itself is the only durable truth the recovery relies on.  Worker
        # pids ride along so the parent can check none of them outlive the
        # kill as an orphan.
        with open(progress_path, "w") as handle:
            handle.write("%d|%s" % (index + 1, ",".join(map(str, service.worker_pids()))))
            handle.flush()
            os.fsync(handle.fileno())


class TestParentKillRecovery:
    def test_kill9_parent_midstream_then_recover(
        self, tmp_path, build_serving_planner, serving_workload, sequential_oracle
    ):
        journal_dir = tmp_path / "journal"
        progress_path = tmp_path / "progress"
        context = multiprocessing.get_context("fork")
        child = context.Process(
            target=_stream_until_killed,
            args=(build_serving_planner(), serving_workload, journal_dir, progress_path),
        )
        child.start()
        try:
            deadline = time.monotonic() + 120.0
            progress = ""
            while time.monotonic() < deadline:
                progress = progress_path.read_text() if progress_path.exists() else ""
                if progress and int(progress.split("|")[0]) >= 2:
                    break
                assert child.is_alive(), "stream child died before it could be killed"
                time.sleep(0.02)
            else:
                pytest.fail("stream child made no progress to kill into")
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.join(timeout=30.0)
            assert not child.is_alive()

        # The child's pool workers must notice the EOF and exit — none may
        # linger as an orphan re-parented to init (each worker closes its
        # fork-inherited copies of the parent-side pipe ends at startup
        # precisely so this EOF is deliverable).
        worker_pids = [int(pid) for pid in progress.split("|")[1].split(",") if pid]
        assert worker_pids, "stream child reported no pool workers"
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            alive = [pid for pid in worker_pids if _pid_alive(pid)]
            if not alive:
                break
            time.sleep(0.05)
        else:
            for pid in alive:  # pragma: no cover - diagnostic cleanup
                os.kill(pid, signal.SIGKILL)
            pytest.fail(f"orphaned pool workers survived the parent kill: {alive}")

        planner = build_serving_planner()
        with warnings.catch_warnings():
            # A kill mid-append legitimately leaves a torn tail; recovery
            # truncates it with a RuntimeWarning rather than crashing.
            warnings.simplefilter("ignore", RuntimeWarning)
            recovered = RecommendationService.recover(
                planner, journal_dir, config=_journaled_config(planner, journal_dir)
            )
        executed = recovered.journal.batch_count
        assert executed >= 2, "journal lost durably acknowledged batches"
        chunks = _chunks(serving_workload)
        assert executed <= len(chunks)
        produced = []
        for chunk in chunks[executed:]:
            produced.extend(_fingerprints(recovered.results(recovered.submit(chunk))))
        recovered.close()
        oracle = sequential_oracle["plain"]["fingerprints"]
        assert produced == oracle[executed * CHUNK :]

    def test_double_recovery_is_idempotent(
        self, tmp_path, build_serving_planner, serving_workload, sequential_oracle
    ):
        """Recovering, crashing again without executing anything, and
        recovering again lands on the same state (replay is idempotent)."""
        journal_dir = tmp_path / "journal"
        planner = build_serving_planner()
        config = _journaled_config(planner, journal_dir)
        service = RecommendationService(planner, config=config)
        chunks = _chunks(serving_workload)
        for chunk in chunks[:3]:
            service.results(service.submit(chunk))
        service.backend.close()  # crash: journal never closed cleanly

        first = build_serving_planner()
        RecommendationService.recover(first, journal_dir, config=config).backend.close()
        second = build_serving_planner()
        recovered = RecommendationService.recover(second, journal_dir, config=config)
        assert recovered.journal.batch_count == 3
        produced = []
        for chunk in chunks[3:]:
            produced.extend(_fingerprints(recovered.results(recovered.submit(chunk))))
        recovered.close()
        assert produced == sequential_oracle["plain"]["fingerprints"][3 * CHUNK :]


@pytest.mark.slow
@pytest.mark.property
class TestChaosMatrix:
    def test_any_fault_schedule_is_oracle_identical(
        self, build_serving_planner, serving_workload, sequential_oracle
    ):
        """Nightly full matrix: for any injected fault schedule — including
        chain-aware ordinals that land on sub-shard dispatches when hotspot
        splitting is on, ``slow`` duty-cycle stragglers, and runs with hedged
        execution armed — redeemed results are fingerprint-identical to the
        sequential oracle."""
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        oracle = sequential_oracle["plain"]["fingerprints"][:64]
        queries = list(serving_workload[:64])

        @settings(
            max_examples=12,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
        )
        @given(
            # Splitting multiplies the dispatch count, so ordinals range past
            # the unsplit job count: high ordinals only fire when sub-shard
            # chains are live, hitting producers mid-chain.
            schedule=st.dictionaries(
                st.integers(min_value=0, max_value=13),
                st.sampled_from(FAULT_KINDS),
                max_size=4,
            ),
            max_shard_fraction=st.sampled_from([None, 0.25, 0.1]),
            # Hedging armed or not: duplicate speculative dispatches must be
            # invisible in the output stream under every fault schedule.
            hedge=st.sampled_from([None, 0.2]),
        )
        def run(schedule, max_shard_fraction, hedge):
            backend = FaultInjectingBackend(
                schedule=schedule,
                pool_size=2,
                max_shard_fraction=max_shard_fraction,
                hedge_after_s=hedge,
                slow_total_s=0.8,
            )
            service = RecommendationService(build_serving_planner(), backend=backend)
            try:
                produced = []
                for start in (0, 32):
                    responses = service.results(service.submit(queries[start : start + 32]))
                    produced.extend(_fingerprints(responses))
                assert produced == oracle
            finally:
                service.close()

        run()

    def test_any_disk_fault_degrades_then_recovers(
        self, tmp_path_factory, build_serving_planner, serving_workload, sequential_oracle
    ):
        """Nightly disk-fault matrix: a dying disk at any append ordinal,
        errno, and stage (write / flush / fsync) under ``journal_on_error=
        "suspend"`` degrades the service without perturbing one answer, and
        recovery replays exactly the durable prefix."""
        import errno

        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        from .faults import FlakyDiskHandle, break_journal_disk

        oracle = sequential_oracle["plain"]["fingerprints"]
        chunks = _chunks(serving_workload)

        @settings(
            max_examples=8,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
        )
        @given(
            fail_at=st.integers(min_value=0, max_value=3),
            code=st.sampled_from([errno.ENOSPC, errno.EIO]),
            stage=st.sampled_from(FlakyDiskHandle.FAIL_STAGES),
        )
        def run(fail_at, code, stage):
            journal_dir = tmp_path_factory.mktemp("disk-chaos") / "journal"
            planner = build_serving_planner()
            # No compaction: rotating generations would swap in a fresh
            # (healthy) segment handle and the injected fault could miss.
            config = _journaled_config(
                planner, journal_dir, journal_on_error="suspend",
                snapshot_every_truths=10_000,
            )
            service = RecommendationService(planner, config=config)
            break_journal_disk(
                service.journal, fail_at_append=fail_at, error=code, fail_on=stage
            )
            produced = []
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                for chunk in chunks:
                    produced.extend(_fingerprints(service.results(service.submit(chunk))))
                assert produced == oracle
                assert service.statistics()["resilience"]["journal_suspended"] is True
                service.close()

            fresh = build_serving_planner()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                recovered = RecommendationService.recover(fresh, journal_dir, config=config)
            # ``write``-stage faults tear before the record lands; ``flush``/
            # ``fsync`` faults may still leave it durable via the buffered
            # handle, so the durable prefix is fail_at or fail_at + 1.
            durable = recovered.journal.batch_count
            assert fail_at <= durable <= fail_at + 1
            tail = []
            for chunk in chunks[durable:]:
                tail.extend(_fingerprints(recovered.results(recovered.submit(chunk))))
            recovered.close()
            assert tail == oracle[durable * CHUNK:]

        run()

    def test_repeated_hangs_across_batches(
        self, build_serving_planner, serving_workload, sequential_oracle
    ):
        """A worker hang in every single batch still streams correctly."""
        schedule = {ordinal: "hang" for ordinal in range(0, 20, 4)}
        backend = FaultInjectingBackend(schedule=schedule, pool_size=2)
        service = RecommendationService(build_serving_planner(), backend=backend)
        with service:
            produced = []
            for chunk in _chunks(serving_workload, size=32):
                produced.extend(_fingerprints(service.results(service.submit(chunk))))
            assert produced == sequential_oracle["plain"]["fingerprints"]
            assert service.statistics()["supervision"]["hung_workers_killed"] >= 2

    def test_chaos_with_journal_and_recovery(
        self, tmp_path, build_serving_planner, serving_workload, sequential_oracle
    ):
        """Faults while journaling, then a crash, then recovery — combined."""
        journal_dir = tmp_path / "journal"
        planner = build_serving_planner()
        config = _journaled_config(planner, journal_dir)
        backend = FaultInjectingBackend(
            schedule={1: "kill_after", 4: "hang"},
            pool_size=2,
        )
        service = RecommendationService(planner, config=config, backend=backend)
        chunks = _chunks(serving_workload)
        produced = []
        for chunk in chunks[:4]:
            produced.extend(_fingerprints(service.results(service.submit(chunk))))
        service.backend.close()  # crash

        fresh = build_serving_planner()
        recovered = RecommendationService.recover(fresh, journal_dir, config=config)
        assert recovered.journal.batch_count == 4
        for chunk in chunks[4:]:
            produced.extend(_fingerprints(recovered.results(recovered.submit(chunk))))
        recovered.close()
        assert produced == sequential_oracle["plain"]["fingerprints"]
