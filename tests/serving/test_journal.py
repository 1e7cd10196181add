"""Truth-journal unit and service-integration coverage.

The unit half drives :class:`TruthJournal` directly against real truths
(recorded by a planner run) and the torn/corrupt-file helpers from
``faults.py``; the integration half attaches journals to services and proves
the recovery contract at the fingerprint level.
"""

from __future__ import annotations

import dataclasses
import errno
import os

import pytest

from repro.config import ServiceConfig
from repro.core.truth import TruthDatabase
from repro.exceptions import JournalError
from repro.serving import RecommendationService, TruthJournal, recommendation_fingerprint

from .faults import (
    append_garbage,
    break_journal_disk,
    corrupt_tail,
    journal_segment,
    tear_tail,
)


@pytest.fixture(scope="module")
def recorded_truths(build_serving_planner, serving_workload):
    """A planner whose truth store holds real recorded truths."""
    planner = build_serving_planner()
    planner.recommend_batch(list(serving_workload[:60]))
    truths = planner.truths.all()
    assert len(truths) >= 4, "workload prefix recorded too few truths for the tests"
    return planner, truths


def _empty_store(planner) -> TruthDatabase:
    return TruthDatabase(planner.truths.network, planner.truths.config)


def _truth_keys(store):
    return sorted(
        (t.origin, t.destination, t.time_slot, tuple(t.route.path)) for t in store.all()
    )


class TestJournalUnit:
    def test_append_replay_roundtrip(self, tmp_path, recorded_truths):
        planner, truths = recorded_truths
        with TruthJournal(tmp_path / "j", snapshot_every_truths=10_000) as journal:
            journal.append(truths[:2], planner.truths, meta={"batch_id": 1})
            journal.append([], planner.truths, meta={"batch_id": 2})
            journal.append(truths[2:], planner.truths, meta={"batch_id": 3})
            assert journal.batch_count == 3
            assert journal.truth_count == len(truths)

        reopened = TruthJournal(tmp_path / "j")
        assert reopened.batch_count == 3
        assert reopened.truth_count == len(truths)
        store = _empty_store(planner)
        assert reopened.replay_into(store) == len(truths)
        assert _truth_keys(store) == _truth_keys(planner.truths)
        metas = [meta for meta, _ in reopened.records(planner.network)]
        assert [meta["batch_id"] for meta in metas] == [1, 2, 3]
        reopened.close()

    def test_empty_journal(self, tmp_path, recorded_truths):
        planner, _ = recorded_truths
        TruthJournal(tmp_path / "j").close()
        journal = TruthJournal(tmp_path / "j")
        assert journal.batch_count == 0 and journal.truth_count == 0
        assert journal.replay_into(_empty_store(planner)) == 0
        journal.close()

    def test_snapshot_only_no_tail(self, tmp_path, recorded_truths):
        planner, truths = recorded_truths
        with TruthJournal(tmp_path / "j", snapshot_every_truths=1) as journal:
            # Every append immediately compacts, so the tail stays empty.
            journal.append(truths, planner.truths, meta={"batch_id": 1})
            assert journal.snapshots_written == 1
            assert journal.generation == 1

        reopened = TruthJournal(tmp_path / "j")
        assert reopened.batch_count == 1
        assert reopened.truth_count == len(planner.truths)
        store = _empty_store(planner)
        reopened.replay_into(store)
        assert _truth_keys(store) == _truth_keys(planner.truths)
        reopened.close()

    def test_duplicate_replay_is_idempotent(self, tmp_path, recorded_truths):
        planner, truths = recorded_truths
        with TruthJournal(tmp_path / "j", snapshot_every_truths=10_000) as journal:
            journal.append(truths, planner.truths, meta={})
            store = _empty_store(planner)
            assert journal.replay_into(store) == len(truths)
            assert journal.replay_into(store) == 0  # second replay: all skipped
            assert len(store) == len(truths)
            # adopt_all advanced the id sequence past every adopted id, so a
            # freshly recorded truth cannot collide with a replayed one.
            replayed_ids = {t.truth_id for t in store.all()}
            adopted_again = journal.replay(planner.network)
            assert {t.truth_id for t in adopted_again} == replayed_ids

    def test_pickle_written_columnar_read(self, tmp_path, recorded_truths):
        planner, truths = recorded_truths
        with TruthJournal(
            tmp_path / "j", wire="pickle", snapshot_every_truths=10_000
        ) as journal:
            journal.append(truths, planner.truths, meta={})

        # Reading is codec-agnostic: the columnar-configured handle replays
        # records written by the pickle-configured one (and vice versa).
        reopened = TruthJournal(tmp_path / "j", wire="columnar")
        store = _empty_store(planner)
        assert reopened.replay_into(store) == len(truths)
        assert _truth_keys(store) == _truth_keys(planner.truths)
        reopened.append(truths[:1], planner.truths, meta={})  # columnar append
        reopened.close()

        mixed = TruthJournal(tmp_path / "j", wire="pickle")
        assert mixed.batch_count == 2
        assert mixed.replay_into(_empty_store(planner)) == len(truths)
        mixed.close()

    def test_torn_tail_is_truncated_with_warning(self, tmp_path, recorded_truths):
        planner, truths = recorded_truths
        with TruthJournal(tmp_path / "j", snapshot_every_truths=10_000) as journal:
            journal.append(truths[:2], planner.truths, meta={})
            journal.append(truths[2:], planner.truths, meta={})
        tear_tail(tmp_path / "j")

        with pytest.warns(RuntimeWarning, match="torn tail"):
            reopened = TruthJournal(tmp_path / "j")
        assert reopened.recovered_truncated
        assert reopened.batch_count == 1  # the torn record is gone
        assert reopened.truth_count == 2
        # The journal stays appendable after truncation.
        reopened.append(truths[2:], planner.truths, meta={})
        assert reopened.batch_count == 2
        store = _empty_store(planner)
        reopened.replay_into(store)
        assert _truth_keys(store) == _truth_keys(planner.truths)
        reopened.close()

    def test_corrupt_record_is_dropped_by_crc(self, tmp_path, recorded_truths):
        planner, truths = recorded_truths
        with TruthJournal(tmp_path / "j", snapshot_every_truths=10_000) as journal:
            journal.append(truths[:2], planner.truths, meta={})
            journal.append(truths[2:], planner.truths, meta={})
        corrupt_tail(tmp_path / "j")

        with pytest.warns(RuntimeWarning, match="torn tail"):
            reopened = TruthJournal(tmp_path / "j")
        assert reopened.batch_count == 1
        assert reopened.truth_count == 2
        reopened.close()

    def test_trailing_garbage_is_truncated(self, tmp_path, recorded_truths):
        planner, truths = recorded_truths
        with TruthJournal(tmp_path / "j", snapshot_every_truths=10_000) as journal:
            journal.append(truths, planner.truths, meta={})
        append_garbage(tmp_path / "j")

        with pytest.warns(RuntimeWarning, match="torn tail"):
            reopened = TruthJournal(tmp_path / "j")
        assert reopened.batch_count == 1 and reopened.truth_count == len(truths)
        reopened.close()

    def test_compaction_rotates_generations(self, tmp_path, recorded_truths):
        planner, truths = recorded_truths
        journal = TruthJournal(tmp_path / "j", snapshot_every_truths=2)
        for index in range(len(truths)):
            journal.append(truths[index : index + 1], planner.truths, meta={})
        assert journal.generation >= 1
        assert journal.snapshots_written >= 1
        assert journal.batch_count == len(truths)
        # Only the current generation's files remain on disk.
        names = sorted(p.name for p in (tmp_path / "j").iterdir())
        assert len(names) == 2
        assert journal_segment(tmp_path / "j").name in names
        journal.close()

        reopened = TruthJournal(tmp_path / "j")
        assert reopened.batch_count == len(truths)
        store = _empty_store(planner)
        reopened.replay_into(store)
        assert _truth_keys(store) == _truth_keys(planner.truths)
        reopened.close()

    def test_disk_bytes_tracks_files_incrementally(self, tmp_path, recorded_truths):
        planner, truths = recorded_truths

        def on_disk():
            return sum(
                entry.stat().st_size
                for entry in (tmp_path / "j").iterdir()
                if entry.suffix in (".log", ".snap")
            )

        with TruthJournal(tmp_path / "j", snapshot_every_truths=10_000) as journal:
            assert journal.disk_bytes == on_disk()
            journal.append(truths[:2], planner.truths, meta={"batch_id": 1})
            assert journal.disk_bytes == on_disk()
            journal.append([], planner.truths, meta={"batch_id": 2})
            assert journal.disk_bytes == on_disk()
            # Compaction rewrites the footprint: snapshot + empty segment.
            journal.snapshot(planner.truths)
            assert journal.disk_bytes == on_disk()
            stats = journal.stats()
            assert stats["disk_bytes"] == journal.disk_bytes
            assert stats["generation"] == journal.generation

        reopened = TruthJournal(tmp_path / "j")
        assert reopened.disk_bytes == on_disk()
        reopened.close()

    def test_closed_and_invalid_journals_raise(self, tmp_path, recorded_truths):
        planner, truths = recorded_truths
        journal = TruthJournal(tmp_path / "j")
        journal.close()
        with pytest.raises(JournalError):
            journal.append(truths, planner.truths)
        with pytest.raises(JournalError):
            TruthJournal(tmp_path / "j", wire="msgpack")
        with pytest.raises(JournalError):
            TruthJournal(tmp_path / "j", snapshot_every_truths=0)
        rogue = tmp_path / "file"
        rogue.write_text("not a directory")
        with pytest.raises(JournalError):
            TruthJournal(rogue)


class TestServiceJournalIntegration:
    def _config(self, planner, tmp_path, **overrides) -> ServiceConfig:
        config = ServiceConfig.from_planner_config(planner.config)
        return dataclasses.replace(
            config, backend="inline", journal_path=str(tmp_path / "j"), **overrides
        )

    def _chunks(self, workload, size=32):
        return [list(workload[i : i + size]) for i in range(0, len(workload), size)]

    def test_recover_resumes_fingerprint_identical(
        self, tmp_path, build_serving_planner, serving_workload, sequential_oracle
    ):
        chunks = self._chunks(serving_workload)
        planner = build_serving_planner()
        config = self._config(planner, tmp_path, snapshot_every_truths=16)
        produced = []
        # An "unclean" shutdown: the backend dies but close() never runs.
        service = RecommendationService(planner, config=config)
        for chunk in chunks[:3]:
            for response in service.results(service.submit(chunk)):
                produced.append(recommendation_fingerprint(response.result))

        recovered = RecommendationService.recover(
            build_serving_planner(), tmp_path / "j", config=config
        )
        assert recovered.journal.batch_count == 3
        # Batch numbering resumes where the crashed run stopped.
        assert recovered._next_batch_id == 4
        for chunk in chunks[3:]:
            for response in recovered.results(recovered.submit(chunk)):
                produced.append(recommendation_fingerprint(response.result))
        recovered.close()
        assert produced == sequential_oracle["plain"]["fingerprints"]

    def test_recover_after_torn_tail_reexecutes_the_torn_batch(
        self, tmp_path, build_serving_planner, serving_workload, sequential_oracle
    ):
        chunks = self._chunks(serving_workload)
        planner = build_serving_planner()
        config = self._config(planner, tmp_path, snapshot_every_truths=10_000)
        service = RecommendationService(planner, config=config)
        for chunk in chunks[:2]:
            service.results(service.submit(chunk))
        service.backend.close()
        tear_tail(tmp_path / "j")  # the crash tore batch 2's record

        with pytest.warns(RuntimeWarning, match="torn tail"):
            recovered = RecommendationService.recover(
                build_serving_planner(), tmp_path / "j", config=config
            )
        assert recovered.journal.batch_count == 1  # batch 2 must re-execute
        produced = []
        for chunk in chunks[1:]:
            for response in recovered.results(recovered.submit(chunk)):
                produced.append(recommendation_fingerprint(response.result))
        recovered.close()
        assert produced == sequential_oracle["plain"]["fingerprints"][32:]

    def test_preseeded_planner_is_baselined_without_a_record(
        self, tmp_path, build_serving_planner, serving_workload
    ):
        # A planner that already holds truths before journaling starts.
        planner = build_serving_planner()
        planner.recommend_batch(list(serving_workload[:32]))
        preexisting = len(planner.truths)
        assert preexisting > 0
        config = self._config(planner, tmp_path)
        service = RecommendationService(planner, config=config)
        # The baseline is a forced snapshot, not a record: batch_count stays
        # an exact executed-batch counter.
        assert service.journal.batch_count == 0
        assert service.journal.truth_count == preexisting
        service.results(service.submit(list(serving_workload[32:64])))
        assert service.journal.batch_count == 1
        stats = service.statistics()
        assert stats["journal"]["batches"] == 1
        service.close()

        recovered_store = build_serving_planner()
        recovered = RecommendationService.recover(
            recovered_store, tmp_path / "j", config=config
        )
        assert len(recovered_store.truths) == len(planner.truths)
        recovered.close()

    def test_statistics_shape(self, tmp_path, build_serving_planner, serving_workload):
        planner = build_serving_planner()
        service = RecommendationService(planner, config=self._config(planner, tmp_path))
        service.results(service.submit(list(serving_workload[:16])))
        stats = service.statistics()
        assert set(stats) == {
            "planner", "supervision", "pipeline", "sharding", "resilience", "journal",
        }
        assert stats["planner"]["requests"] == 16
        assert stats["supervision"]["respawns"] == 0
        assert stats["supervision"]["resubmitted_results"] == 0
        assert stats["pipeline"]["windows"] == 0
        assert stats["sharding"]["sub_shards_total"] == 0
        assert stats["resilience"]["hedges_issued"] == 0
        assert stats["resilience"]["journal_suspended"] is False
        assert stats["journal"]["records_appended"] == 1
        service.close()


class TestJournalDiskFaults:
    """The journal's own OSError surfaces, driven by injected failing I/O."""

    def test_unwritable_journal_directory_is_a_typed_error(self, tmp_path, monkeypatch):
        import pathlib

        def failing_mkdir(self, *args, **kwargs):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(pathlib.Path, "mkdir", failing_mkdir)
        with pytest.raises(JournalError, match="cannot create journal directory"):
            TruthJournal(tmp_path / "nope")

    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EIO])
    def test_append_propagates_disk_errors_raw(
        self, tmp_path, recorded_truths, code
    ):
        """Without a service-level ladder the journal stays policy-free: an
        append against a dying disk raises the original OSError."""
        planner, truths = recorded_truths
        journal = TruthJournal(tmp_path / "j", snapshot_every_truths=10_000)
        journal.append(truths[:2], planner.truths)
        flaky = break_journal_disk(journal, fail_at_append=0, error=code)
        with pytest.raises(OSError) as excinfo:
            journal.append(truths[2:4], planner.truths)
        assert excinfo.value.errno == code
        assert not isinstance(excinfo.value, JournalError)
        assert flaky.failures == 1
        # The failed append consumed no record: durable state is unchanged.
        assert journal.batch_count == 1

    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EIO])
    def test_unreadable_snapshot_falls_back_a_generation(
        self, tmp_path, recorded_truths, monkeypatch, code
    ):
        """An OSError while validating the newest snapshot (the journal.py
        selection fallback) downgrades to the previous generation with a
        warning instead of crashing the open."""
        import pathlib
        import shutil

        planner, truths = recorded_truths
        journal_dir = tmp_path / "j"
        journal = TruthJournal(journal_dir, snapshot_every_truths=1)
        journal.append(truths[:2], planner.truths)  # cadence forces snapshot gen 1
        journal.close()
        # Rotation keeps a single generation on disk, so fabricate a newer
        # one (as a crash between "new snapshot durable" and "old generation
        # deleted" would leave) whose snapshot the disk then refuses to read.
        shutil.copy(journal_dir / "snapshot-00000001.snap", journal_dir / "snapshot-00000002.snap")
        shutil.copy(journal_dir / "journal-00000001.log", journal_dir / "journal-00000002.log")
        bad_name = "snapshot-00000002.snap"

        original_read_bytes = pathlib.Path.read_bytes

        def flaky_read_bytes(self):
            if self.name == bad_name:
                raise OSError(code, os.strerror(code))
            return original_read_bytes(self)

        monkeypatch.setattr(pathlib.Path, "read_bytes", flaky_read_bytes)
        with pytest.warns(RuntimeWarning, match="falling back to the previous generation"):
            reopened = TruthJournal(journal_dir, snapshot_every_truths=1)
        assert reopened.generation == 1
        # The fallback generation's durable prefix is what replay serves.
        assert reopened.batch_count == 1
        assert not (journal_dir / bad_name).exists()
        reopened.close()
