"""Tests for the structured event log (repro.obs.events)."""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EVENT_TYPES,
    EventLog,
    _open_rotation_successor,
    follow_events,
    iter_events,
    tail_events,
)


class TestEventLogBasics:
    def test_round_trip_one_event(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            log.emit("checkpoint", seq=7, seconds=0.25)
        events = list(iter_events(path))
        assert len(events) == 1
        event = events[0]
        assert event["v"] == EVENT_SCHEMA_VERSION
        assert event["type"] == "checkpoint"
        assert event["seq"] == 7
        assert event["seconds"] == 0.25
        assert event["ts"] > 0

    def test_every_line_is_valid_json(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            for i in range(50):
                log.emit("query_finish", query=f"Q{i}", matches=i)
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                assert record["v"] == EVENT_SCHEMA_VERSION

    def test_unknown_type_is_accepted(self, tmp_path):
        # The schema versions the *record shape*, not the type vocabulary;
        # forward-compatible readers must tolerate new types.
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            log.emit("totally_new_event", value=1)
        assert list(iter_events(path))[0]["type"] == "totally_new_event"

    def test_reserved_keys_cannot_be_overridden(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            with pytest.raises(ValueError):
                log.emit("checkpoint", ts=0.0)

    def test_non_serialisable_fields_are_stringified(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            log.emit("recovery", path_obj=tmp_path)
        assert str(tmp_path) in list(iter_events(path))[0]["path_obj"]

    def test_emit_after_close_drops_and_counts(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path)
        log.emit("checkpoint")
        log.close()
        log.emit("checkpoint")
        stats = log.stats()
        assert stats["emitted"] == 1
        assert stats["dropped"] == 1
        assert len(list(iter_events(path))) == 1

    def test_stats_shape(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path, max_bytes=1024, backups=2) as log:
            log.emit("pool_respawn", generation=1)
            stats = log.stats()
        assert stats["attached"] is True
        assert stats["schema_version"] == EVENT_SCHEMA_VERSION
        assert stats["emitted"] == 1
        assert stats["max_bytes"] == 1024
        assert stats["backups"] == 2
        assert stats["size_bytes"] > 0

    def test_known_types_are_documented(self):
        for name in (
            "query_finish",
            "slow_query",
            "update_batch",
            "checkpoint",
            "compaction_install",
            "pool_respawn",
            "fallback_to_thread",
            "recovery",
        ):
            assert name in EVENT_TYPES


class TestRotation:
    def test_rotation_keeps_every_record_readable(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path, max_bytes=512, backups=16) as log:
            for i in range(60):
                log.emit("query_finish", query="Q1", idx=i)
            assert log.stats()["rotations"] > 0
            assert log.rotated_paths()
        events = list(iter_events(path))
        # Oldest-first across backups, then the active file.
        assert [e["idx"] for e in events] == list(range(60))

    def test_rotation_drops_oldest_beyond_backups(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path, max_bytes=256, backups=1) as log:
            for i in range(80):
                log.emit("query_finish", idx=i)
        events = list(iter_events(path))
        indexes = [e["idx"] for e in events]
        # A strict suffix survives, in order, ending at the newest record.
        assert indexes == list(range(indexes[0], 80))
        assert len(indexes) < 80

    def test_zero_backups_unlinks_instead_of_rotating(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path, max_bytes=256, backups=0) as log:
            for i in range(40):
                log.emit("query_finish", idx=i)
            assert log.rotated_paths() == []
        assert not os.path.exists(path + ".1")

    def test_torn_and_malformed_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            log.emit("checkpoint", seq=1)
            log.emit("checkpoint", seq=2)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "ts": 1.0, "type": "torn"')  # no newline, no close
        events = list(iter_events(path))
        assert [e["seq"] for e in events] == [1, 2]


class TestFiltering:
    def test_type_filter(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            log.emit("query_finish", idx=0)
            log.emit("checkpoint", seq=1)
            log.emit("query_finish", idx=1)
        only = list(iter_events(path, types=["checkpoint"]))
        assert len(only) == 1 and only[0]["seq"] == 1

    def test_tail_events_returns_newest_n_in_order(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path, max_bytes=512, backups=8) as log:
            for i in range(30):
                log.emit("query_finish", idx=i)
        tail = tail_events(path, n=5)
        assert [e["idx"] for e in tail] == [25, 26, 27, 28, 29]

    def test_missing_file_yields_nothing(self, tmp_path):
        assert list(iter_events(str(tmp_path / "nope.jsonl"))) == []
        assert tail_events(str(tmp_path / "nope.jsonl")) == []


class TestConcurrency:
    def test_concurrent_writers_produce_valid_interleaved_lines(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        per_thread = 200
        with EventLog(path, max_bytes=8192, backups=32) as log:

            def writer(worker_id: int) -> None:
                for i in range(per_thread):
                    log.emit("query_finish", worker=worker_id, idx=i)

            threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert log.stats()["emitted"] == 4 * per_thread
        events = list(iter_events(path))
        assert len(events) == 4 * per_thread
        # Per-writer order is preserved even under interleaving + rotation.
        for worker_id in range(4):
            seen = [e["idx"] for e in events if e["worker"] == worker_id]
            assert seen == list(range(per_thread))


class TestFollowerTornListing:
    """A follower's rotation-chain scan can interleave with the writer's
    one-rename-at-a-time rotation.  Such a torn listing must be retried, not
    read as "rotated past retention" (which would skip every record of the
    files in between)."""

    def test_follower_loses_nothing_across_a_torn_listing(self, tmp_path, monkeypatch):
        path = str(tmp_path / "events.jsonl")
        real_stat = os.stat
        with EventLog(path, max_bytes=200, backups=3) as log:

            def emit(i):
                log.emit("tick", i=i, pad="x" * 40)  # two records per file

            deadline = time.monotonic() + 10.0
            follower = follow_events(
                path,
                poll_interval=0.001,
                start_at_end=False,
                max_backups=log.backups,
                stop=lambda: time.monotonic() > deadline,
            )
            emit(0)
            assert next(follower)["i"] == 0
            for i in range(1, 5):
                emit(i)
            # The held file is now <path>.2; records 2-4 sit in <path>.1 and
            # the active file.  Inject one more rotation *into* the
            # follower's next chain scan, right after it stats <path>.3:
            # that scan then sees neither the held file's old name nor its
            # new one.
            state = {"armed": True, "fired": False}

            def torn_stat(candidate, *args, **kwargs):
                try:
                    return real_stat(candidate, *args, **kwargs)
                finally:
                    if state["armed"] and os.fspath(candidate) == f"{path}.3":
                        state["armed"] = False
                        emit(5)
                        emit(6)  # rotates: .2 -> .3, .1 -> .2, active -> .1
                        state["fired"] = True

            monkeypatch.setattr(os, "stat", torn_stat)
            received = []
            for record in follower:
                received.append(record["i"])
                if len(received) == 6:
                    break
            follower.close()
        assert state["fired"], "the torn listing was never exercised"
        assert received == list(range(1, 7))

    def test_gap_in_chain_is_retried(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        for name in (path, f"{path}.1", f"{path}.3"):
            open(name, "w").close()
        old_ino = os.stat(f"{path}.3").st_ino
        # <path>.2 is missing: a listing mid-rename, never a settled chain.
        assert _open_rotation_successor(path, old_ino, 3) is None
        os.rename(f"{path}.3", f"{path}.2")
        handle = _open_rotation_successor(path, old_ino, 3)
        assert handle is not None
        with handle:
            assert os.fstat(handle.fileno()).st_ino == os.stat(f"{path}.1").st_ino

    def test_consistent_chain_without_old_file_means_past_retention(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path, max_bytes=200, backups=1) as log:
            with open(path, "rb") as held:
                old_ino = os.fstat(held.fileno()).st_ino
                for i in range(12):
                    log.emit("tick", i=i, pad="x" * 40)
                assert log.rotations >= 2
                assert _open_rotation_successor(path, old_ino, log.backups) is None
