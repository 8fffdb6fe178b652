"""Tests for the SQLite disk-cache store (repro.cache.sqlite_store)."""

from __future__ import annotations

import json
import os
import sqlite3

import pytest

import repro.faults as faults
from repro.cache.resilience import RetryPolicy
from repro.cache.sqlite_store import (
    DB_FILENAME,
    SqliteStore,
    delete_entries,
    read_entries,
)
from repro.cache.store import ActivityCache, ExperimentCache


class TestSqliteStore:
    def test_round_trip(self, tmp_path):
        with SqliteStore(tmp_path) as store:
            assert store.get("k") is None
            assert not store.contains("k")
            store.put("k", '{"value": 1}')
            assert store.get("k") == '{"value": 1}'
            assert store.contains("k")
            assert len(store) == 1
        # A fresh connection (fresh process, conceptually) reads it back.
        with SqliteStore(tmp_path) as reader:
            assert reader.get("k") == '{"value": 1}'

    def test_put_replaces(self, tmp_path):
        with SqliteStore(tmp_path) as store:
            store.put("k", "old")
            store.put("k", "new")
            assert store.get("k") == "new"
            assert len(store) == 1

    def test_delete_and_clear(self, tmp_path):
        with SqliteStore(tmp_path) as store:
            store.put("a", "1")
            store.put("b", "2")
            store.delete("a")
            store.delete("a")  # absent: no-op
            assert store.get("a") is None
            store.clear()
            assert len(store) == 0
        assert (tmp_path / DB_FILENAME).exists()  # clear keeps the database

    def test_entries_report_size_and_mtime(self, tmp_path):
        with SqliteStore(tmp_path) as store:
            store.put("k", "abcd", mtime=123.5)
            rows = list(store.entries())
        assert rows == [("k", 4, 123.5)]

    def test_wal_mode(self, tmp_path):
        with SqliteStore(tmp_path) as store:
            (mode,) = store._conn.execute("PRAGMA journal_mode").fetchone()
        assert mode.lower() == "wal"


class TestLegacyMigration:
    def test_json_files_are_imported_and_removed(self, tmp_path):
        (tmp_path / "old.json").write_text('{"legacy": true}')
        os.utime(tmp_path / "old.json", (1000.0, 1000.0))
        with SqliteStore(tmp_path) as store:
            assert store.get("old") == '{"legacy": true}'
            rows = dict(
                (key, mtime) for key, _size, mtime in store.entries()
            )
        assert rows["old"] == 1000.0  # file mtime preserved for GC age accounting
        assert not (tmp_path / "old.json").exists()

    def test_database_row_wins_over_legacy_file(self, tmp_path):
        with SqliteStore(tmp_path) as store:
            store.put("k", "from-db")
        (tmp_path / "k.json").write_text("from-file")
        with SqliteStore(tmp_path) as store:
            assert store.get("k") == "from-db"
        assert not (tmp_path / "k.json").exists()

    def test_cache_reads_migrated_legacy_entries(self, quiet_config, tmp_path):
        # A legacy one-file-per-key entry (the serialized document as its
        # own <key>.json) is readable through the cache after migration.
        from repro.cache.fingerprint import experiment_fingerprint
        from repro.experiments.harness import run_experiment

        config = quiet_config()
        key = experiment_fingerprint(config)
        result = run_experiment(config, cache=None)
        document = json.dumps(ExperimentCache()._serialize(result))
        (tmp_path / f"{key}.json").write_text(document)

        migrated = ExperimentCache(disk_dir=tmp_path)
        loaded = migrated.get(key)
        assert loaded is not None
        assert loaded.as_dict() == result.as_dict()
        assert not (tmp_path / f"{key}.json").exists()

    def test_activity_tier_reads_migrated_legacy_entries(self, quiet_config, tmp_path):
        from repro.experiments.harness import run_experiment

        warm = ActivityCache()
        run_experiment(quiet_config(), cache=None, activity_cache=warm)
        (key,) = list(warm._entries)  # one seed, one activity estimate
        report = warm.get(key)
        assert report is not None
        activity_dir = tmp_path / "activity"
        activity_dir.mkdir()
        (activity_dir / f"{key}.json").write_text(json.dumps(warm._serialize(report)))

        migrated = ActivityCache(disk_dir=activity_dir)
        assert migrated.get(key) == report  # every float bit-exact
        assert migrated.stats.disk_hits == 1
        assert not (activity_dir / f"{key}.json").exists()

    def test_migration_stays_within_its_directory(self, tmp_path):
        # The experiment tier lives at the root with the activity tier in a
        # subdirectory: opening the root must not import the subtier's
        # files, nor anything that is not a <key>.json entry.
        (tmp_path / "activity").mkdir()
        (tmp_path / "activity" / "sub.json").write_text('"activity"')
        (tmp_path / "notes.txt").write_text("not an entry")
        (tmp_path / ".k.json.123.456.tmp").write_text("partial")
        with SqliteStore(tmp_path) as store:
            assert [key for key, _size, _mtime in store.entries()] == []
        assert (tmp_path / "activity" / "sub.json").exists()
        assert (tmp_path / "notes.txt").exists()
        with SqliteStore(tmp_path / "activity") as store:
            assert store.get("sub") == '"activity"'

    def test_unreadable_legacy_entry_is_skipped(self, tmp_path):
        (tmp_path / "dir.json").mkdir()  # matches the glob, cannot be read
        (tmp_path / "good.json").write_text('"ok"')
        with SqliteStore(tmp_path) as store:
            assert store.get("good") == '"ok"'
            assert not store.contains("dir")
        assert (tmp_path / "dir.json").is_dir()
        assert not (tmp_path / "good.json").exists()

    def test_files_written_after_migration_import_on_next_open(self, tmp_path):
        (tmp_path / "first.json").write_text('"1"')
        with SqliteStore(tmp_path) as store:
            assert store.get("first") == '"1"'
        # An older writer sharing the directory keeps publishing files.
        (tmp_path / "second.json").write_text('"2"')
        with SqliteStore(tmp_path) as store:
            assert {key for key, _size, _mtime in store.entries()} == {"first", "second"}
        assert list(tmp_path.glob("*.json")) == []

    def test_legacy_directory_serves_sweep_from_disk(self, quiet_config, tmp_path):
        """A whole two-tier directory in the one-file-per-key layout (each
        row exported as its own <key>.json, the databases removed) serves a
        re-run sweep from disk with results identical to the cold run."""
        from repro.experiments.sweep import run_configs, sweep_configs

        configs = sweep_configs(
            quiet_config(pattern_family="sparsity", matrix_size=32, seeds=2),
            "sparsity",
            [0.0, 0.5],
        )
        cold = run_configs(
            configs,
            workers=1,
            cache=ExperimentCache(disk_dir=tmp_path),
            activity_cache=ActivityCache(disk_dir=tmp_path / "activity"),
        )
        for directory in (tmp_path, tmp_path / "activity"):
            with SqliteStore(directory) as store:
                rows = {key: store.get(key) for key, _size, _mtime in store.entries()}
            assert rows
            for database in directory.glob(f"{DB_FILENAME}*"):
                database.unlink()
            for key, payload in rows.items():
                (directory / f"{key}.json").write_text(payload)

        cache = ExperimentCache(disk_dir=tmp_path)
        warm = run_configs(
            configs,
            workers=1,
            cache=cache,
            activity_cache=ActivityCache(disk_dir=tmp_path / "activity"),
        )
        assert cache.stats.disk_hits == len(configs)
        assert [r.as_dict() for r in warm] == [r.as_dict() for r in cold]
        assert list(tmp_path.rglob("*.json")) == []


class TestLegacyDocumentEquivalence:
    def test_same_payload_documents(self, tmp_path):
        """A row holds the same JSON document a legacy entry file held, so
        a migrated file and a freshly written row read back equal."""
        from repro.activity.report import ActivityReport

        report = ActivityReport(
            operand_activity=0.5,
            multiplier_activity=0.4,
            datapath_activity=0.3,
            memory_activity=0.2,
            operand_toggle_a=0.11,
            operand_toggle_b=0.12,
            multiplier_hw_product=0.13,
            zero_mac_fraction=0.14,
            product_toggle=0.15,
            accumulator_toggle=0.16,
            memory_toggle=0.17,
            a_hamming_fraction=0.5,
            b_hamming_fraction=0.5,
            bit_alignment=0.18,
            dtype="fp16_t",
            shape=(4, 4, 4),
            output_samples=8,
        )
        legacy_doc = json.dumps(ActivityCache()._serialize(report))
        (tmp_path / "legacy").mkdir()
        (tmp_path / "legacy" / "k.json").write_text(legacy_doc)
        ActivityCache(disk_dir=tmp_path / "sql").put("k", report)

        with SqliteStore(tmp_path / "sql") as store:
            db_doc = json.loads(store.get("k"))
        assert json.loads(legacy_doc) == db_doc

        # And both round-trip to an equal report.
        assert (
            ActivityCache(disk_dir=tmp_path / "legacy").get("k")
            == ActivityCache(disk_dir=tmp_path / "sql").get("k")
            == report
        )


class TestGcHelpers:
    def test_read_entries_missing_db(self, tmp_path):
        assert read_entries(tmp_path / DB_FILENAME) == []

    def test_read_entries_corrupt_db(self, tmp_path):
        path = tmp_path / DB_FILENAME
        path.write_bytes(b"this is not a database")
        assert read_entries(path) == []

    def test_read_entries_is_side_effect_free(self, tmp_path):
        # Scanning must not trigger legacy migration: stats/ls/dry-run
        # passes never mutate the directory they describe.
        with SqliteStore(tmp_path) as store:
            store.put("k", "v")
        (tmp_path / "legacy.json").write_text("{}")
        rows = read_entries(tmp_path / DB_FILENAME)
        assert [key for key, _, _ in rows] == ["k"]
        assert (tmp_path / "legacy.json").exists()

    def test_delete_entries(self, tmp_path):
        with SqliteStore(tmp_path) as store:
            for index in range(3):
                store.put(f"k{index}", "v")
        removed = delete_entries(tmp_path / DB_FILENAME, ["k0", "k2", "absent"])
        assert removed == 2
        assert [key for key, _, _ in read_entries(tmp_path / DB_FILENAME)] == ["k1"]
        assert delete_entries(tmp_path / DB_FILENAME, []) == 0
        assert delete_entries(tmp_path / "nowhere.sqlite", ["k"]) == 0

    def test_errors_surface_as_oserror(self, tmp_path):
        store = SqliteStore(tmp_path)
        store.close()
        with pytest.raises(OSError):
            store.get("k")
        with pytest.raises(OSError):
            store.put("k", "v")


class TestLifecycleOverSqlite:
    def _populate(self, root, tier, keys, base_mtime=1_000_000_000.0):
        from repro.cache.lifecycle import tier_dir

        directory = tier_dir(root, tier)
        with SqliteStore(directory) as store:
            for offset, key in enumerate(keys):
                store.put(key, json.dumps({"pad": "x" * 64}), mtime=base_mtime + offset)

    def test_scan_sees_rows(self, tmp_path):
        from repro.cache.lifecycle import cache_dir_stats, scan_cache_dir

        self._populate(tmp_path, "experiment", ["a", "b"])
        self._populate(tmp_path, "activity", ["c"])
        entries = scan_cache_dir(tmp_path)
        assert sorted(entry.key for entry in entries) == ["a", "b", "c"]
        stats = cache_dir_stats(tmp_path, now=1_000_000_100.0)
        assert stats["tiers"]["experiment"]["entries"] == 2
        assert stats["tiers"]["activity"]["entries"] == 1

    def test_prune_removes_rows(self, tmp_path):
        from repro.cache.lifecycle import prune_cache_dir, scan_cache_dir

        self._populate(tmp_path, "experiment", ["old", "new"])
        report = prune_cache_dir(
            tmp_path, max_age_s=0.5, now=1_000_000_001.0
        )
        assert {entry.key for entry in report.removed} == {"old"}
        assert {entry.key for entry in scan_cache_dir(tmp_path)} == {"new"}
        # The row really is gone from the database, not just the report.
        with sqlite3.connect(tmp_path / DB_FILENAME) as conn:
            rows = conn.execute("SELECT key FROM entries").fetchall()
        assert rows == [("new",)]

    def test_dry_run_prune_mutates_nothing(self, tmp_path):
        from repro.cache.lifecycle import prune_cache_dir, scan_cache_dir

        self._populate(tmp_path, "experiment", ["a"])
        (tmp_path / "legacy.json").write_text("{}")
        report = prune_cache_dir(
            tmp_path, max_age_s=0.5, now=2_000_000_000.0, dry_run=True
        )
        assert {entry.key for entry in report.removed} >= {"a"}
        assert {entry.key for entry in scan_cache_dir(tmp_path)} >= {"a"}
        assert (tmp_path / "legacy.json").exists()  # no migration side effect


class TestChaosInjection:
    """Chaos parametrization: every injected sqlite fault leaves the store
    either serving correct data or raising OSError — never torn entries."""

    @pytest.fixture(autouse=True)
    def _clean_schedule(self):
        yield
        faults.reset()

    @pytest.mark.parametrize(
        "schedule_text",
        [
            "cache.sqlite.write:busy@0.5",
            "cache.sqlite.read:busy@0.5",
            "cache.sqlite.write:busy@0.5;cache.sqlite.read:busy@0.5",
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_busy_chaos_roundtrip_is_lossless(self, tmp_path, schedule_text, seed):
        retry = RetryPolicy(attempts=6, base_delay_s=0.0005, max_delay_s=0.002)
        faults.install_schedule(
            faults.FaultSchedule(faults.parse_schedule(schedule_text), seed=seed)
        )
        store = SqliteStore(tmp_path, retry=retry)
        expected = {}
        for index in range(8):
            key, payload = f"key{index}", json.dumps({"index": index})
            try:
                store.put(key, payload)
            except OSError:
                continue  # typed failure: the entry must then be absent...
            expected[key] = payload
        faults.uninstall_schedule()
        for key, payload in expected.items():
            assert store.get(key) == payload  # ...never torn or wrong
        assert len(store) == len(expected)
        store.close()
