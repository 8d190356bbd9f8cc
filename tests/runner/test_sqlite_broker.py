"""SQLite-backend-specific behaviour (everything protocol-level lives in
``test_broker_contract.py``): path resolution, pragma/schema setup, the
corrupt-row quarantine, connection lifecycle and the stats counters."""

from __future__ import annotations

import pickle
import sqlite3

import pytest

from repro.experiments import EvaluationProtocol
from repro.runner import TrialSpec
from repro.runner.brokers.sqlite import DB_FILENAME, SqliteBroker

FAST = EvaluationProtocol(n_iterations=2, eval_every=2, n_seeds=2, dataset_scale=0.15)


def _spec(seed=0, dataset="youtube"):
    return TrialSpec(framework="uncertainty", dataset=dataset, seed=seed, protocol=FAST)


class TestPathResolution:
    def test_directory_location_gets_a_database_file_inside(self, tmp_path):
        broker = SqliteBroker(tmp_path / "queue")
        assert broker.path == tmp_path / "queue" / DB_FILENAME
        broker.enqueue(_spec())
        assert broker.path.is_file()

    @pytest.mark.parametrize("name", ["queue.sqlite3", "queue.sqlite", "queue.db"])
    def test_database_suffix_means_the_file_itself(self, tmp_path, name):
        broker = SqliteBroker(tmp_path / name)
        assert broker.path == tmp_path / name
        broker.enqueue(_spec())
        assert broker.path.is_file()
        assert not (tmp_path / name / DB_FILENAME).exists()

    def test_location_property_names_the_database(self, tmp_path):
        broker = SqliteBroker(tmp_path / "queue")
        assert broker.location == broker.path


class TestSchema:
    def test_wal_mode_and_schema_version_are_set(self, tmp_path):
        broker = SqliteBroker(tmp_path / "queue")
        broker.enqueue(_spec())
        conn = sqlite3.connect(str(broker.path))
        try:
            assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
            assert conn.execute("PRAGMA user_version").fetchone()[0] >= 1
            tables = {
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'"
                )
            }
            assert {"tasks", "failures"} <= tables
        finally:
            conn.close()

    def test_close_then_reuse_reopens_lazily(self, tmp_path):
        broker = SqliteBroker(tmp_path / "queue")
        broker.enqueue(_spec(seed=0))
        broker.close()
        assert broker.enqueue(_spec(seed=1))
        assert broker.counts()["tasks"] == 2

    def test_constructor_validates_arguments(self, tmp_path):
        with pytest.raises(ValueError, match="lease_ttl"):
            SqliteBroker(tmp_path, lease_ttl=0)


class TestCorruptRows:
    def _corrupt_row(self, broker, key):
        with broker._tx() as conn:
            conn.execute(
                "UPDATE tasks SET spec = ? WHERE key = ?",
                (b"not a pickle", key),
            )

    def test_unpicklable_spec_is_quarantined_not_served(self, tmp_path):
        broker = SqliteBroker(tmp_path / "queue")
        good, bad = _spec(seed=0), _spec(seed=1)
        broker.enqueue_batch([good, bad])
        self._corrupt_row(broker, bad.key)
        leases = broker.lease_batch("w", limit=8)
        assert [lease.key for lease in leases] == [good.key]
        counts = broker.counts()
        assert counts["corrupt"] == 1 and counts["leases"] == 1

    def test_reenqueue_overwrites_a_quarantined_row(self, tmp_path):
        broker = SqliteBroker(tmp_path / "queue")
        spec = _spec()
        broker.enqueue(spec)
        self._corrupt_row(broker, spec.key)
        broker.lease_batch("w")  # trips the quarantine
        assert broker.counts()["corrupt"] == 1
        assert broker.enqueue(spec)  # self-heal: overwrite with a fresh copy
        assert broker.counts() == {"tasks": 1, "leases": 0, "failed": 0, "corrupt": 0}
        (lease,) = broker.lease_batch("w")
        assert lease.spec == spec


class TestStats:
    def test_counters_track_transactions_and_claims(self, tmp_path):
        broker = SqliteBroker(tmp_path / "queue")
        broker.enqueue_batch([_spec(seed=seed) for seed in range(4)])
        assert broker.stats.transactions == 1  # the whole batch in one tx
        leases = broker.lease_batch("w", limit=4)
        assert broker.stats.batches == 1
        assert broker.stats.claims == 4
        assert broker.stats.transactions == 2
        assert broker.stats.transactions_per_claim() == pytest.approx(0.5)
        for lease in leases:
            broker.complete(lease)
        assert broker.stats.transactions == 6

    def test_reads_do_not_count_as_transactions(self, tmp_path):
        broker = SqliteBroker(tmp_path / "queue")
        broker.enqueue(_spec())
        before = broker.stats.transactions
        broker.counts()
        broker.backlog()
        assert broker.stats.transactions == before
        assert broker.stats.queries >= 2


class TestSpecRoundTrip:
    def test_spec_survives_pickling_through_the_row(self, tmp_path):
        broker = SqliteBroker(tmp_path / "queue")
        spec = _spec(seed=7)
        broker.enqueue(spec)
        (lease,) = broker.lease_batch("w")
        assert lease.spec == spec
        assert lease.spec.key == spec.key
        # The blob is a plain pickle: a different process (worker) can load it.
        assert isinstance(pickle.loads(pickle.dumps(lease.spec)), TrialSpec)
