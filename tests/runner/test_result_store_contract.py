"""Contract suite: both result-store classes honour one set of semantics.

Mirrors ``test_broker_contract.py`` — the same assertions run against the
blob layer (``ResultCache``) and the store every layer holds
(``IndexedResultStore``, its subclass).  Indexed-only semantics (index
rows, crash-mid-put divergence, ``--reindex`` recovery, the engine's blob
byte-identity) live in their own classes below.
"""

import pickle
import sqlite3

import pytest

from repro.core.results import IterationRecord, RunHistory
from repro.experiments import EvaluationProtocol
from repro.runner import (
    ExecutionConfig,
    GridJob,
    TrialSpec,
    expand_jobs,
    run_experiment_grid,
)
from repro.runner.results import (
    IndexedResultStore,
    ResultCache,
    RunHistoryDB,
)
from repro.runner.results.history_db import _INDEXES, _TABLES

PROTOCOL = EvaluationProtocol(
    n_iterations=3, eval_every=3, n_seeds=1, dataset_scale=0.15
)


#: Schema generation 1: the trial tables (unchanged since) plus the table
#: of benchmark headline numbers that generation 2 no longer creates.
_GENERATION_1_SCHEMA = (
    *_TABLES.values(),
    *_INDEXES,
    """CREATE TABLE benchmark_runs (
        id          INTEGER PRIMARY KEY AUTOINCREMENT,
        benchmark   TEXT NOT NULL,
        recorded_at REAL NOT NULL,
        values_json TEXT NOT NULL
    )""",
    "CREATE INDEX idx_bench_name_time ON benchmark_runs (benchmark, recorded_at)",
)


def _history(seed=0, framework="f", dataset="d", n=2):
    history = RunHistory(framework=framework, dataset=dataset, seed=seed)
    for iteration in range(n):
        record = IterationRecord(iteration=iteration, query_index=4 + iteration)
        record.test_accuracy = 0.5 + 0.1 * iteration
        record.lm_fits = iteration + 1
        record.lm_warm_fits = iteration
        history.add(record)
    return history


def _spec(seed=7, framework="uncertainty", dataset="youtube"):
    return TrialSpec(
        framework=framework, dataset=dataset, seed=seed, protocol=PROTOCOL
    )


@pytest.fixture(params=[ResultCache, IndexedResultStore], ids=lambda cls: cls.__name__)
def store_class(request):
    return request.param


@pytest.fixture
def make_store(store_class, tmp_path):
    def factory(root=None):
        return store_class(root if root is not None else tmp_path)

    return factory


class TestContract:
    def test_roundtrip(self, make_store):
        store = make_store()
        spec = _spec()
        assert store.get(spec) is None
        assert spec not in store
        store.put(spec, _history())
        assert spec in store
        assert len(store) == 1
        loaded = store.get(spec)
        assert loaded.records[0].query_index == 4
        assert loaded.records[1].test_accuracy == pytest.approx(0.6)

    def test_raw_key_and_spec_are_interchangeable(self, make_store):
        store = make_store()
        spec = _spec()
        store.put(spec.key, _history())
        assert store.get(spec) is not None
        assert store.get(spec.key) is not None
        assert store.path_for(spec) == store.path_for(spec.key)

    def test_put_accepts_wall_seconds(self, make_store):
        store = make_store()
        spec = _spec()
        store.put(spec, _history(), wall_seconds=1.25)
        assert store.get(spec) is not None

    def test_blob_layout_shards_by_key_prefix(self, make_store):
        store = make_store()
        spec = _spec()
        path = store.put(spec, _history())
        assert path.parent.name == spec.key[:2]
        assert path.name == f"{spec.key}.pkl"

    def test_keys_present_small_and_listing_branches(self, make_store):
        store = make_store()
        hits = [_spec(seed) for seed in range(0, 40, 2)]
        misses = [_spec(seed) for seed in range(1, 40, 2)]
        for spec in hits:
            store.put(spec, _history(spec.seed))
        expected = {spec.key for spec in hits}
        assert store.keys_present([]) == set()
        # 40 keys exercises the per-prefix listing branch...
        assert store.keys_present(hits + misses) == expected
        # ...and one key at a time the per-key stat branch.
        for spec in hits[:3] + misses[:3]:
            assert store.keys_present([spec]) == (
                {spec.key} if spec.key in expected else set()
            )

    def test_corrupt_blob_is_a_miss_and_quarantined(self, make_store):
        store = make_store()
        spec = _spec()
        path = store.put(spec, _history())
        path.write_bytes(b"garbage")
        assert store.get(spec) is None
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        assert store.n_quarantined() == 1
        assert len(store) == 0

    def test_clear_removes_entries_and_quarantined_files(self, make_store):
        store = make_store()
        store.put(_spec(1), _history(1))
        bad = store.put(_spec(2), _history(2))
        bad.write_bytes(b"garbage")
        assert store.get(_spec(2)) is None
        assert store.clear() == 1
        assert len(store) == 0
        assert store.n_quarantined() == 0
        assert store.get(_spec(1)) is None

    def test_byte_identical_blobs_across_backends(self, store_class, tmp_path):
        """The stores may only differ in *index* state, never in blob bytes."""
        spec = _spec()
        history = _history()
        reference = ResultCache(tmp_path / "reference")
        store = store_class(tmp_path / "store")
        assert (
            store.put(spec, history).read_bytes()
            == reference.put(spec, history).read_bytes()
        )


def _count_calls(monkeypatch, cls, attr):
    """Wrap ``cls.attr`` through the class dict, as the benchmark's span tracer does."""
    raw = cls.__dict__[attr]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return raw(*args, **kwargs)

    monkeypatch.setattr(cls, attr, counted)
    return calls


class TestIndexedStore:
    """Semantics only the SQLite-indexed store has."""

    def test_get_runs_the_blob_layers_get_once(self, tmp_path, monkeypatch):
        # Spans wrapped around ResultCache.get must see the reads of the
        # store every layer holds.
        store = IndexedResultStore(tmp_path)
        spec = _spec()
        store.put(spec, _history())
        calls = _count_calls(monkeypatch, ResultCache, "get")
        assert store.get(spec) is not None
        assert len(calls) == 1 and calls[0][0] is store

    def test_put_runs_the_blob_layers_put_once(self, tmp_path, monkeypatch):
        store = IndexedResultStore(tmp_path)
        spec = _spec()
        calls = _count_calls(monkeypatch, ResultCache, "put")
        store.put(spec, _history(), wall_seconds=1.5)
        assert len(calls) == 1 and calls[0][0] is store
        assert store.db.has_key(spec.key)

    def test_put_materialises_index_rows(self, tmp_path):
        store = IndexedResultStore(tmp_path)
        spec = _spec(seed=3, framework="activedp", dataset="youtube")
        store.put(spec, _history(3, "activedp", "youtube"), wall_seconds=2.5)
        (row,) = store.db.query(framework="activedp")
        assert row["key"] == spec.key
        assert row["dataset"] == "youtube"
        assert row["seed"] == 3
        assert row["average_accuracy"] == pytest.approx(0.55)
        assert row["final_accuracy"] == pytest.approx(0.6)
        assert row["lm_fits"] == 2  # final record's cumulative counter
        assert row["lm_warm_fits"] == 1
        # Spec enrichments are present on the incremental path.
        assert row["wall_seconds"] == pytest.approx(2.5)
        assert row["cache_version"] is not None
        assert row["protocol"] is not None
        assert row["group_label"] is None
        iteration_rows = store.db.iterations(spec.key)
        assert [r["iteration"] for r in iteration_rows] == [0, 1]
        assert iteration_rows[1]["test_accuracy"] == pytest.approx(0.6)

    def test_raw_key_put_indexes_without_enrichments(self, tmp_path):
        store = IndexedResultStore(tmp_path)
        spec = _spec()
        store.put(spec.key, _history())
        (row,) = store.db.query()
        assert row["key"] == spec.key
        assert row["protocol"] is None and row["cache_version"] is None

    def test_metric_predicates_and_leaderboard(self, tmp_path):
        store = IndexedResultStore(tmp_path)
        for seed, framework, accuracy in (
            (1, "activedp", 0.9),
            (2, "activedp", 0.8),
            (1, "uncertainty", 0.4),
        ):
            history = RunHistory(framework=framework, dataset="d", seed=seed)
            record = IterationRecord(iteration=0, query_index=0)
            record.test_accuracy = accuracy
            history.add(record)
            store.put(_spec(seed, framework, "d"), history)
        rows = store.db.query(where="final_accuracy >= 0.8")
        assert {row["seed"] for row in rows} == {1, 2}
        board = store.db.leaderboard(metric="final_accuracy")
        assert [row["framework"] for row in board] == ["activedp", "uncertainty"]
        assert board[0]["mean"] == pytest.approx(0.85)
        assert board[0]["n_trials"] == 2

    @pytest.mark.parametrize(
        "by", [("nosuch",), ("framework, 1; select",), ("framework", "seed)"), ()]
    )
    def test_aggregate_rejects_unknown_grouping_columns(self, tmp_path, by):
        store = IndexedResultStore(tmp_path)
        store.put(_spec(), _history())
        with pytest.raises(ValueError, match="group-by columns"):
            store.db.aggregate(by=by)
        assert store.db.aggregate(by=("framework", "seed"))[0]["n_trials"] == 1

    def test_crash_mid_put_diverges_then_reindex_recovers(self, tmp_path, monkeypatch):
        """Blob first, index second: a crash between the two loses only the
        index row, and ``reindex()`` restores consistency from the blobs."""
        store = IndexedResultStore(tmp_path)
        healthy = _spec(1)
        store.put(healthy, _history(1))

        def crash(*args, **kwargs):
            raise sqlite3.OperationalError("disk I/O error")

        monkeypatch.setattr(RunHistoryDB, "index_trial", crash)
        orphan = _spec(2)
        store.put(orphan, _history(2))  # must not raise: blobs are truth
        monkeypatch.undo()

        assert store.get(orphan) is not None  # blob landed
        keys = {row["key"] for row in store.db.query()}
        assert keys == {healthy.key}  # index missed the crash-put

        assert store.reindex() == 2
        keys = {row["key"] for row in store.db.query()}
        assert keys == {healthy.key, orphan.key}

    def test_reindex_matches_incremental_on_blob_derived_columns(self, tmp_path):
        store = IndexedResultStore(tmp_path)
        specs = [_spec(seed) for seed in range(3)]
        for spec in specs:
            store.put(spec, _history(spec.seed), wall_seconds=1.0)
        incremental = {row["key"]: row for row in store.db.query()}
        store.reindex()
        rebuilt = {row["key"]: row for row in store.db.query()}
        assert rebuilt.keys() == incremental.keys()
        from repro.runner.results.history_db import SPEC_ENRICHMENT_COLUMNS

        for key, row in rebuilt.items():
            for column, value in row.items():
                if column in SPEC_ENRICHMENT_COLUMNS:
                    assert value is None  # blobs cannot recover these
                else:
                    assert value == incremental[key][column], column

    def test_reindex_skips_quarantined_blobs(self, tmp_path):
        store = IndexedResultStore(tmp_path)
        good, bad = _spec(1), _spec(2)
        store.put(good, _history(1))
        store.put(bad, _history(2)).write_bytes(b"garbage")
        assert store.reindex() == 1
        assert {row["key"] for row in store.db.query()} == {good.key}
        assert store.n_quarantined() == 1

    def test_clear_drops_index_rows(self, tmp_path):
        store = IndexedResultStore(tmp_path)
        store.put(_spec(1), _history(1))
        assert store.db.counts() == {"trials": 1, "iterations": 2}
        assert store.clear() == 1
        assert store.db.counts() == {"trials": 0, "iterations": 0}

    def test_opens_an_index_written_with_the_benchmark_table(self, tmp_path):
        """A generation-1 index (which also held benchmark headline rows)
        still opens: put, query, counts and reindex work, and the old table
        is left as it was."""
        legacy = sqlite3.connect(str(tmp_path / "results.sqlite3"))
        for statement in _GENERATION_1_SCHEMA:
            legacy.execute(statement)
        legacy.execute(
            "INSERT INTO benchmark_runs (benchmark, recorded_at, values_json)"
            " VALUES ('bench_demo', 100.0, '{\"wall\": 1.0}')"
        )
        legacy.execute("PRAGMA user_version=1")
        legacy.commit()
        legacy.close()

        store = IndexedResultStore(tmp_path)
        first, second = _spec(1), _spec(2)
        store.put(first, _history(1))
        store.put(second, _history(2))
        assert [row["key"] for row in store.db.query(seed=2)] == [second.key]
        assert store.db.counts() == {"trials": 2, "iterations": 4}
        assert store.reindex() == 2
        assert store.db.counts() == {"trials": 2, "iterations": 4}
        store.db.close()

        reopened = sqlite3.connect(str(tmp_path / "results.sqlite3"))
        try:
            assert reopened.execute(
                "SELECT benchmark, values_json FROM benchmark_runs"
            ).fetchall() == [("bench_demo", '{"wall": 1.0}')]
            assert reopened.execute("PRAGMA user_version").fetchone() == (2,)
        finally:
            reopened.close()

    def test_has_key_binds_the_key_as_a_parameter(self, tmp_path):
        store = IndexedResultStore(tmp_path)
        spec = _spec()
        store.put(spec, _history())

        assert store.db.has_key(spec.key)
        # Spliced into the SQL text, the first probe would match every row
        # and the second would end the statement early.
        assert not store.db.has_key("x' OR '1'='1")
        assert not store.db.has_key("'; DELETE FROM trials; --")
        assert [row["key"] for row in store.db.query()] == [spec.key]

    def test_db_file_lives_inside_the_cache_root(self, tmp_path):
        store = IndexedResultStore(tmp_path)
        store.put(_spec(), _history())
        assert (tmp_path / "results.sqlite3").exists()


class TestEngineByteIdentity:
    def test_engine_blobs_are_plain_blob_bytes_and_all_indexed(self, tmp_path):
        """Indexing is pure observability: the engine's store must change
        neither results nor a single blob byte, and must index every blob."""
        protocol = EvaluationProtocol(
            n_iterations=2, eval_every=1, n_seeds=2, dataset_scale=0.15
        )
        jobs = [GridJob(key="u", framework="uncertainty", dataset="youtube")]
        cache_dir = tmp_path / "engine"
        cached = run_experiment_grid(
            jobs, protocol, ExecutionConfig(workers=1, cache_dir=cache_dir)
        )
        uncached = run_experiment_grid(
            jobs, protocol, ExecutionConfig(workers=1, cache_dir=None)
        )
        assert pickle.dumps(cached["u"].histories) == pickle.dumps(
            uncached["u"].histories
        )

        # Every engine blob is exactly what a plain blob put of the same
        # history writes, and there is no other blob.
        specs = [spec for _, spec in expand_jobs(jobs, protocol)]
        reference = ResultCache(tmp_path / "reference")
        engine_blobs = ResultCache(cache_dir)
        for spec, history in zip(specs, uncached["u"].histories):
            assert (
                engine_blobs.path_for(spec).read_bytes()
                == reference.put(spec, history).read_bytes()
            )
        assert len(engine_blobs) == len(specs) == 2

        db = RunHistoryDB(cache_dir)
        assert sorted(row["key"] for row in db.query()) == sorted(
            spec.key for spec in specs
        )
        db.close()
