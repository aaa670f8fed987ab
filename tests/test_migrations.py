"""The simulated database and the South-style migration engine."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.django import (
    APPLIED_TABLE,
    Migration,
    MigrationEngine,
    MigrationError,
    Operation,
    SimDatabase,
    migrations_from_json,
    migrations_to_json,
)
from repro.sim import VirtualFilesystem


@pytest.fixture
def db():
    return SimDatabase(VirtualFilesystem(), "/var/lib/mysql/app.json")


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)
)
TABLES = st.dictionaries(
    st.text(max_size=8),
    st.fixed_dictionaries({
        "columns": st.lists(st.text(max_size=6), max_size=4),
        "rows": st.lists(
            st.dictionaries(st.text(max_size=6), SCALARS, max_size=4),
            max_size=3,
        ),
    }),
    max_size=4,
)
NESTED = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=12,
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tables=TABLES, extra=NESTED)
def test_store_writes_the_sorted_indented_dump(tables, extra):
    """The database file is byte-for-byte the key-sorted ``json.dumps``
    it always was, however the tables and their values nest."""
    fs = VirtualFilesystem()
    db = SimDatabase(fs, "/db.json")
    data = {"tables": tables, "extra": extra}
    db._store(data)
    assert fs.read_file("/db.json") == json.dumps(
        data, indent=1, sort_keys=True
    )


class TestSimDatabase:
    def test_create_and_insert(self, db):
        db.create_table("users", ["id", "name"])
        db.insert("users", {"id": 1, "name": "ada"})
        assert db.rows("users") == [{"id": 1, "name": "ada"}]
        assert db.count("users") == 1

    def test_missing_columns_default_none(self, db):
        db.create_table("users", ["id", "name"])
        db.insert("users", {"id": 2})
        assert db.rows("users") == [{"id": 2, "name": None}]

    def test_unknown_columns_rejected(self, db):
        db.create_table("users", ["id"])
        with pytest.raises(MigrationError):
            db.insert("users", {"ghost": 1})

    def test_duplicate_table_rejected(self, db):
        db.create_table("t", ["a"])
        with pytest.raises(MigrationError):
            db.create_table("t", ["a"])

    def test_add_column_backfills(self, db):
        db.create_table("t", ["a"])
        db.insert("t", {"a": 1})
        db.add_column("t", "b", default="x")
        assert db.rows("t") == [{"a": 1, "b": "x"}]
        assert db.columns("t") == ["a", "b"]

    def test_add_existing_column_rejected(self, db):
        db.create_table("t", ["a"])
        with pytest.raises(MigrationError):
            db.add_column("t", "a")

    def test_drop_table(self, db):
        db.create_table("t", ["a"])
        db.drop_table("t")
        assert db.tables() == []
        with pytest.raises(MigrationError):
            db.rows("t")

    def test_operations_on_missing_table(self, db):
        for call in (
            lambda: db.insert("ghost", {}),
            lambda: db.rows("ghost"),
            lambda: db.columns("ghost"),
            lambda: db.add_column("ghost", "c"),
            lambda: db.drop_table("ghost"),
        ):
            with pytest.raises(MigrationError):
                call()

    def test_persistence_across_handles(self):
        fs = VirtualFilesystem()
        first = SimDatabase(fs, "/data/app.json")
        first.create_table("t", ["a"])
        first.insert("t", {"a": 1})
        second = SimDatabase(fs, "/data/app.json")
        assert second.rows("t") == [{"a": 1}]


class TestOperations:
    def test_json_roundtrip(self):
        migration = Migration(
            "0001_initial",
            (
                Operation("create_table", table="t", columns=("a", "b")),
                Operation("insert", table="t", row={"a": 1, "b": 2}),
                Operation("add_column", table="t", column="c", default=0),
            ),
        )
        text = migrations_to_json([migration])
        again = migrations_from_json(text)
        assert again == [migration]

    def test_unknown_op_rejected(self, db):
        with pytest.raises(MigrationError):
            Operation("truncate", table="t").apply(db)

    def test_fail_op(self, db):
        with pytest.raises(MigrationError, match="boom"):
            Operation("fail", message="boom").apply(db)


class TestMigrationEngine:
    def simple_migrations(self):
        return [
            Migration(
                "0001_initial",
                (Operation("create_table", table="t", columns=("a",)),),
            ),
            Migration(
                "0002_add_b",
                (Operation("add_column", table="t", column="b",
                           default="d"),),
            ),
        ]

    def test_applies_in_order(self, db):
        engine = MigrationEngine(db)
        applied = engine.migrate(self.simple_migrations())
        assert applied == ["0001_initial", "0002_add_b"]
        assert db.columns("t") == ["a", "b"]
        assert engine.applied() == ["0001_initial", "0002_add_b"]

    def test_idempotent(self, db):
        engine = MigrationEngine(db)
        engine.migrate(self.simple_migrations())
        assert engine.migrate(self.simple_migrations()) == []

    def test_incremental(self, db):
        engine = MigrationEngine(db)
        migrations = self.simple_migrations()
        engine.migrate(migrations[:1])
        db.insert("t", {"a": 1})
        applied = engine.migrate(migrations)
        assert applied == ["0002_add_b"]
        assert db.rows("t") == [{"a": 1, "b": "d"}]

    def test_failure_stops_midway(self, db):
        engine = MigrationEngine(db)
        migrations = self.simple_migrations() + [
            Migration("0003_bad", (Operation("fail", message="nope"),)),
        ]
        with pytest.raises(MigrationError):
            engine.migrate(migrations)
        # First two applied and recorded; the failed one is not.
        assert engine.applied() == ["0001_initial", "0002_add_b"]

    def test_applied_empty_on_fresh_db(self, db):
        assert MigrationEngine(db).applied() == []
