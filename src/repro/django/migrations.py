"""Schema migrations: the South substitute (S6.2).

"We use South, a database migration framework, in the Engage Django
driver to support application upgrades involving database schema
changes.  Using South, we were able to automatically upgrade from the old
version to the new version of the application, while preserving the
content in the database."

The simulated database is a JSON document on a machine's virtual
filesystem (one file per logical database), giving it exactly the
property the experiment needs: it survives package uninstall/reinstall
and is captured by machine snapshots, so upgrade rollback restores it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.core.errors import SimulationError
from repro.core.jsontext import indented
from repro.sim.filesystem import VirtualFilesystem

APPLIED_TABLE = "_applied_migrations"


class MigrationError(SimulationError):
    """A migration operation failed (possibly injected)."""


def _key_sorted(value: Any) -> Any:
    """``value`` with every dict's keys in sorted order, so that
    :func:`indented` writes what ``json.dumps(sort_keys=True)`` would."""
    if isinstance(value, dict):
        return {key: _key_sorted(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_key_sorted(item) for item in value]
    return value


class SimDatabase:
    """A toy relational store persisted as JSON in a virtual filesystem."""

    def __init__(self, fs: VirtualFilesystem, path: str) -> None:
        self._fs = fs
        self._path = path

    def _load(self) -> dict[str, Any]:
        if not self._fs.is_file(self._path):
            return {"tables": {}}
        return json.loads(self._fs.read_file(self._path))

    def _store(self, data: dict[str, Any]) -> None:
        self._fs.write_file(self._path, indented(_key_sorted(data), 1))

    # -- Schema ----------------------------------------------------------

    def create_table(self, name: str, columns: Sequence[str]) -> None:
        data = self._load()
        if name in data["tables"]:
            raise MigrationError(f"table already exists: {name}")
        data["tables"][name] = {"columns": list(columns), "rows": []}
        self._store(data)

    def drop_table(self, name: str) -> None:
        data = self._load()
        if name not in data["tables"]:
            raise MigrationError(f"no such table: {name}")
        del data["tables"][name]
        self._store(data)

    def add_column(self, table: str, column: str, default: Any = None) -> None:
        data = self._load()
        info = data["tables"].get(table)
        if info is None:
            raise MigrationError(f"no such table: {table}")
        if column in info["columns"]:
            raise MigrationError(f"column exists: {table}.{column}")
        info["columns"].append(column)
        for row in info["rows"]:
            row[column] = default
        self._store(data)

    def tables(self) -> list[str]:
        return sorted(self._load()["tables"])

    def columns(self, table: str) -> list[str]:
        info = self._load()["tables"].get(table)
        if info is None:
            raise MigrationError(f"no such table: {table}")
        return list(info["columns"])

    # -- Rows ------------------------------------------------------------

    def insert(self, table: str, row: dict[str, Any]) -> None:
        data = self._load()
        info = data["tables"].get(table)
        if info is None:
            raise MigrationError(f"no such table: {table}")
        unknown = set(row) - set(info["columns"])
        if unknown:
            raise MigrationError(f"unknown columns for {table}: {sorted(unknown)}")
        full_row = {c: row.get(c) for c in info["columns"]}
        info["rows"].append(full_row)
        self._store(data)

    def rows(self, table: str) -> list[dict[str, Any]]:
        info = self._load()["tables"].get(table)
        if info is None:
            raise MigrationError(f"no such table: {table}")
        return [dict(r) for r in info["rows"]]

    def count(self, table: str) -> int:
        return len(self.rows(table))


# ---------------------------------------------------------------------------
# Migration operations and engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Operation:
    """One schema operation, JSON-serialisable for app archives.

    ``op`` is one of ``create_table``, ``add_column``, ``drop_table``,
    ``insert``, or ``fail`` (failure injection for rollback tests).
    """

    op: str
    table: str = ""
    columns: tuple[str, ...] = ()
    column: str = ""
    default: Any = None
    row: Optional[dict[str, Any]] = None
    message: str = ""

    def apply(self, database: SimDatabase) -> None:
        if self.op == "create_table":
            database.create_table(self.table, self.columns)
        elif self.op == "add_column":
            database.add_column(self.table, self.column, self.default)
        elif self.op == "drop_table":
            database.drop_table(self.table)
        elif self.op == "insert":
            database.insert(self.table, self.row or {})
        elif self.op == "fail":
            raise MigrationError(self.message or "injected migration failure")
        else:
            raise MigrationError(f"unknown operation: {self.op!r}")

    def to_json(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "table": self.table,
            "columns": list(self.columns),
            "column": self.column,
            "default": self.default,
            "row": self.row,
            "message": self.message,
        }

    @staticmethod
    def from_json(data: dict[str, Any]) -> "Operation":
        return Operation(
            op=data["op"],
            table=data.get("table", ""),
            columns=tuple(data.get("columns") or ()),
            column=data.get("column", ""),
            default=data.get("default"),
            row=data.get("row"),
            message=data.get("message", ""),
        )


@dataclass(frozen=True)
class Migration:
    """A named, ordered list of operations (e.g. ``0001_initial``)."""

    name: str
    operations: tuple[Operation, ...]

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "operations": [op.to_json() for op in self.operations],
        }

    @staticmethod
    def from_json(data: dict[str, Any]) -> "Migration":
        return Migration(
            name=data["name"],
            operations=tuple(
                Operation.from_json(op) for op in data["operations"]
            ),
        )


def migrations_to_json(migrations: Sequence[Migration]) -> str:
    return indented([m.to_json() for m in migrations], 1)


def migrations_from_json(text: str) -> list[Migration]:
    return [Migration.from_json(m) for m in json.loads(text)]


class MigrationEngine:
    """Applies pending migrations in order, recording applied names in
    the database itself (like South's ``south_migrationhistory``)."""

    def __init__(self, database: SimDatabase) -> None:
        self._database = database

    def applied(self) -> list[str]:
        if APPLIED_TABLE not in self._database.tables():
            return []
        return [row["name"] for row in self._database.rows(APPLIED_TABLE)]

    def migrate(self, migrations: Sequence[Migration]) -> list[str]:
        """Apply every not-yet-applied migration; returns the names newly
        applied.  Raises :class:`MigrationError` on the first failure
        (already-applied work stays recorded -- rollback is the upgrade
        engine's job, via machine snapshots)."""
        if APPLIED_TABLE not in self._database.tables():
            self._database.create_table(APPLIED_TABLE, ["name"])
        already = set(self.applied())
        newly_applied: list[str] = []
        for migration in migrations:
            if migration.name in already:
                continue
            for operation in migration.operations:
                operation.apply(self._database)
            self._database.insert(APPLIED_TABLE, {"name": migration.name})
            newly_applied.append(migration.name)
        return newly_applied
