"""One SQLite database shared by threads (the paper's RDS MySQL stand-in).

The paper keeps its rules in a relational database (§II-D, §III-D) and
needs only a warm-up scan, point lookups, a periodic sync and a credit
checkpoint.  The standard library's :mod:`sqlite3` serves all of them.
:class:`Database` holds one connection in autocommit mode, shared by
QoS-server worker threads.  Every write runs under one lock.  A read runs
under it too unless the SQLite library is built in serialized threading
mode (the common build), which guards the connection itself.  ``sqlite3``
gives up the interpreter lock at every step of a statement, so under load
a statement can wait milliseconds per row; lock-free reads keep a QoS
server's lazy rule fetch from queueing behind a long maintenance pass.

``Database()`` lives in memory.  ``Database(path)`` keeps its tables in a
file and survives process restarts: reopening the path reopens the data.
"""

from __future__ import annotations

import sqlite3
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ContextManager, Optional, Sequence, Union

from repro.core.errors import SQLError

__all__ = ["Database", "ResultSet"]


def is_read(sql: str) -> bool:
    """True for a statement that changes nothing (a ``SELECT``)."""
    return sql.lstrip()[:6].upper() == "SELECT"


@dataclass(slots=True)
class ResultSet:
    """Result of one statement: column names, rows, affected-row count."""

    columns: list[str]
    rows: list[tuple]
    rowcount: int = 0

    def first(self) -> Optional[tuple]:
        return self.rows[0] if self.rows else None

    def scalar(self) -> Any:
        row = self.first()
        if row is None:
            return None
        return row[0]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class Database:
    """One ``sqlite3`` connection shared by threads; writes take one lock."""

    def __init__(self, path: Union[str, Path] = ":memory:", *,
                 name: Optional[str] = None):
        self.name = name or str(path)
        self._conn = sqlite3.connect(path, check_same_thread=False,
                                     isolation_level=None)
        self._lock = threading.Lock()
        serialized = ("THREADSAFE=1",) in self._conn.execute(
            "PRAGMA compile_options").fetchall()
        self._read_lock: ContextManager[Any] = (
            nullcontext() if serialized else self._lock)

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Run one statement (autocommit) and fetch its rows."""
        with self._read_lock if is_read(sql) else self._lock:
            try:
                cursor = self._conn.execute(sql, params)
                rows = cursor.fetchall()
            except sqlite3.Error as exc:
                raise SQLError(f"{exc} [{sql}]") from exc
        columns = [d[0] for d in cursor.description or ()]
        return ResultSet(columns, rows, max(cursor.rowcount, 0))

    def copy_to(self, target: "Database") -> None:
        """Overwrite ``target`` with a consistent copy of this database."""
        with self._lock, target._lock:
            self._conn.backup(target._conn)

    def close(self) -> None:
        with self._lock:
            self._conn.close()
