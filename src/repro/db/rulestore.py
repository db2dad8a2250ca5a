"""The ``qos_rules`` table API (paper §II-D, §III-D).

"The QoS rules table includes four columns - the QoS key, the refill rate,
the capacity of the leaky bucket, and the remaining credit in the bucket."
:class:`RuleStore` wraps a :class:`~repro.db.database.Database` (or a
:class:`~repro.db.replication.ReplicatedDatabase`, whose reads go to the
current master) and implements the
:class:`~repro.core.admission.RuleSource` protocol the QoS servers
consume, plus the provider-side admin CRUD and the full-table warm-up scan
(``SELECT * FROM qos_rules``) the paper issues at startup.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Union

from repro.core.rules import QoSRule
from repro.db.database import Database
from repro.db.replication import ReplicatedDatabase

__all__ = ["RuleStore", "QOS_RULES_SCHEMA"]

TABLE = "qos_rules"

QOS_RULES_SCHEMA = (
    f"CREATE TABLE IF NOT EXISTS {TABLE} ("
    "qos_key TEXT PRIMARY KEY, "
    "refill_rate REAL NOT NULL, "
    "capacity REAL NOT NULL, "
    "credit REAL)"
)

_COLUMNS = "qos_key, refill_rate, capacity, credit"
_SELECT_ONE = f"SELECT {_COLUMNS} FROM {TABLE} WHERE qos_key = ?"
_SELECT_ALL = f"SELECT {_COLUMNS} FROM {TABLE}"
_UPSERT = (f"INSERT INTO {TABLE} ({_COLUMNS}) VALUES (?, ?, ?, ?) "
           "ON CONFLICT(qos_key) DO UPDATE SET refill_rate = excluded.refill_rate, "
           "capacity = excluded.capacity, credit = excluded.credit")
_CHECKPOINT = (f"UPDATE {TABLE} SET credit = v.column1 FROM (VALUES {{}}) AS v "
               "WHERE qos_key = v.column2")
_DELETE = f"DELETE FROM {TABLE} WHERE qos_key = ?"
_COUNT = f"SELECT COUNT(*) FROM {TABLE}"

#: Keys per statement in :meth:`RuleStore.get_rules` (a ``WHERE qos_key
#: IN (...)`` select) and :meth:`RuleStore.checkpoint` (an ``UPDATE ...
#: FROM (VALUES ...)``, which needs SQLite >= 3.33).  Both stay well under
#: SQLite's bound-parameter limit.  The checkpoint writes each batch in
#: one statement step rather than one step per row: ``sqlite3`` gives up
#: the interpreter lock at every step, and under load each step can wait
#: milliseconds to get it back while holding the write lock.
_CHUNK = 500


def _row_to_rule(row: tuple) -> QoSRule:
    key, refill_rate, capacity, credit = row
    if credit is not None:
        # A checkpoint written under an older, larger capacity must not
        # violate the rule invariant 0 <= credit <= capacity.
        credit = min(max(credit, 0.0), capacity)
    return QoSRule(key=key, refill_rate=refill_rate, capacity=capacity, credit=credit)


class RuleStore:
    """RuleSource over the relational substrate."""

    def __init__(self, db: Union[Database, ReplicatedDatabase, None] = None):
        self.db = db if db is not None else Database(name="qos-db")
        self.db.execute(QOS_RULES_SCHEMA)

    # ------------------------------------------------------------------ #
    # RuleSource protocol (QoS-server side)
    # ------------------------------------------------------------------ #

    def get_rule(self, key: str) -> Optional[QoSRule]:
        """Point lookup by primary key — the lazy-fetch path (§II-D)."""
        row = self.db.execute(_SELECT_ONE, (key,)).first()
        return None if row is None else _row_to_rule(row)

    def get_rules(self, keys: Iterable[str]) -> Mapping[str, QoSRule]:
        """Batch lookup used by the sync loop.

        The paper's servers query "with the QoS keys in the local QoS rule
        table"; we issue one primary-key ``IN (...)`` select per chunk of
        keys.
        """
        keys = list(keys)
        rules: Dict[str, QoSRule] = {}
        for i in range(0, len(keys), _CHUNK):
            chunk = keys[i:i + _CHUNK]
            marks = ", ".join("?" * len(chunk))
            result = self.db.execute(f"{_SELECT_ALL} WHERE qos_key IN ({marks})", chunk)
            for row in result:
                rules[row[0]] = _row_to_rule(row)
        return rules

    def checkpoint(self, credits: Mapping[str, float]) -> None:
        """Write current credits back (crash-recovery seed, §II-D)."""
        rows = [(float(credit), key) for key, credit in credits.items()]
        for i in range(0, len(rows), _CHUNK):
            chunk = rows[i:i + _CHUNK]
            self.db.execute(_CHECKPOINT.format(", ".join(["(?, ?)"] * len(chunk))),
                            [value for row in chunk for value in row])

    # ------------------------------------------------------------------ #
    # provider-side admin API
    # ------------------------------------------------------------------ #

    def put_rule(self, rule: QoSRule) -> None:
        """Insert or update a rule (the provider selling/altering a plan)."""
        self.db.execute(
            _UPSERT, (rule.key, rule.refill_rate, rule.capacity, rule.credit))

    def delete_rule(self, key: str) -> bool:
        """Remove a rule; the key falls back to the default rule on sync."""
        return self.db.execute(_DELETE, (key,)).rowcount > 0

    def load_all(self) -> Dict[str, QoSRule]:
        """The warm-up full scan: ``SELECT * FROM qos_rules`` (§III-D)."""
        return {row[0]: _row_to_rule(row) for row in self.db.execute(_SELECT_ALL)}

    def count(self) -> int:
        return int(self.db.execute(_COUNT).scalar())
