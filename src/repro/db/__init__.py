"""Relational database substrate (the paper's RDS MySQL stand-in).

One stdlib :mod:`sqlite3` connection per database
(:class:`~repro.db.database.Database`, in memory or file-backed), the
``qos_rules`` table API (:class:`~repro.db.rulestore.RuleStore`, which
implements :class:`~repro.core.admission.RuleSource`), and Multi-AZ
master/standby replication
(:class:`~repro.db.replication.ReplicatedDatabase`).
"""

from repro.db.database import Database, ResultSet
from repro.db.replication import ReplicatedDatabase
from repro.db.rulestore import QOS_RULES_SCHEMA, RuleStore

__all__ = [
    "Database",
    "QOS_RULES_SCHEMA",
    "ReplicatedDatabase",
    "ResultSet",
    "RuleStore",
]
