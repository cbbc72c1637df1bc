"""The cross-run SQLite index (stdlib ``sqlite3``).

Three tables mirror the manifest payloads so accuracy trajectories are
queryable over time without touching the run directories:

- ``runs`` — one row per committed campaign run;
- ``measurements`` — one row per run × system × repetition (the
  ``run_table.csv`` rows);
- ``fault_scores`` — per-fault precision/recall under each measurement.

The index is a *cache over the manifests*: every commit upserts its run
(``INSERT .. ON CONFLICT DO UPDATE`` on ``runs``, delete-and-insert for
the child rows, one transaction), and :meth:`RunIndex.rebuild` recreates
the whole database from ``runs/*/manifest.json`` alone — deleting
``index.sqlite`` loses nothing.  :meth:`RunIndex.dump` renders the full
logical content in a canonical byte-stable form so rebuilds can be
checked for bit-identity.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Any, Iterator

from repro.core.persistence import canonical_json

__all__ = ["INDEX_FORMAT", "INDEX_NAME", "RunIndex"]

#: Conventional index filename inside a campaign registry root.
INDEX_NAME = "index.sqlite"

#: Schema version, stored in ``PRAGMA user_version``.
INDEX_FORMAT = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id           TEXT PRIMARY KEY,
    spec_name        TEXT NOT NULL,
    spec_fingerprint TEXT NOT NULL,
    workload         TEXT NOT NULL,
    node             TEXT NOT NULL,
    faults           TEXT NOT NULL,
    systems          TEXT NOT NULL,
    repetitions      INTEGER NOT NULL,
    test_reps        INTEGER NOT NULL,
    base_seed        INTEGER NOT NULL,
    created          REAL NOT NULL,
    status           TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS measurements (
    run_id            TEXT NOT NULL,
    system            TEXT NOT NULL,
    repetition        INTEGER NOT NULL,
    workload          TEXT NOT NULL,
    node              TEXT NOT NULL,
    outcomes          INTEGER NOT NULL,
    detected          INTEGER NOT NULL,
    tp                INTEGER NOT NULL,
    fp                INTEGER NOT NULL,
    fn                INTEGER NOT NULL,
    precision         REAL NOT NULL,
    recall            REAL NOT NULL,
    f1                REAL NOT NULL,
    train_seconds     REAL NOT NULL,
    signature_seconds REAL NOT NULL,
    diagnose_seconds  REAL NOT NULL,
    PRIMARY KEY (run_id, system, repetition)
);
CREATE TABLE IF NOT EXISTS fault_scores (
    run_id     TEXT NOT NULL,
    system     TEXT NOT NULL,
    repetition INTEGER NOT NULL,
    fault      TEXT NOT NULL,
    precision  REAL NOT NULL,
    recall     REAL NOT NULL,
    tp         INTEGER NOT NULL,
    fp         INTEGER NOT NULL,
    fn         INTEGER NOT NULL,
    PRIMARY KEY (run_id, system, repetition, fault)
);
"""

_MEASUREMENT_COLUMNS = (
    "run_id", "system", "repetition", "workload", "node", "outcomes",
    "detected", "tp", "fp", "fn", "precision", "recall", "f1",
    "train_seconds", "signature_seconds", "diagnose_seconds",
)

_FAULT_COLUMNS = (
    "run_id", "system", "repetition", "fault", "precision", "recall",
    "tp", "fp", "fn",
)


class RunIndex:
    """Queryable cross-run index over committed campaign manifests.

    Connections are opened per operation and always closed, so the index
    file is never held open across campaign executions and concurrent
    readers see committed state only.

    Args:
        path: the SQLite file (created on first use).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    # ------------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(self.path)
        conn.executescript(_SCHEMA)
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        if version == 0:
            conn.execute(f"PRAGMA user_version = {INDEX_FORMAT}")
        elif version != INDEX_FORMAT:
            conn.close()
            raise ValueError(
                f"{self.path} has index format {version}; this build "
                f"reads format {INDEX_FORMAT}"
            )
        return conn

    @staticmethod
    def _rows(cursor: sqlite3.Cursor) -> list[dict[str, Any]]:
        names = [d[0] for d in cursor.description]
        return [dict(zip(names, row)) for row in cursor.fetchall()]

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def upsert(self, manifest: dict[str, Any]) -> None:
        """Index one committed manifest (idempotent on re-ingest).

        The ``runs`` row is upserted in place; the measurement and
        per-fault child rows are replaced wholesale — all in one
        transaction, so a reader never sees a half-ingested run.
        """
        run_id = manifest["run_id"]
        spec = manifest["spec"]
        run_row = (
            run_id,
            spec["name"],
            manifest["spec_fingerprint"],
            spec["workload"],
            spec["node"],
            ",".join(spec["faults"]),
            ",".join(s["label"] for s in spec["systems"]),
            int(spec["repetitions"]),
            int(spec["test_reps"]),
            int(spec["base_seed"]),
            float(manifest["created"]),
            manifest["status"],
        )
        conn = self._connect()
        try:
            with conn:
                conn.execute(
                    "INSERT INTO runs VALUES "
                    "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?) "
                    "ON CONFLICT(run_id) DO UPDATE SET "
                    "spec_name=excluded.spec_name, "
                    "spec_fingerprint=excluded.spec_fingerprint, "
                    "workload=excluded.workload, node=excluded.node, "
                    "faults=excluded.faults, systems=excluded.systems, "
                    "repetitions=excluded.repetitions, "
                    "test_reps=excluded.test_reps, "
                    "base_seed=excluded.base_seed, "
                    "created=excluded.created, status=excluded.status",
                    run_row,
                )
                conn.execute(
                    "DELETE FROM measurements WHERE run_id = ?", (run_id,)
                )
                conn.execute(
                    "DELETE FROM fault_scores WHERE run_id = ?", (run_id,)
                )
                conn.executemany(
                    "INSERT INTO measurements VALUES "
                    "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    [
                        tuple(row[c] for c in _MEASUREMENT_COLUMNS)
                        for row in manifest["table"]
                    ],
                )
                conn.executemany(
                    "INSERT INTO fault_scores VALUES "
                    "(?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    [
                        tuple(row[c] for c in _FAULT_COLUMNS)
                        for row in manifest["fault_scores"]
                    ],
                )
        finally:
            conn.close()

    def rebuild(self, runs_root: str | Path) -> int:
        """Recreate the index from ``runs/*/manifest.json`` alone.

        Committed runs are ingested in sorted run-id order, so two
        rebuilds over the same directories produce bit-identical
        :meth:`dump` output regardless of original execution order.

        Returns:
            Number of committed runs indexed.
        """
        from repro.eval.registry.run import committed_manifests

        conn = self._connect()
        try:
            with conn:
                conn.execute("DELETE FROM fault_scores")
                conn.execute("DELETE FROM measurements")
                conn.execute("DELETE FROM runs")
        finally:
            conn.close()
        manifests = committed_manifests(runs_root)
        for manifest in manifests:
            self.upsert(manifest)
        return len(manifests)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def runs(self, spec_name: str | None = None) -> list[dict[str, Any]]:
        """Indexed runs, sorted by run id."""
        query = "SELECT * FROM runs"
        params: tuple = ()
        if spec_name is not None:
            query += " WHERE spec_name = ?"
            params = (spec_name,)
        query += " ORDER BY run_id"
        conn = self._connect()
        try:
            return self._rows(conn.execute(query, params))
        finally:
            conn.close()

    def measurements(
        self,
        system: str | None = None,
        spec_name: str | None = None,
    ) -> list[dict[str, Any]]:
        """Per-(run, system, repetition) rows, sorted, optionally filtered."""
        query = (
            "SELECT m.* FROM measurements m "
            "JOIN runs r ON r.run_id = m.run_id"
        )
        clauses, params = [], []
        if system is not None:
            clauses.append("m.system = ?")
            params.append(system)
        if spec_name is not None:
            clauses.append("r.spec_name = ?")
            params.append(spec_name)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY m.run_id, m.system, m.repetition"
        conn = self._connect()
        try:
            return self._rows(conn.execute(query, tuple(params)))
        finally:
            conn.close()

    def fault_scores(
        self,
        system: str | None = None,
        spec_name: str | None = None,
    ) -> list[dict[str, Any]]:
        """Per-fault score rows, sorted, optionally filtered."""
        query = (
            "SELECT f.* FROM fault_scores f "
            "JOIN runs r ON r.run_id = f.run_id"
        )
        clauses, params = [], []
        if system is not None:
            clauses.append("f.system = ?")
            params.append(system)
        if spec_name is not None:
            clauses.append("r.spec_name = ?")
            params.append(spec_name)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY f.run_id, f.system, f.repetition, f.fault"
        conn = self._connect()
        try:
            return self._rows(conn.execute(query, tuple(params)))
        finally:
            conn.close()

    def systems(self, spec_name: str | None = None) -> list[str]:
        """Distinct cohort labels present in the index, sorted."""
        return sorted(
            {m["system"] for m in self.measurements(spec_name=spec_name)}
        )

    # ------------------------------------------------------------------
    def dump(self) -> str:
        """Canonical byte-stable rendering of the full logical content.

        Every table's rows in primary-key order, JSON-encoded with
        sorted keys — two indexes with the same logical content dump
        identical bytes, whatever their row insertion order or SQLite
        page layout.
        """

        def ordered(rows: Iterator[dict[str, Any]]) -> list[dict[str, Any]]:
            return [dict(sorted(r.items())) for r in rows]

        payload = {
            "format": INDEX_FORMAT,
            "runs": ordered(self.runs()),
            "measurements": ordered(self.measurements()),
            "fault_scores": ordered(self.fault_scores()),
        }
        return canonical_json(payload)
