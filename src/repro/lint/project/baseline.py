"""Grandfathered findings: the ``lint-baseline.json`` file.

A committed baseline lets CI fail on *new* deep violations only: every
finding whose key appears in the baseline is filtered out of the report
(counted, not shown), so adopting the analyzer never requires fixing the
whole backlog at once — while any regression is a hard failure.

Keys deliberately exclude line numbers and columns: a baselined finding
that merely *moves* (code above it edited) stays baselined, one whose
message changes (different chain, different lock) resurfaces.  The file
is sorted and newline-terminated so diffs stay one-line-per-finding.

Workflow::

    invarnetx lint --deep --write-baseline   # (re)generate, then commit
    invarnetx lint --deep                    # fails only on new findings
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint.model import Violation

__all__ = [
    "BASELINE_FORMAT",
    "Baseline",
    "baseline_key",
    "load_baseline",
    "write_baseline",
]

#: Schema version of the baseline document.
BASELINE_FORMAT = 1


def baseline_key(violation: Violation) -> tuple[str, str, str]:
    """The identity a finding is grandfathered under."""
    return (violation.path, violation.rule_id, violation.message)


class Baseline:
    """An in-memory baseline with match accounting."""

    def __init__(self, entries: set[tuple[str, str, str]] | None = None):
        self.entries = entries or set()
        self.matched: set[tuple[str, str, str]] = set()

    def __len__(self) -> int:
        return len(self.entries)

    def accepts(self, violation: Violation) -> bool:
        """True when ``violation`` is grandfathered (and record the hit)."""
        key = baseline_key(violation)
        if key in self.entries:
            self.matched.add(key)
            return True
        return False

    @property
    def stale(self) -> list[tuple[str, str, str]]:
        """Baseline entries no current finding matched — candidates for
        removal, sorted for stable output."""
        return sorted(self.entries - self.matched)


class BaselineError(ValueError):
    """A malformed baseline file."""


def load_baseline(path: str | Path) -> Baseline:
    """Read a baseline file; a missing file is an empty baseline.

    Raises:
        BaselineError: on unparseable JSON or a wrong shape.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return Baseline()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise BaselineError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(
        doc.get("entries"), list
    ):
        raise BaselineError(
            f"{path}: expected an object with an 'entries' list"
        )
    entries: set[tuple[str, str, str]] = set()
    for item in doc["entries"]:
        if (
            not isinstance(item, dict)
            or not isinstance(item.get("path"), str)
            or not isinstance(item.get("rule"), str)
            or not isinstance(item.get("message"), str)
        ):
            raise BaselineError(
                f"{path}: every entry needs string "
                "'path', 'rule' and 'message' fields"
            )
        entries.add((item["path"], item["rule"], item["message"]))
    return Baseline(entries)


def write_baseline(
    path: str | Path, violations: list[Violation]
) -> int:
    """Write the baseline for ``violations``; returns the entry count."""
    keys = sorted({baseline_key(v) for v in violations})
    doc = {
        "format": BASELINE_FORMAT,
        "entries": [
            {"path": p, "rule": r, "message": m} for p, r, m in keys
        ],
    }
    # imported here: the linter's own modules stay pure-stdlib
    from repro.core.persistence import atomic_write_text, canonical_json

    atomic_write_text(path, canonical_json(doc))
    return len(keys)
