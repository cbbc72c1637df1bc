"""Reporters: render a :class:`~repro.lint.model.LintReport`.

Two formats:

- ``text`` — one ``file:line:col: rule-id: message [severity]`` line per
  violation plus a summary line; the format greppable reviewers expect.
- ``json`` — a stable machine-readable document for CI annotation
  tooling.  Since ``schema_version`` 2 the document also carries a
  ``rules`` table — id, default severity and category of every
  registered rule — so consumers can group and colour findings without
  importing the linter.

JSON schema (version 2)::

    {
      "schema_version": 2,
      "rules": [{"id": ..., "severity": ..., "category": ...}, ...],
      "violations": [{"path", "line", "col", "rule", "severity",
                      "message"}, ...],
      "summary": {"files_checked", "errors", "warnings", "suppressed",
                  "baselined", "ok"}
    }
"""

from __future__ import annotations

from repro.lint.model import LintReport
from repro.lint.registry import all_rules

__all__ = ["render_text", "render_json", "render", "FORMATS", "SCHEMA_VERSION"]

FORMATS = ("text", "json")

#: Version of the JSON report document.  2 added ``schema_version``
#: itself, the ``rules`` metadata table and ``summary.baselined``.
SCHEMA_VERSION = 2


# repro: deterministic
def render_text(report: LintReport) -> str:
    """Human-readable report."""
    lines = [v.format() for v in report.violations]
    summary = (
        f"checked {report.files_checked} file(s): "
        f"{report.error_count} error(s), "
        f"{report.warning_count} warning(s)"
    )
    if report.suppressed_count:
        summary += f", {report.suppressed_count} suppressed"
    if report.baselined_count:
        summary += f", {report.baselined_count} baselined"
    lines.append(summary)
    return "\n".join(lines)


# repro: deterministic
def render_json(report: LintReport) -> str:
    """Machine-readable report (stable key order, 2-space indent)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "rules": [
            {
                "id": cls.rule_id,
                "severity": cls.severity.value,
                "category": cls.category,
            }
            for cls in all_rules()
        ],
        "violations": [v.to_dict() for v in report.violations],
        "summary": {
            "files_checked": report.files_checked,
            "errors": report.error_count,
            "warnings": report.warning_count,
            "suppressed": report.suppressed_count,
            "baselined": report.baselined_count,
            "ok": report.ok,
        },
    }
    # imported here: the linter's own modules stay pure-stdlib
    from repro.core.persistence import canonical_json

    return canonical_json(doc).rstrip("\n")


def render(report: LintReport, fmt: str) -> str:
    """Render in the named format.

    Raises:
        ValueError: for an unknown format name.
    """
    if fmt == "text":
        return render_text(report)
    if fmt == "json":
        return render_json(report)
    raise ValueError(
        f"unknown format {fmt!r}; expected one of {', '.join(FORMATS)}"
    )
