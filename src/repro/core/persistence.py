"""XML persistence of models, invariants and signatures.

The paper stores each artifact in XML with fixed tuple schemas:

- the ARIMA performance model as the five-tuple ``(p, d, q, ip, type)``
  (§3.2) — we additionally persist the fitted coefficients and the
  calibrated threshold so a stored model is actually usable;
- the invariants as the three-tuple ``(I, ip, type)`` with ``I`` in matrix
  form (§3.3);
- each signature as the four-tuple ``(binary tuple, problem name, ip,
  workload type)`` (§3.3).

:mod:`xml.etree.ElementTree` is used throughout; files round-trip exactly.

It also holds what every durable directory shares: :func:`canonical_json`
and the manifest commit point of DESIGN.md §9.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import xml.etree.ElementTree as ET
from collections.abc import Iterator
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.anomaly import DriftThreshold, ThresholdRule
from repro.core.context import OperationContext
from repro.core.invariants import InvariantSet
from repro.core.signatures import SignatureDatabase
from repro.stats.arima import ARIMAModel, ARIMAOrder
from repro.telemetry.metrics import MetricCatalog

__all__ = [
    "MANIFEST_NAME",
    "atomic_write_text",
    "canonical_json",
    "begin_commit",
    "commit_manifest",
    "read_manifest",
    "committed_dirs",
    "save_performance_model",
    "load_performance_model",
    "save_invariants",
    "load_invariants",
    "save_signatures",
    "load_signatures",
]


def _fmt_floats(values: np.ndarray | list[float]) -> str:
    return " ".join(repr(float(v)) for v in values)


def _parse_floats(text: str | None) -> np.ndarray:
    if not text or not text.strip():
        return np.empty(0)
    return np.asarray([float(tok) for tok in text.split()], dtype=float)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Crash-safe text write: temp file in the target directory, fsync,
    then ``os.replace``.

    A killed process can never leave a torn artifact at ``path``: readers
    see either the previous complete file or the new one.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent or Path("."), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def canonical_json(obj: Any) -> str:
    """The repository's one JSON text form: 2-space indent, sorted keys,
    trailing newline — equal content always renders to equal bytes."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# the commit point: artifacts first, manifest last
# ----------------------------------------------------------------------
#: The commit point of every durable directory.
MANIFEST_NAME = "manifest.json"


def begin_commit(directory: str | Path) -> None:
    """Start a commit attempt in an empty ``directory``, clearing what it
    holds: an aborted attempt, or a committed one being overwritten."""
    shutil.rmtree(directory, ignore_errors=True)
    Path(directory).mkdir(parents=True)


def commit_manifest(directory: str | Path, manifest: dict[str, Any]) -> Path:
    """Publish ``manifest.json`` — written last, atomically — which
    makes every artifact written before it visible to readers."""
    path = Path(directory) / MANIFEST_NAME
    atomic_write_text(path, canonical_json(manifest))
    return path


def read_manifest(directory: str | Path) -> dict[str, Any] | None:
    """The committed manifest of ``directory``, or None when it has none.

    Raises:
        ValueError: the manifest exists but cannot be read as a JSON
            object (the atomic commit makes this external corruption).
    """
    path = Path(directory) / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, NotADirectoryError):
        return None
    except (OSError, ValueError) as exc:
        raise ValueError(
            f"corrupt or unreadable manifest {path}: {exc}"
        ) from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"{path} is not a manifest object")
    return manifest


def committed_dirs(root: str | Path) -> Iterator[tuple[Path, dict[str, Any]]]:
    """``(directory, manifest)`` for each committed subdirectory of
    ``root``, in sorted order; aborted attempts are skipped and a
    missing root yields nothing."""
    root = Path(root)
    if not root.is_dir():
        return
    for directory in sorted(p for p in root.iterdir() if p.is_dir()):
        manifest = read_manifest(directory)
        if manifest is not None:
            yield directory, manifest


def _write(root: ET.Element, path: str | Path) -> None:
    tree = ET.ElementTree(root)
    ET.indent(tree)
    atomic_write_text(
        path,
        ET.tostring(root, encoding="unicode", xml_declaration=True) + "\n",
    )


# ----------------------------------------------------------------------
# performance model: (p, d, q, ip, type)
# ----------------------------------------------------------------------
# repro: deterministic
def save_performance_model(
    model: ARIMAModel,
    threshold: DriftThreshold,
    context: OperationContext,
    path: str | Path,
) -> None:
    """Persist a trained ARIMA performance model.

    Args:
        model: the fitted model.
        threshold: the calibrated drift threshold.
        context: the operation context the model belongs to.
        path: output XML file.
    """
    root = ET.Element("performance-model")
    five = ET.SubElement(root, "five-tuple")
    five.set("p", str(model.order.p))
    five.set("d", str(model.order.d))
    five.set("q", str(model.order.q))
    five.set("ip", context.ip)
    five.set("type", context.workload)
    params = ET.SubElement(root, "parameters")
    ET.SubElement(params, "ar").text = _fmt_floats(model.ar)
    ET.SubElement(params, "ma").text = _fmt_floats(model.ma)
    ET.SubElement(params, "intercept").text = repr(model.intercept)
    ET.SubElement(params, "sigma2").text = repr(model.sigma2)
    thr = ET.SubElement(root, "threshold")
    thr.set("rule", threshold.rule.value)
    thr.set("upper", repr(threshold.upper))
    thr.set("lower", repr(threshold.lower))
    node = ET.SubElement(root, "node")
    node.set("id", context.node_id)
    _write(root, path)


def load_performance_model(
    path: str | Path,
) -> tuple[ARIMAModel, DriftThreshold, OperationContext]:
    """Load a performance model saved by :func:`save_performance_model`.

    Returns:
        ``(model, threshold, context)``.
    """
    root = ET.parse(path).getroot()
    five = root.find("five-tuple")
    params = root.find("parameters")
    thr = root.find("threshold")
    node = root.find("node")
    if five is None or params is None or thr is None or node is None:
        raise ValueError(f"{path} is not a performance-model file")
    order = ARIMAOrder(
        int(five.get("p", "0")), int(five.get("d", "0")), int(five.get("q", "0"))
    )
    ar_el = params.find("ar")
    ma_el = params.find("ma")
    intercept_el = params.find("intercept")
    sigma2_el = params.find("sigma2")
    if intercept_el is None or sigma2_el is None:
        raise ValueError(f"{path} is missing model parameters")
    model = ARIMAModel(
        order=order,
        ar=_parse_floats(ar_el.text if ar_el is not None else ""),
        ma=_parse_floats(ma_el.text if ma_el is not None else ""),
        intercept=float(intercept_el.text or 0.0),
        sigma2=float(sigma2_el.text or 0.0),
    )
    threshold = DriftThreshold(
        rule=ThresholdRule(thr.get("rule", "beta-max")),
        upper=float(thr.get("upper", "0")),
        lower=float(thr.get("lower", "0")),
    )
    context = OperationContext(
        workload=five.get("type", ""),
        node_id=node.get("id", ""),
        ip=five.get("ip", ""),
    )
    return model, threshold, context


# ----------------------------------------------------------------------
# invariants: (I, ip, type)
# ----------------------------------------------------------------------
# repro: deterministic
def save_invariants(
    invariants: InvariantSet,
    context: OperationContext,
    path: str | Path,
) -> None:
    """Persist an invariant set as the three-tuple ``(I, ip, type)``.

    ``I`` is stored in matrix form as the paper states: the full (M, M)
    matrix with NaN for non-invariant pairs.
    """
    m = len(invariants.catalog)
    matrix = np.full((m, m), np.nan)
    for (i, j), value in zip(invariants.pairs, invariants.baseline):
        matrix[i, j] = value
        matrix[j, i] = value
    root = ET.Element("invariants")
    root.set("ip", context.ip)
    root.set("type", context.workload)
    root.set("node", context.node_id)
    metrics = ET.SubElement(root, "metrics")
    metrics.text = " ".join(invariants.catalog.names)
    mat = ET.SubElement(root, "matrix")
    mat.set("size", str(m))
    for i in range(m):
        row = ET.SubElement(mat, "row")
        row.set("index", str(i))
        row.text = _fmt_floats(matrix[i])
    _write(root, path)


def load_invariants(
    path: str | Path,
) -> tuple[InvariantSet, OperationContext]:
    """Load an invariant set saved by :func:`save_invariants`."""
    root = ET.parse(path).getroot()
    metrics_el = root.find("metrics")
    mat_el = root.find("matrix")
    if metrics_el is None or mat_el is None or not metrics_el.text:
        raise ValueError(f"{path} is not an invariants file")
    catalog = MetricCatalog(names=tuple(metrics_el.text.split()))
    m = int(mat_el.get("size", "0"))
    matrix = np.full((m, m), np.nan)
    seen: set[int] = set()
    for row in mat_el.findall("row"):
        index_attr = row.get("index")
        if index_attr is None:
            raise ValueError(f"{path}: <row> is missing its index attribute")
        try:
            i = int(index_attr)
        except ValueError:
            raise ValueError(
                f"{path}: <row> has non-integer index {index_attr!r}"
            ) from None
        if not 0 <= i < m:
            raise ValueError(
                f"{path}: <row> index {i} outside matrix of size {m}"
            )
        if i in seen:
            raise ValueError(f"{path}: duplicate <row> index {i}")
        seen.add(i)
        values = _parse_floats(row.text)
        if values.size != m:
            raise ValueError(
                f"{path}: <row> {i} has {values.size} values, expected {m}"
            )
        matrix[i] = values
    pairs: list[tuple[int, int]] = []
    baseline: list[float] = []
    for i in range(m):
        for j in range(i + 1, m):
            if not np.isnan(matrix[i, j]):
                pairs.append((i, j))
                baseline.append(float(matrix[i, j]))
    invariants = InvariantSet(
        pairs=pairs, baseline=np.asarray(baseline), catalog=catalog
    )
    context = OperationContext(
        workload=root.get("type", ""),
        node_id=root.get("node", ""),
        ip=root.get("ip", ""),
    )
    return invariants, context


# ----------------------------------------------------------------------
# signatures: (binary tuple, problem name, ip, workload type)
# ----------------------------------------------------------------------
# repro: deterministic
def save_signatures(db: SignatureDatabase, path: str | Path) -> None:
    """Persist a signature database."""
    root = ET.Element("signature-database")
    for sig in db.signatures:
        el = ET.SubElement(root, "signature")
        el.set("problem", sig.problem)
        el.set("ip", sig.ip)
        el.set("type", sig.workload)
        el.text = "".join("1" if v else "0" for v in sig.violations)
    _write(root, path)


def load_signatures(path: str | Path) -> SignatureDatabase:
    """Load a signature database saved by :func:`save_signatures`."""
    root = ET.parse(path).getroot()
    if root.tag != "signature-database":
        raise ValueError(f"{path} is not a signature-database file")
    db = SignatureDatabase()
    for el in root.findall("signature"):
        bits = el.text or ""
        db.add(
            np.asarray([c == "1" for c in bits], dtype=bool),
            problem=el.get("problem", ""),
            ip=el.get("ip", ""),
            workload=el.get("type", ""),
        )
    return db
