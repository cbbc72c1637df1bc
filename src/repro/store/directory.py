"""The durable on-disk model registry.

One subdirectory per operation context under ``<root>/contexts/``, holding
the context's artifacts in the paper's §3.2/§3.3 XML tuple formats (the
codecs of :mod:`repro.core.persistence` verbatim), indexed by a
``manifest.json`` at the root:

.. code-block:: text

    <root>/
      manifest.json                  # format version + per-context index
      contexts/
        wordcount@slave-1/
          model.xml                  # (p,d,q,ip,type) + coefficients
          invariants.xml             # (I,ip,type), matrix form
          signatures.xml             # (tuple, problem, ip, type) rows

Publishing follows the manifest commit point of DESIGN.md §9: the
artifacts are written first, each one atomically, and the root manifest
is rewritten last, carrying a per-context ``revision`` counter that
bumps on every publish.  Loading is lazy: attaching a pipeline to a
registry of thousands of contexts reads only the manifest; each context's
XML is parsed the first time :meth:`DirectoryStore.slot` needs it and
then stays resident.

Directory names quote the workload and node with ``urllib.parse.quote``
(``safe=""``), so any context key — including the ``*`` global-ablation
sentinel — maps to a portable path, and the literal ``@`` separator can
never collide with quoted content.
"""

from __future__ import annotations

import logging
import shutil
from collections.abc import Collection, Mapping
from pathlib import Path
from urllib.parse import quote, unquote

import repro.obs as obs
from repro.core.anomaly import AnomalyDetector
from repro.core.context import OperationContext
from repro.obs.ledger import LEDGER_NAME, RunLedger
from repro.core.persistence import (
    MANIFEST_NAME,
    commit_manifest,
    load_invariants,
    load_performance_model,
    load_signatures,
    read_manifest,
    save_invariants,
    save_performance_model,
    save_signatures,
)
from repro.store.base import ContextKey, ContextModels, ModelStore, StoreError

__all__ = ["DirectoryStore", "MANIFEST_NAME", "MANIFEST_FORMAT"]

_log = obs.get_logger("store.directory")

#: On-disk manifest schema version; bump on incompatible layout changes.
MANIFEST_FORMAT = 1


def artifact_files(stem: str = "") -> dict[str, str]:
    """File name per artifact kind (the manifest's ``artifacts``
    vocabulary): ``model.xml`` ..., or ``model_<stem>.xml`` ... when
    several contexts share one directory."""
    suffix = f"_{stem}" if stem else ""
    kinds = ("model", "invariants", "signatures")
    return {kind: f"{kind}{suffix}.xml" for kind in kinds}


_ARTIFACT_FILES = artifact_files()


def write_artifacts(
    models: ContextModels,
    context: OperationContext,
    directory: Path,
    names: Mapping[str, str],
) -> list[Path]:
    """Write the slot's artifacts (§3.2/§3.3 XML formats) into
    ``directory`` under ``names``; returns the paths written."""
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    present = models.artifacts()
    if "model" in present:
        detector = models.detector
        assert detector is not None and detector.model is not None
        assert detector.threshold is not None
        path = directory / names["model"]
        save_performance_model(
            detector.model, detector.threshold, context, path
        )
        written.append(path)
    if "invariants" in present:
        assert models.invariants is not None
        path = directory / names["invariants"]
        save_invariants(models.invariants, context, path)
        written.append(path)
    if "signatures" in present:
        path = directory / names["signatures"]
        save_signatures(models.database, path)
        written.append(path)
    return written


def read_artifacts(
    context: OperationContext,
    directory: Path,
    names: Mapping[str, str],
    kinds: Collection[str],
) -> ContextModels:
    """Rehydrate a slot from the ``kinds`` artifacts :func:`write_artifacts`
    put in ``directory``; a kind not listed stays unset."""
    models = ContextModels(context=context)
    if "model" in kinds:
        arima, threshold, _ = load_performance_model(
            directory / names["model"]
        )
        models.detector = AnomalyDetector.from_artifacts(arima, threshold)
    if "invariants" in kinds:
        models.invariants, _ = load_invariants(
            directory / names["invariants"]
        )
    if "signatures" in kinds:
        models.database = load_signatures(directory / names["signatures"])
    return models


def context_dirname(key: ContextKey) -> str:
    """Portable directory name for a context key."""
    workload, node_id = key
    return f"{quote(workload, safe='')}@{quote(node_id, safe='')}"


def parse_dirname(name: str) -> ContextKey:
    """Inverse of :func:`context_dirname`."""
    workload, sep, node_id = name.partition("@")
    if not sep:
        raise StoreError(f"malformed context directory name {name!r}")
    return (unquote(workload), unquote(node_id))


class DirectoryStore(ModelStore):
    """Versioned on-disk model registry with lazy loading.

    Args:
        root: registry directory (created on first publish).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._resident: dict[ContextKey, ContextModels] = {}
        self._manifest = self._read_manifest()
        self._ledger: RunLedger | None = None

    # ------------------------------------------------------------------
    # run ledger
    # ------------------------------------------------------------------
    @property
    def ledger_path(self) -> Path:
        """Where this registry's run ledger lives (may not exist yet)."""
        return self.root / LEDGER_NAME

    def ledger(self) -> RunLedger:
        """The run ledger colocated with this registry.

        The ledger is lazy — no file is created until the first append —
        and cached so every pipeline attached to this store shares one
        sequence counter.  Attaching a fresh pipeline to an existing
        registry therefore restores the models *and* the run history
        behind them.
        """
        if self._ledger is None:
            self._ledger = RunLedger(self.ledger_path)
        return self._ledger

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    def _read_manifest(self) -> dict:
        path = self.root / MANIFEST_NAME
        try:
            manifest = read_manifest(self.root)
        except ValueError as exc:
            raise StoreError(str(exc)) from exc
        if manifest is None:
            return {"format": MANIFEST_FORMAT, "contexts": {}}
        fmt = manifest.get("format")
        if fmt != MANIFEST_FORMAT:
            raise StoreError(
                f"{path} has manifest format {fmt!r}; this build reads "
                f"format {MANIFEST_FORMAT}"
            )
        if not isinstance(manifest.get("contexts"), dict):
            raise StoreError(f"{path} is missing its context index")
        return manifest

    def _write_manifest(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        commit_manifest(self.root, self._manifest)

    def entries(self) -> dict[ContextKey, dict]:
        """The manifest index: per-context metadata without loading XML."""
        out: dict[ContextKey, dict] = {}
        for name, entry in self._manifest["contexts"].items():
            out[parse_dirname(name)] = dict(entry)
        return out

    def revision(self, key: ContextKey) -> int:
        """Publish counter of the context (0 when never persisted)."""
        entry = self._manifest["contexts"].get(context_dirname(key))
        return int(entry["revision"]) if entry else 0

    # ------------------------------------------------------------------
    # resident-set management
    # ------------------------------------------------------------------
    def _context_dir(self, key: ContextKey) -> Path:
        return self.root / "contexts" / context_dirname(key)

    def resident_keys(self) -> list[ContextKey]:
        """Keys currently held in RAM (loaded or adopted)."""
        return list(self._resident)

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def _load(self, key: ContextKey) -> ContextModels | None:
        entry = self._manifest["contexts"].get(context_dirname(key))
        if entry is None:
            return None
        with obs.span("store.load") as sp:
            directory = self._context_dir(key)
            context = OperationContext(
                workload=key[0], node_id=key[1], ip=str(entry.get("ip", ""))
            )
            artifacts = entry.get("artifacts", [])
            models = read_artifacts(
                context, directory, _ARTIFACT_FILES, artifacts
            )
            if sp:
                sp.set(context=str(context), artifacts=len(artifacts))
        if obs.enabled():
            obs.metrics_registry().counter(
                "invarnetx_store_loads_total",
                "Context slots rehydrated from a model store",
                ("backend",),
            ).inc(backend="directory")
            obs.log_event(
                _log,
                logging.DEBUG,
                "store-load",
                context=str(context),
                artifacts=",".join(artifacts) or "-",
            )
        return models

    # ------------------------------------------------------------------
    # ModelStore contract
    # ------------------------------------------------------------------
    def slot(
        self, key: ContextKey, context: OperationContext | None = None
    ) -> ContextModels:
        models = self._resident.get(key)
        if models is not None:
            if models.context is None:
                models.context = context
            return models
        models = self._load(key)
        if models is None:
            models = ContextModels(context=context)
        self._resident[key] = models
        return models

    def peek(self, key: ContextKey) -> ContextModels | None:
        models = self._resident.get(key)
        if models is not None:
            return models
        models = self._load(key)
        if models is not None:
            self._resident[key] = models
        return models

    def keys(self) -> list[ContextKey]:
        known = {
            parse_dirname(name) for name in self._manifest["contexts"]
        }
        known.update(self._resident)
        return sorted(known)

    def persist(self, key: ContextKey) -> list[Path]:
        models = self._resident.get(key)
        if models is None:
            raise StoreError(
                f"no resident slot for {key!r}; nothing to persist"
            )
        with obs.span("store.persist") as sp:
            context = models.context or OperationContext(
                workload=key[0], node_id=key[1]
            )
            directory = self._context_dir(key)
            written = write_artifacts(
                models, context, directory, _ARTIFACT_FILES
            )
            present = models.artifacts()
            for name, filename in _ARTIFACT_FILES.items():
                if name not in present:
                    (directory / filename).unlink(missing_ok=True)
            dirname = context_dirname(key)
            previous = self._manifest["contexts"].get(dirname, {})
            revision = int(previous.get("revision", 0)) + 1
            self._manifest["contexts"][dirname] = {
                "workload": key[0],
                "node": key[1],
                "ip": context.ip,
                "revision": revision,
                "artifacts": present,
            }
            self._write_manifest()
            if sp:
                sp.set(
                    context=str(context),
                    revision=revision,
                    files=len(written),
                )
        if obs.enabled():
            obs.metrics_registry().counter(
                "invarnetx_store_publishes_total",
                "Context revisions published to a model store",
                ("backend",),
            ).inc(backend="directory")
            obs.log_event(
                _log,
                logging.DEBUG,
                "store-publish",
                context=str(context),
                revision=revision,
                files=len(written),
            )
        return written

    def adopt(self, key: ContextKey, models: ContextModels) -> None:
        self._resident[key] = models

    def discard(self, key: ContextKey) -> None:
        self._resident.pop(key, None)
        dirname = context_dirname(key)
        if dirname in self._manifest["contexts"]:
            del self._manifest["contexts"][dirname]
            self._write_manifest()
        shutil.rmtree(self._context_dir(key), ignore_errors=True)
