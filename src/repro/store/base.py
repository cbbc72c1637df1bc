"""The model-registry contract: per-context model slots and stores.

The paper's offline part produces one ``(ARIMA model, invariant set,
signature base)`` triple per operation context and stores the triple
durably in XML (§3.2/§3.3).  :class:`ContextModels` is that triple in
memory; :class:`ModelStore` is the registry owning the slots' lifecycle —
where they live (RAM, disk), when they are loaded, and when they are
published durably.

Two backends implement the contract:

- :class:`repro.store.memory.MemoryStore` — the resident dict the
  pipeline always had;
- :class:`repro.store.directory.DirectoryStore` — a versioned on-disk
  registry of per-context subdirectories in the §3.2/§3.3 XML formats,
  published atomically and loaded lazily.

:class:`repro.core.pipeline.InvarNetX` delegates all slot management
here, so a diagnosis service can restart warm: attach a fresh pipeline to
a populated :class:`DirectoryStore` and every trained context rehydrates
on first use instead of retraining from raw runs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.anomaly import AnomalyDetector
from repro.core.context import OperationContext
from repro.core.invariants import InvariantSet
from repro.core.signatures import SignatureDatabase

__all__ = ["ContextKey", "ContextModels", "ModelStore", "StoreError"]

#: The per-context dictionary key, always ``OperationContext.key()``.
ContextKey = tuple[str, str]


class StoreError(RuntimeError):
    """A model store could not honour its contract (corrupt registry,
    unknown context)."""


@dataclass
class ContextModels:
    """Everything trained for one operation context.

    Attributes:
        context: the operation context the models were trained under
            (carries the ip the XML tuple formats need); None until the
            pipeline first touches the slot.
        detector: the trained performance model (module 1), or None.
        invariants: the likely-invariant set (module 2), or None.
        database: the signature base (module 3); empty when untrained.
    """

    context: OperationContext | None = None
    detector: AnomalyDetector | None = None
    invariants: InvariantSet | None = None
    database: SignatureDatabase = field(default_factory=SignatureDatabase)

    @property
    def trained(self) -> bool:
        """Can this slot serve the online part (detect + infer)?"""
        return self.detector is not None and self.invariants is not None

    def artifacts(self) -> list[str]:
        """Names of the artifacts this slot holds (manifest vocabulary)."""
        out: list[str] = []
        if self.detector is not None and self.detector.model is not None:
            out.append("model")
        if self.invariants is not None:
            out.append("invariants")
        if len(self.database):
            out.append("signatures")
        return out


class ModelStore(abc.ABC):
    """Registry of per-context model slots.

    The pipeline's contract with a store:

    - :meth:`slot` is the *only* way training and diagnosis reach a
      context's models; backends may load it lazily from durable storage;
    - after mutating a slot, the pipeline calls :meth:`persist`; memory
      backends may no-op, durable backends must publish atomically;
    - :meth:`peek` never creates a slot, so read paths can distinguish
      "unknown context" from "empty slot".
    """

    @abc.abstractmethod
    def slot(
        self, key: ContextKey, context: OperationContext | None = None
    ) -> ContextModels:
        """Get-or-create the mutable slot for ``key`` (load-on-miss).

        Args:
            key: the context key (``OperationContext.key()``).
            context: the full context, recorded on the slot the first time
                it is seen so durable backends can fill the XML tuples.
        """

    @abc.abstractmethod
    def peek(self, key: ContextKey) -> ContextModels | None:
        """The slot for ``key`` if it exists (resident or persisted),
        without creating one."""

    @abc.abstractmethod
    def keys(self) -> list[ContextKey]:
        """Keys of every known context (resident and persisted), sorted."""

    @abc.abstractmethod
    def persist(self, key: ContextKey) -> list[Path]:
        """Publish the slot durably.

        Returns:
            Paths written (empty for memory-only backends).
        """

    @abc.abstractmethod
    def adopt(self, key: ContextKey, models: ContextModels) -> None:
        """Insert a fully-built slot (rehydration)."""

    @abc.abstractmethod
    def discard(self, key: ContextKey) -> None:
        """Forget the context entirely (resident copy and, for durable
        backends, the registry entry).  Unknown keys are a no-op."""

    def revision(self, key: ContextKey) -> int:
        """The context's publish counter (0 = never persisted).

        Versioned backends (:class:`DirectoryStore`) override this with
        the manifest's per-context version; memory-only backends keep
        the default.  Incident bundles record it so forensics can tell
        which published models a diagnosis ran on.
        """
        return 0

    # ------------------------------------------------------------------
    def __contains__(self, key: object) -> bool:
        return key in self.keys()

    def __len__(self) -> int:
        return len(self.keys())
