"""The model registry: per-context ``(detector, invariants, signatures)``
slots behind a pluggable :class:`~repro.store.base.ModelStore`.

The paper persists one XML tuple set per operation context (§3.2/§3.3);
this package owns where those triples live and when they move:

- :class:`MemoryStore` — resident dict, nothing durable;
- :class:`DirectoryStore` — versioned on-disk registry (per-context XML
  subdirectories, manifest index, atomic publishes, lazy loading).

Attach a pipeline with ``InvarNetX.attached_to(store)`` and trained
contexts survive process restarts: the online part rehydrates detectors,
invariant sets and signature bases from the registry on first use.
"""

from repro.store.base import ContextKey, ContextModels, ModelStore, StoreError
from repro.store.directory import DirectoryStore
from repro.store.locked import LockedStore
from repro.store.memory import MemoryStore

__all__ = [
    "ContextKey",
    "ContextModels",
    "ModelStore",
    "StoreError",
    "MemoryStore",
    "DirectoryStore",
    "LockedStore",
]
