"""A thread-safety decorator for model stores.

Neither :class:`~repro.store.memory.MemoryStore` (plain dict) nor
:class:`~repro.store.directory.DirectoryStore` (lazy loads mutate the
resident cache) is safe under concurrent access — they never needed to
be, because the offline pipeline is single-threaded.  A fleet service is
not: concurrent ingest callers construct monitors lazily on different
shards, and each construction walks ``pipeline.context_models`` into the
shared store.

:class:`LockedStore` wraps any :class:`~repro.store.base.ModelStore` and
serialises every contract method behind one reentrant lock.  It is a
coarse decorator on purpose: store operations are rare (monitor
construction, eviction, persistence) next to per-tick drift checks, so a
single lock is simpler than per-slot locking and never the bottleneck.
The lock is reentrant as a guard only: no current backend calls back
into the wrapper, but a call chain that did would re-acquire the lock
instead of deadlocking, and at store-call rates an ``RLock`` costs
nothing measurable.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.core.context import OperationContext
from repro.store.base import ContextKey, ContextModels, ModelStore

__all__ = ["LockedStore"]


class LockedStore(ModelStore):
    """Serialise an inner store's contract methods behind an RLock.

    Args:
        inner: the store to protect.  Wrapping a ``LockedStore`` returns
            logically correct (reentrant) behaviour but is pointless;
            callers should use :meth:`wrap` which is idempotent.
    """

    def __init__(self, inner: ModelStore) -> None:
        self.inner = inner
        self._lock = threading.RLock()

    @classmethod
    def wrap(cls, store: ModelStore) -> "LockedStore":
        """``store`` behind a lock; already-locked stores pass through."""
        if isinstance(store, LockedStore):
            return store
        return cls(store)

    # -- contract methods, each a locked pass-through -------------------
    def slot(
        self, key: ContextKey, context: OperationContext | None = None
    ) -> ContextModels:
        with self._lock:
            return self.inner.slot(key, context)

    def peek(self, key: ContextKey) -> ContextModels | None:
        with self._lock:
            return self.inner.peek(key)

    def keys(self) -> list[ContextKey]:
        with self._lock:
            return self.inner.keys()

    def persist(self, key: ContextKey) -> list[Path]:
        with self._lock:
            return self.inner.persist(key)

    def adopt(self, key: ContextKey, models: ContextModels) -> None:
        with self._lock:
            self.inner.adopt(key, models)

    def discard(self, key: ContextKey) -> None:
        with self._lock:
            self.inner.discard(key)

    def revision(self, key: ContextKey) -> int:
        # explicit pass-through: the base class has a concrete default,
        # so __getattr__ would never be consulted for this name
        with self._lock:
            return self.inner.revision(key)

    def __getattr__(self, name: str):
        # backend-specific surface (ledger(), root, resident_keys(), ...)
        # passes through unlocked: those are configuration reads, and the
        # objects they return carry their own synchronisation
        if name == "inner":  # unpickling reaches here before __init__
            raise AttributeError(name)
        return getattr(self.inner, name)
