"""The resident model store.

:class:`MemoryStore` is exactly the private dict
:class:`~repro.core.pipeline.InvarNetX` used to carry: every slot stays
in RAM for the life of the process and nothing is published durably.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.context import OperationContext
from repro.store.base import ContextKey, ContextModels, ModelStore

__all__ = ["MemoryStore"]


class MemoryStore(ModelStore):
    """In-memory registry: a plain resident dict of slots."""

    def __init__(self) -> None:
        self._slots: dict[ContextKey, ContextModels] = {}

    def slot(
        self, key: ContextKey, context: OperationContext | None = None
    ) -> ContextModels:
        models = self._slots.get(key)
        if models is None:
            models = ContextModels(context=context)
            self._slots[key] = models
        elif models.context is None:
            models.context = context
        return models

    def peek(self, key: ContextKey) -> ContextModels | None:
        return self._slots.get(key)

    def keys(self) -> list[ContextKey]:
        return sorted(self._slots)

    def persist(self, key: ContextKey) -> list[Path]:
        return []

    def adopt(self, key: ContextKey, models: ContextModels) -> None:
        self._slots[key] = models

    def discard(self, key: ContextKey) -> None:
        self._slots.pop(key, None)
