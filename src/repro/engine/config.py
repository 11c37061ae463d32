"""Configuration of the query execution engine.

The engine has one execution path (fetch → reduce → presence → score, every
per-object result shared through the cross-query presence store), so its
configuration is the one thing two real callers size differently:

``presence_store_capacity``
    Bound of the cross-query :class:`~repro.engine.cache.PresenceStore` (LRU
    entries).  ``0`` disables cross-query caching entirely, so every query
    starts cold — what the paper's efficiency experiments measure.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..codec import active_backend


@dataclass(frozen=True)
class EngineConfig:
    """Immutable description of how the execution engine runs queries."""

    presence_store_capacity: int = 4096

    def __post_init__(self) -> None:
        if self.presence_store_capacity < 0:
            raise ValueError("presence_store_capacity must be non-negative")

    @property
    def caching_enabled(self) -> bool:
        return self.presence_store_capacity > 0

    @property
    def resolved_scoring_kernel(self) -> str:
        """``"vectorized"`` on the codec's numpy backend, ``"scalar"`` on the
        pure-Python ``array`` fallback (where building the presence matrix
        costs more than it saves); both give bit-identical flows."""
        return "vectorized" if active_backend() == "numpy" else "scalar"

    @staticmethod
    def uncached() -> "EngineConfig":
        """Execution without the cross-query presence store."""
        return EngineConfig(presence_store_capacity=0)
