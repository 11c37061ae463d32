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
        """Always ``"scalar"``: the engine has one accumulation, a fold over
        the window's artefacts in fetch order.  Not a setting — the name is
        kept only because ``bench/layers.py`` and
        ``bench/workloads/cold_window_scan.py`` read it."""
        return "scalar"

    @staticmethod
    def uncached() -> "EngineConfig":
        """Execution without the cross-query presence store."""
        return EngineConfig(presence_store_capacity=0)
