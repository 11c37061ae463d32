"""Index substrates: the R-tree and the COUNT-aggregate R-tree.

Each tree is built once, from its whole input, and never mutated afterwards:
``RTree.bulk_load`` and ``CountAggregateRTree.build``.  The paper's time
indexes (§3.3) are not here: the table answers the IUPT range query from a
bisected timestamp column (README, *Storage*).
"""

from .aggregate_rtree import AggregateEntry, CountAggregateRTree
from .rtree import RTree, RTreeEntry, RTreeNode

__all__ = [
    "AggregateEntry",
    "CountAggregateRTree",
    "RTree",
    "RTreeEntry",
    "RTreeNode",
]
