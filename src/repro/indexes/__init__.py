"""Index substrates: R-tree, COUNT-aggregate R-tree, 1D R-tree, B+-tree.

Each tree is built once, from its whole input, and never mutated afterwards:
``RTree.bulk_load``, ``CountAggregateRTree.build``,
``OneDimensionalRTree.from_sorted`` and ``BPlusTree.bulk_load``.  The two time
indexes refuse input that is not in time order.
"""

from .aggregate_rtree import AggregateEntry, CountAggregateRTree
from .bplustree import BPlusTree
from .interval_index import OneDimensionalRTree
from .rtree import RTree, RTreeEntry, RTreeNode

__all__ = [
    "AggregateEntry",
    "BPlusTree",
    "CountAggregateRTree",
    "OneDimensionalRTree",
    "RTree",
    "RTreeEntry",
    "RTreeNode",
]
