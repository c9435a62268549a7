"""Graph classification via fixed-size receptive-field tensors and capsule networks."""

__version__ = "0.1.0"

from .data import PAD, Graph, GraphDataset, load_tu_dataset, one_hot, permute_node_ids
from .labelling import (
    NodeRanking,
    Procedure,
    WLColoring,
    betweenness_centrality,
    canonical_order,
    rank_nodes,
    wl_refine,
)
from .tensorize import graph_to_tensor, tensorize_dataset

__all__ = [
    "PAD",
    "Graph",
    "GraphDataset",
    "NodeRanking",
    "Procedure",
    "WLColoring",
    "betweenness_centrality",
    "canonical_order",
    "graph_to_tensor",
    "load_tu_dataset",
    "one_hot",
    "permute_node_ids",
    "rank_nodes",
    "tensorize_dataset",
    "wl_refine",
]
