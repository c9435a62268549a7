"""Graph classification via fixed-size receptive-field tensors and capsule networks."""

__version__ = "0.1.0"

from .data import PAD, Graphs, graph, load_tu_dataset, one_hot, permute_node_ids, read_labels
from .labelling import betweenness_centrality, canonical_order, rank_nodes
from .tensorize import graph_to_tensor, tensorize_dataset

__all__ = [
    "PAD",
    "Graphs",
    "betweenness_centrality",
    "canonical_order",
    "graph",
    "graph_to_tensor",
    "load_tu_dataset",
    "one_hot",
    "permute_node_ids",
    "rank_nodes",
    "read_labels",
    "tensorize_dataset",
]
