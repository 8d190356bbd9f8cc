"""Markov-blanket extraction from an estimated precision matrix.

In a Gaussian graphical model two variables are conditionally independent
given all others exactly when their precision-matrix entry is zero, so the
Markov blanket of a target variable is the set of variables with non-zero
precision entries against it.  LabelPick uses this to keep only the label
functions adjacent to the class label in the learned dependency structure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import networkx as nx


def markov_blanket(precision: np.ndarray, target: int, threshold: float = 1e-6) -> list[int]:
    """Return the indices adjacent to *target* in the precision graph.

    Parameters
    ----------
    precision:
        Symmetric precision matrix.
    target:
        Index of the target variable (e.g. the class-label column).
    threshold:
        Absolute values below this are treated as exact zeros.
    """
    precision = np.asarray(precision, dtype=float)
    if precision.ndim != 2 or precision.shape[0] != precision.shape[1]:
        raise ValueError("precision must be a square matrix")
    p = precision.shape[0]
    if not 0 <= target < p:
        raise ValueError(f"target index {target} out of range for {p} variables")
    neighbours = [
        j for j in range(p)
        if j != target and abs(precision[target, j]) > threshold
    ]
    return neighbours


def dependency_graph(
    precision: np.ndarray,
    names: list[str] | None = None,
    threshold: float = 1e-6,
) -> nx.Graph:
    """Build an undirected dependency graph from a precision matrix.

    Nodes carry the provided *names* (defaulting to integer indices) and each
    edge stores the corresponding precision entry as its ``weight``.
    ``networkx`` is imported here, not at module load: LabelPick needs only
    :func:`markov_blanket`.
    """
    import networkx as nx

    precision = np.asarray(precision, dtype=float)
    p = precision.shape[0]
    if names is None:
        names = [str(i) for i in range(p)]
    if len(names) != p:
        raise ValueError("names must match the precision matrix dimension")
    graph = nx.Graph()
    graph.add_nodes_from(names)
    for i in range(p):
        for j in range(i + 1, p):
            if abs(precision[i, j]) > threshold:
                graph.add_edge(names[i], names[j], weight=float(precision[i, j]))
    return graph
