"""Tests for Markov-blanket extraction and the dependency graph export."""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import repro

from repro.graphical import dependency_graph, markov_blanket


PRECISION = np.array(
    [
        [1.0, 0.5, 0.0, 0.0],
        [0.5, 1.0, 0.3, 0.0],
        [0.0, 0.3, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)


class TestMarkovBlanket:
    def test_returns_direct_neighbours_only(self):
        assert markov_blanket(PRECISION, target=0) == [1]
        assert markov_blanket(PRECISION, target=1) == [0, 2]

    def test_isolated_variable_has_empty_blanket(self):
        assert markov_blanket(PRECISION, target=3) == []

    def test_threshold_filters_small_entries(self):
        noisy = PRECISION.copy()
        noisy[0, 3] = noisy[3, 0] = 1e-9
        assert markov_blanket(noisy, target=0, threshold=1e-6) == [1]
        assert 3 in markov_blanket(noisy, target=0, threshold=1e-12)

    def test_out_of_range_target_raises(self):
        with pytest.raises(ValueError):
            markov_blanket(PRECISION, target=10)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            markov_blanket(np.zeros((2, 3)), target=0)


class TestDependencyGraph:
    def test_graph_edges_match_nonzero_entries(self):
        graph = dependency_graph(PRECISION, names=["a", "b", "c", "d"])
        assert isinstance(graph, nx.Graph)
        assert graph.has_edge("a", "b")
        assert graph.has_edge("b", "c")
        assert not graph.has_edge("a", "c")
        assert graph.number_of_nodes() == 4

    def test_edge_weights_are_precision_entries(self):
        graph = dependency_graph(PRECISION)
        assert graph["0"]["1"]["weight"] == pytest.approx(0.5)

    def test_name_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            dependency_graph(PRECISION, names=["only", "two"])

    def test_program_entry_points_do_not_import_networkx(self):
        # A fresh interpreter: this test process has imported networkx above.
        probe = (
            "import sys, repro.runner.executor, repro.runner.worker, repro.serving.server; "
            "print('networkx' in sys.modules)"
        )
        output = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        ).stdout

        assert output.strip() == "False"
