"""Benchmark NUM: adaptive early stopping of label-model EM at paper scale.

On a paper-scale synthetic label matrix (8192 instances x 40 LFs by
default), a warm-started refit with ``early_stop=True`` converges in a
handful of EM iterations where the fixed-budget comparator (``tol=0``: the
historical criterion disabled, the full ``max_iter`` spent) burns its whole
budget, at identical headline accuracy.

Headline numbers (iteration counts, wall-clock, accuracy) are merged into
the repo-root ``BENCH_core.json`` via ``benchmarks/record.py``.  Environment
knobs:

* ``REPRO_NUMERICS_BENCH_INSTANCES``  synthetic corpus size (default 8192)
* ``REPRO_NUMERICS_BENCH_LFS``        LF count (default 40)
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.label_models import GenerativeLabelModel, MeTaLLabelModel
from repro.labeling.lf import ABSTAIN

N_INSTANCES = int(os.environ.get("REPRO_NUMERICS_BENCH_INSTANCES", 8192))
N_LFS = int(os.environ.get("REPRO_NUMERICS_BENCH_LFS", 40))
N_CLASSES = 2

MODELS = {
    "generative": GenerativeLabelModel,
    "metal": MeTaLLabelModel,
}


def _synthetic_corpus(
    n_instances: int, n_lfs: int, n_classes: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """A label matrix from LFs with heterogeneous accuracy and propensity."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n_instances)
    accuracies = rng.uniform(0.6, 0.9, size=n_lfs)
    propensities = rng.uniform(0.2, 0.5, size=n_lfs)
    fired = rng.random((n_instances, n_lfs)) < propensities
    correct = rng.random((n_instances, n_lfs)) < accuracies
    offsets = rng.integers(1, n_classes, size=(n_instances, n_lfs), endpoint=True)
    wrong = (labels[:, None] + offsets) % n_classes
    votes = np.where(correct, labels[:, None], wrong)
    return np.where(fired, votes, ABSTAIN), labels


@pytest.fixture(scope="module")
def corpus() -> tuple[np.ndarray, np.ndarray]:
    return _synthetic_corpus(N_INSTANCES, N_LFS, N_CLASSES)


def _accuracy(model, matrix: np.ndarray, labels: np.ndarray) -> float:
    predictions = np.argmax(model.predict_proba(matrix), axis=1)
    return float(np.mean(predictions == labels))


def test_early_stop_cuts_warm_refit_iterations(corpus, bench_record):
    """A warm refit under early stopping beats the fixed budget it replaces.

    The comparator is a *true* fixed budget — ``tol=0`` disables the
    historical responsibility-change criterion entirely, so the fit spends
    all of ``max_iter`` — which is what "fixed EM budget" means once the
    convergence check cannot fire.  Early stopping must cut the warm
    refit's iterations by at least 4x without moving headline accuracy.
    """
    matrix, labels = corpus
    summary = {"n_instances": N_INSTANCES, "n_lfs": N_LFS}
    for name, cls in sorted(MODELS.items()):
        # A previous fit on all-but-one LF column seeds the refit, the
        # interactive framework's steady state (one new LF per iteration).
        seed_model = cls(n_classes=N_CLASSES)
        seed_model.fit(matrix[:, :-1])
        warm = seed_model.export_warm_start(list(range(N_LFS - 1)) + [-1])

        variants = {}
        for variant, kwargs in {
            "fixed": {"tol": 0.0},
            "early_stop": {"early_stop": True},
        }.items():
            model = cls(n_classes=N_CLASSES, **kwargs)
            start = time.perf_counter()
            model.fit(matrix, warm_start=warm)
            variants[variant] = {
                "n_iter": model.n_iter_,
                "converged": model.converged_,
                "accuracy": _accuracy(model, matrix, labels),
                "wall_seconds": time.perf_counter() - start,
            }

        fixed, early = variants["fixed"], variants["early_stop"]
        print(
            f"\n{name} warm refit: fixed={fixed['n_iter']} iterations "
            f"({fixed['wall_seconds']:.2f}s) vs early-stop={early['n_iter']} "
            f"({early['wall_seconds']:.2f}s), "
            f"accuracy {fixed['accuracy']:.4f} vs {early['accuracy']:.4f}"
        )
        assert not fixed["converged"]
        assert early["converged"]
        assert early["n_iter"] * 4 <= fixed["n_iter"]
        assert abs(early["accuracy"] - fixed["accuracy"]) <= 1e-3
        summary[name] = variants

    bench_record("numerics_early_stop", summary)
