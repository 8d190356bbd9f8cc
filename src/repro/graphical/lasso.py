"""Coordinate-descent solver for the lasso problem.

The graphical lasso repeatedly solves lasso regressions of each variable on
all others; this module provides that inner solver for problems expressed in
terms of a Gram matrix (``Q = X^T X``) and linear term (``b = X^T y``), which
is the form needed inside the block coordinate-descent glasso loop.
"""

from __future__ import annotations

import numpy as np

from repro.numerics.glasso import lasso_cd


def lasso_coordinate_descent(
    gram: np.ndarray,
    linear: np.ndarray,
    alpha: float,
    max_iter: int = 200,
    tol: float = 1e-6,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Minimise ``0.5 w^T Q w - b^T w + alpha * ||w||_1`` by coordinate descent.

    Parameters
    ----------
    gram:
        Positive semi-definite matrix ``Q`` of shape ``(p, p)``.
    linear:
        Vector ``b`` of shape ``(p,)``.
    alpha:
        Non-negative L1 penalty.
    max_iter:
        Maximum number of full coordinate sweeps.
    tol:
        Convergence threshold on the largest coefficient update in a sweep.
    initial:
        Optional warm-start coefficients.
    """
    gram = np.asarray(gram, dtype=float)
    linear = np.asarray(linear, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError(f"gram must be square, got shape {gram.shape}")
    if linear.shape != (gram.shape[0],):
        raise ValueError("linear term has incompatible shape")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")

    return lasso_cd(gram, linear, alpha, max_iter=max_iter, tol=tol, initial=initial)
