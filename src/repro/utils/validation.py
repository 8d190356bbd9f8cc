"""Input-validation helpers used across the library.

These are deliberately small and explicit: every public estimator and
framework entry point funnels its array arguments through these checks so
that user errors surface as clear ``ValueError`` messages rather than cryptic
NumPy broadcasting failures deep inside a solver.

The finiteness scan of :func:`check_2d` is O(n·d), and the frameworks hand
the same unchanging feature matrices to it on every fit and predict.  An
array that :func:`freeze_finite` has scanned, frozen and registered skips
that scan for as long as it stays read-only; every other array gets it.
"""

from __future__ import annotations

import weakref
from typing import Sequence

import numpy as np
from scipy import sparse

#: id -> array for every array :func:`freeze_finite` registered.  Weak, so
#: an entry dies with its array and an id is never matched after reuse.
_FINITE_ARRAYS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def check_1d(array, name: str = "array") -> np.ndarray:
    """Coerce *array* to a 1-D ``ndarray`` or raise ``ValueError``."""
    result = np.asarray(array)
    if result.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {result.shape}")
    return result


def check_2d(array, name: str = "array") -> np.ndarray:
    """Coerce *array* to a 2-D float ``ndarray`` or raise ``ValueError``."""
    result = np.asarray(array, dtype=float)
    if result.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {result.shape}")
    if result.shape[0] == 0:
        raise ValueError(f"{name} must contain at least one row")
    if not _is_frozen_finite(result) and not np.all(np.isfinite(result)):
        raise ValueError(f"{name} contains NaN or infinite values")
    return result


def check_csr(matrix, name: str = "array") -> sparse.csr_matrix:
    """Coerce a ``scipy.sparse`` *matrix* to float CSR or raise ``ValueError``.

    The sparse counterpart of :func:`check_2d`: at least one row, and every
    stored value finite.
    """
    result = matrix.tocsr().astype(float, copy=False)
    if result.shape[0] == 0:
        raise ValueError(f"{name} must contain at least one row")
    if not np.all(np.isfinite(result.data)):
        raise ValueError(f"{name} contains NaN or infinite values")
    return result


def freeze_finite(array: np.ndarray) -> None:
    """Scan a float *array* once; if finite and it owns its data, freeze it.

    A frozen array is made read-only and registered, and :func:`check_2d`
    then skips its finiteness scan for as long as the array stays
    read-only.  Views (``base`` set) are never frozen: their memory stays
    writeable through the array they view.  The caller hands over an array
    that no earlier view writes into.  The shortcut trusts the read-only
    flag: code that sets it back, writes a NaN and clears it again between
    two checks is not caught.
    """
    if array.base is None and array.dtype == float and np.all(np.isfinite(array)):
        array.flags.writeable = False
        _FINITE_ARRAYS[id(array)] = array


def _is_frozen_finite(array: np.ndarray) -> bool:
    return not array.flags.writeable and _FINITE_ARRAYS.get(id(array)) is array


def check_consistent_length(*arrays: Sequence) -> None:
    """Raise ``ValueError`` unless all arguments have the same first dimension."""
    lengths = [
        a.shape[0] if sparse.issparse(a) else len(a) for a in arrays if a is not None
    ]
    if len(set(lengths)) > 1:
        raise ValueError(f"inconsistent numbers of samples: {lengths}")


def check_labels(y, n_classes: int | None = None, name: str = "y") -> np.ndarray:
    """Validate a vector of integer class labels in ``{0, ..., C-1}``.

    Parameters
    ----------
    y:
        Label vector.
    n_classes:
        If given, labels must lie in ``[0, n_classes)``.
    """
    labels = check_1d(y, name=name)
    if labels.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.issubdtype(labels.dtype, np.integer):
        as_int = labels.astype(int)
        if not np.allclose(as_int, labels):
            raise ValueError(f"{name} must contain integer class labels")
        labels = as_int
    if labels.min() < 0:
        raise ValueError(f"{name} contains negative labels")
    if n_classes is not None and labels.max() >= n_classes:
        raise ValueError(
            f"{name} contains label {labels.max()} outside [0, {n_classes})"
        )
    return labels


def check_probability_matrix(proba, name: str = "proba", atol: float = 1e-6) -> np.ndarray:
    """Validate an ``(n, C)`` matrix of class probabilities (rows sum to 1)."""
    matrix = check_2d(proba, name=name)
    if matrix.min() < -atol or matrix.max() > 1 + atol:
        raise ValueError(f"{name} entries must lie in [0, 1]")
    row_sums = matrix.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=1e-3):
        raise ValueError(f"{name} rows must sum to 1, got sums in "
                         f"[{row_sums.min():.4f}, {row_sums.max():.4f}]")
    return matrix
