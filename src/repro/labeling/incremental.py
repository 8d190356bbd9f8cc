"""Incrementally grown label matrices.

The interactive frameworks collect one LF per iteration, so the label matrix
gains one column at a time.  Rebuilding it with ``np.hstack`` on every
addition costs O(n_instances * n_lfs) per iteration — O(n * k^2) over a run.
:class:`IncrementalLabelMatrix` instead writes each new column into a
preallocated buffer with amortised-geometric growth (the classic dynamic
array), making an addition O(n_instances) amortised.

The store is bound to one dataset and also memoises LF applications: the
framework applies the same LF to the same dataset from several places
(matrix column, pseudo-label lookup, duplicate handling), and user-style
LFs are hashable by construction, so a per-LF cache removes the repeated
full-dataset scans.
"""

from __future__ import annotations

import numpy as np

from repro.labeling.lf import ABSTAIN, LabelFunction


class IncrementalLabelMatrix:
    """Amortised-growth column store of LF outputs on one dataset.

    Parameters
    ----------
    dataset:
        The dataset every appended LF is applied to.  Treated as immutable;
        snapshots share it instead of copying it, and pickles leave it out
        (see :meth:`bind`).
    initial_capacity:
        Number of preallocated columns.
    growth_factor:
        Capacity multiplier when the buffer is full (must be > 1).
    """

    def __init__(self, dataset, initial_capacity: int = 8, growth_factor: float = 2.0):
        if initial_capacity < 1:
            raise ValueError("initial_capacity must be >= 1")
        if growth_factor <= 1.0:
            raise ValueError("growth_factor must be > 1")
        self.dataset = dataset
        self.growth_factor = float(growth_factor)
        self._n_rows = len(dataset)
        self._buffer = np.full((self._n_rows, initial_capacity), ABSTAIN, dtype=int)
        self._n_cols = 0
        self._apply_cache: dict[LabelFunction, np.ndarray] = {}

    # ------------------------------------------------------------- properties
    @property
    def n_rows(self) -> int:
        """Number of dataset instances (rows)."""
        return self._n_rows

    @property
    def n_cols(self) -> int:
        """Number of LF columns stored so far."""
        return self._n_cols

    @property
    def capacity(self) -> int:
        """Number of preallocated columns."""
        return self._buffer.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        """Read-only ``(n_rows, n_cols)`` view of the stored columns."""
        view = self._buffer[:, : self._n_cols]
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return self._n_rows

    # ------------------------------------------------------------- operations
    def apply(self, lf: LabelFunction) -> np.ndarray:
        """Return ``lf``'s output on the bound dataset, memoised per LF."""
        cached = self._apply_cache.get(lf)
        if cached is None:
            cached = np.asarray(lf.apply(self.dataset), dtype=int)
            if cached.shape != (self._n_rows,):
                raise ValueError(
                    f"LF {lf.name!r} returned shape {cached.shape}, "
                    f"expected ({self._n_rows},)"
                )
            cached.flags.writeable = False
            self._apply_cache[lf] = cached
        return cached

    def append(self, lf: LabelFunction) -> np.ndarray:
        """Apply *lf* and store its output as the next column; return the column."""
        column = self.apply(lf)
        if self._n_cols == self._buffer.shape[1]:
            self._grow()
        self._buffer[:, self._n_cols] = column
        self._n_cols += 1
        return column

    def columns(self, indices) -> np.ndarray:
        """Copy of the columns at *indices* (an ``(n_rows, len(indices))`` array)."""
        # np.take copies exactly once; fancy indexing + .copy() would copy
        # the submatrix twice per call — in the refit hot loop.
        return np.take(self._buffer[:, : self._n_cols], self._int_indices(indices), axis=1)

    def rows(self, indices) -> np.ndarray:
        """Copy of the rows at *indices* (an ``(len(indices), n_cols)`` array)."""
        return np.take(self._buffer[:, : self._n_cols], self._int_indices(indices), axis=0)

    @staticmethod
    def _int_indices(indices) -> np.ndarray:
        indices = np.asarray(indices)
        if indices.dtype == bool:
            # Coercing a mask to int would silently select columns 0/1.
            raise TypeError("boolean masks are not supported; pass integer indices")
        if indices.size and not np.issubdtype(indices.dtype, np.integer):
            # astype would silently truncate float "indices" (e.g. scores
            # passed by mistake); the empty case keeps `[]` working.
            raise TypeError(f"indices must be integers, got dtype {indices.dtype}")
        return indices.astype(int, copy=False)

    # -------------------------------------------------------------- internals
    def _grow(self) -> None:
        old_capacity = self._buffer.shape[1]
        new_capacity = max(old_capacity + 1, int(old_capacity * self.growth_factor))
        grown = np.full((self._n_rows, new_capacity), ABSTAIN, dtype=int)
        grown[:, :old_capacity] = self._buffer
        self._buffer = grown

    def bind(self, dataset) -> None:
        """Rebind an unpickled store to its dataset, regenerated by the caller.

        Pickling leaves the dataset out (features and all), so a store that
        is read back must be bound to the same dataset again before it
        applies a new LF.
        """
        if len(dataset) != self._n_rows:
            raise ValueError(
                f"dataset has {len(dataset)} rows, the label matrix {self._n_rows}"
            )
        self.dataset = dataset

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["dataset"] = None
        return state

    def __deepcopy__(self, memo) -> "IncrementalLabelMatrix":
        # Datasets are immutable and LF output vectors are frozen, so a
        # snapshot shares both and only copies the writable column buffer.
        clone = type(self).__new__(type(self))
        memo[id(self)] = clone
        clone.dataset = self.dataset
        clone.growth_factor = self.growth_factor
        clone._n_rows = self._n_rows
        clone._buffer = self._buffer.copy()
        clone._n_cols = self._n_cols
        clone._apply_cache = dict(self._apply_cache)
        return clone
