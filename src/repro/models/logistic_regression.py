"""Multinomial logistic regression trained with L-BFGS.

This is the workhorse classifier of the reproduction: the paper trains a
logistic-regression active-learning model on the pseudo-labelled subset and a
logistic-regression downstream model on TF-IDF features.  The implementation
supports

* binary and multiclass problems (softmax parameterisation),
* per-sample weights (needed when training on probabilistic labels),
* L2 regularisation,
* graceful handling of degenerate training sets (a single observed class),

and exposes the familiar ``fit`` / ``predict_proba`` / ``predict`` API.

The fit minimises one objective over a *design* matrix: the features with a
ones column appended for the intercept.  Large sparse inputs (at least
:data:`SPARSE_MIN_ROWS` rows, at most :data:`SPARSE_MAX_DENSITY` non-zero —
the downstream model's TF-IDF fits) get a ``scipy.sparse`` CSR design, so
each L-BFGS evaluation costs O(nnz) instead of O(n·d).  Everything else
(the active-learning model's small fits, dense tabular features) keeps the
dense design and its exact bits.  The rule reads only the input's shape and
non-zero count; there is no knob.  A ``scipy.sparse`` input (the end
model's row slice of its pool's CSR) follows the same rule and gets the
same design arrays as its dense copy would.  For two classes the softmax
is computed column-wise by :func:`_softmax2`, which is bit-identical to
``scipy.special.softmax(axis=1)`` and cheaper.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import minimize
from scipy.special import softmax

from repro.models.base import BaseClassifier
from repro.utils.validation import check_2d, check_consistent_length, check_csr, check_labels

#: Fewest rows for which a sparse input is fit over a CSR design.  Below
#: ~450 rows (at ~4% density) building the CSR and its per-product overhead
#: cost more than the skipped zeros save (docs/numerics.md).
SPARSE_MIN_ROWS = 512

#: Largest share of non-zero entries for which an input counts as sparse.
SPARSE_MAX_DENSITY = 0.25


def _softmax2(logits: np.ndarray) -> np.ndarray:
    """Softmax of an ``(n, 2)`` logit matrix, computed column by column.

    The same operations as ``scipy.special.softmax(logits, axis=1)`` (shift
    by the row maximum, exponentiate, divide by the sum), so the result is
    bit-identical, but without the n × 2 axis reductions.
    """
    first, second = logits[:, 0], logits[:, 1]
    top = np.maximum(first, second)
    exp_first = np.exp(first - top)
    exp_second = np.exp(second - top)
    total = exp_first + exp_second
    return np.column_stack([exp_first / total, exp_second / total])


def _softmax(logits: np.ndarray) -> np.ndarray:
    return _softmax2(logits) if logits.shape[1] == 2 else softmax(logits, axis=1)


def _design(X, fit_intercept: bool):
    """The fit's design matrix: *X*, plus a trailing ones column if *fit_intercept*.

    A CSR matrix when *X* has at least :data:`SPARSE_MIN_ROWS` rows and at
    most :data:`SPARSE_MAX_DENSITY` non-zero entries, else a dense array.
    *X* may be dense or CSR (a row slice of :attr:`Dataset.csr
    <repro.datasets.Dataset.csr>`); either way the design is the same
    arrays.  The ones column is written into the CSR arrays directly; its
    ``toarray()`` equals the dense design exactly.
    """
    n_samples, n_features = X.shape
    if sparse.issparse(X):
        if n_samples >= SPARSE_MIN_ROWS and X.nnz <= SPARSE_MAX_DENSITY * n_samples * n_features:
            rows = np.repeat(np.arange(n_samples), np.diff(X.indptr))
            return _csr_design(rows, X.indices, X.data, X.shape, fit_intercept)
        X = X.toarray()
    elif n_samples >= SPARSE_MIN_ROWS:
        nonzero = X != 0
        if np.count_nonzero(nonzero) <= SPARSE_MAX_DENSITY * X.size:
            flat_nonzero = np.flatnonzero(nonzero)
            rows, columns = np.divmod(flat_nonzero, n_features)
            return _csr_design(
                rows, columns, X.ravel()[flat_nonzero], X.shape, fit_intercept
            )
    if not fit_intercept:
        return X
    return np.hstack([X, np.ones((n_samples, 1))])


def _csr_design(rows, columns, values, shape, fit_intercept: bool) -> sparse.csr_matrix:
    """CSR matrix of the entries ``(rows[k], columns[k]) = values[k]``.

    *rows* must be ascending; each row keeps its entries in the given
    order.  With *fit_intercept* a ones column is appended after the last
    feature column.
    """
    n_samples, n_features = shape
    extra = 1 if fit_intercept else 0
    indptr = np.zeros(n_samples + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n_samples) + extra, out=indptr[1:])
    # Each row's non-zeros fill its slots in order.  With an intercept,
    # each earlier row also holds its ones-column entry (last in the row),
    # so the k-th non-zero lands rows[k] slots after slot k.
    slots = np.arange(len(rows)) + rows if fit_intercept else slice(None)
    indices = np.full(indptr[-1], n_features, dtype=np.int32)
    data = np.ones(indptr[-1])
    indices[slots] = columns
    data[slots] = values
    return sparse.csr_matrix(
        (data, indices, indptr), shape=(n_samples, n_features + extra)
    )


class LogisticRegression(BaseClassifier):
    """L2-regularised multinomial logistic regression.

    Parameters
    ----------
    C:
        Inverse regularisation strength (larger = weaker regularisation),
        matching the scikit-learn convention.
    max_iter:
        Maximum number of L-BFGS iterations.
    fit_intercept:
        Whether to learn a bias term.
    n_classes:
        Optional total number of classes.  When the training subset happens
        to contain fewer classes than the task defines (common early in an
        active-learning run), passing the task's class count keeps the
        probability matrix shape stable.
    tol:
        Optimiser convergence tolerance.
    """

    def __init__(
        self,
        C: float = 1.0,
        max_iter: int = 200,
        fit_intercept: bool = True,
        n_classes: int | None = None,
        tol: float = 1e-6,
    ):
        if not C > 0:
            raise ValueError(f"C must be positive, got {C}")
        self.C = C
        self.max_iter = max_iter
        self.fit_intercept = fit_intercept
        self.n_classes = n_classes
        self.tol = tol

    # ------------------------------------------------------------------ fit
    def fit(
        self,
        X,
        y,
        sample_weight=None,
        coef_init=None,
        intercept_init=None,
    ) -> "LogisticRegression":
        """Fit the model on integer labels ``y`` (optionally sample-weighted).

        ``coef_init`` / ``intercept_init`` optionally seed the optimiser with
        a previous fit's parameters (shapes ``(n_classes, n_features)`` and
        ``(n_classes,)``).  The objective is convex, so the solution is
        unchanged — a near-solution initialiser just converges in fewer
        L-BFGS iterations.  Mismatched shapes degrade to the zero (cold)
        initialisation, never raise; :attr:`warm_started_` records which
        happened.

        ``sample_weight`` must be finite and non-negative, with a positive
        total; anything else raises ``ValueError``.

        *X* may also be a ``scipy.sparse`` matrix, such as a row slice of a
        dataset's :attr:`~repro.datasets.Dataset.csr`: the fit is then the
        one on ``X.toarray()``, without the dense copy when the design is
        CSR.
        """
        X = check_csr(X, "X") if sparse.issparse(X) else check_2d(X, "X")
        y = check_labels(y, name="y")
        check_consistent_length(X, y)
        if sample_weight is not None:
            sample_weight = np.asarray(sample_weight, dtype=float)
            check_consistent_length(X, sample_weight)
            if not np.all(np.isfinite(sample_weight)):
                raise ValueError("sample_weight must be finite")
            if np.any(sample_weight < 0):
                raise ValueError("sample_weight must be non-negative")
            if not sample_weight.sum() > 0:
                raise ValueError("sample_weight must have a positive total")
        else:
            sample_weight = np.ones(len(y))

        observed = np.unique(y)
        total_classes = self.n_classes if self.n_classes is not None else int(observed.max()) + 1
        total_classes = max(total_classes, int(observed.max()) + 1, 2)
        self.classes_ = np.arange(total_classes)
        self.n_classes_ = total_classes
        n_samples, n_features = X.shape
        self.n_features_in_ = n_features

        if len(observed) == 1:
            # Degenerate training set: remember the constant class but keep a
            # softly-calibrated probability so downstream entropy is finite.
            self._constant_class = int(observed[0])
            self.coef_ = np.zeros((total_classes, n_features))
            self.intercept_ = np.zeros(total_classes)
            self.warm_started_ = False
            return self
        self._constant_class = None

        design = _design(X, self.fit_intercept)
        n_params = design.shape[1]
        one_hot = np.zeros((n_samples, total_classes))
        one_hot[np.arange(n_samples), y] = 1.0
        weight_sum = sample_weight.sum()
        alpha = 1.0 / self.C

        def objective(flat_weights):
            W = flat_weights.reshape(total_classes, n_params)
            logits = design @ W.T
            probs = _softmax(logits)
            clipped = np.clip(probs, 1e-12, 1.0)
            nll = -np.sum(sample_weight[:, None] * one_hot * np.log(clipped)) / weight_sum
            penalty_matrix = W[:, :-1] if self.fit_intercept else W
            penalty = 0.5 * alpha * np.sum(penalty_matrix**2) / weight_sum
            grad = ((probs - one_hot) * sample_weight[:, None]).T @ design / weight_sum
            grad_penalty = np.zeros_like(W)
            if self.fit_intercept:
                grad_penalty[:, :-1] = alpha * W[:, :-1] / weight_sum
            else:
                grad_penalty = alpha * W / weight_sum
            return nll + penalty, (grad + grad_penalty).ravel()

        initial_weights = np.zeros((total_classes, n_params))
        self.warm_started_ = False
        if coef_init is not None:
            coef_init = np.asarray(coef_init, dtype=float)
            if coef_init.shape == (total_classes, n_features) and np.all(
                np.isfinite(coef_init)
            ):
                initial_weights[:, :n_features] = coef_init
                self.warm_started_ = True
                if self.fit_intercept and intercept_init is not None:
                    intercept_init = np.asarray(intercept_init, dtype=float)
                    if intercept_init.shape == (total_classes,) and np.all(
                        np.isfinite(intercept_init)
                    ):
                        initial_weights[:, -1] = intercept_init
        initial = initial_weights.ravel()
        result = minimize(
            objective,
            initial,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        weights = result.x.reshape(total_classes, n_params)
        if self.fit_intercept:
            self.coef_ = weights[:, :-1]
            self.intercept_ = weights[:, -1]
        else:
            self.coef_ = weights
            self.intercept_ = np.zeros(total_classes)
        return self

    # -------------------------------------------------------------- predict
    def predict_proba(self, X) -> np.ndarray:
        """Return softmax class probabilities for each row of *X*."""
        logits = self._logits(X)
        if getattr(self, "_constant_class", None) is not None:
            proba = np.full((len(logits), self.n_classes_), 0.1 / max(self.n_classes_ - 1, 1))
            proba[:, self._constant_class] = 0.9
            proba /= proba.sum(axis=1, keepdims=True)
            return proba
        return _softmax(logits)

    def decision_function(self, X) -> np.ndarray:
        """Return raw class scores (logits) for each row of *X*."""
        return self._logits(X)

    # -------------------------------------------------------------- helpers
    def _logits(self, X) -> np.ndarray:
        self._check_is_fitted()
        X = check_2d(X, "X")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fitted with "
                f"{self.n_features_in_}"
            )
        return X @ self.coef_.T + self.intercept_
