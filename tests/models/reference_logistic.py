"""The historical logistic regression, kept as a test oracle.

A verbatim copy of ``repro.models.logistic_regression.LogisticRegression``
before large sparse inputs were fit over a CSR design: every fit builds the
dense ``np.hstack`` design and takes ``scipy.special.softmax``.  The
production model must stay bit-identical to this one on the dense path and
predict the same labels on the CSR path; ``tests/models/test_lr_replay.py``
and ``benchmarks/bench_lr_replay.py`` replay a trial's fits through both.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize
from scipy.special import softmax

from repro.models.base import BaseClassifier
from repro.utils.validation import check_2d, check_consistent_length, check_labels


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
        if C <= 0:
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
        """
        X = check_2d(X, "X")
        y = check_labels(y, name="y")
        check_consistent_length(X, y)
        if sample_weight is not None:
            sample_weight = np.asarray(sample_weight, dtype=float)
            check_consistent_length(X, sample_weight)
            if np.any(sample_weight < 0):
                raise ValueError("sample_weight must be non-negative")
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

        design = self._add_intercept(X)
        n_params = design.shape[1]
        one_hot = np.zeros((n_samples, total_classes))
        one_hot[np.arange(n_samples), y] = 1.0
        weight_sum = sample_weight.sum()
        alpha = 1.0 / self.C

        def objective(flat_weights):
            W = flat_weights.reshape(total_classes, n_params)
            logits = design @ W.T
            probs = softmax(logits, axis=1)
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
        self._check_is_fitted()
        X = check_2d(X, "X")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fitted with "
                f"{self.n_features_in_}"
            )
        if getattr(self, "_constant_class", None) is not None:
            proba = np.full((X.shape[0], self.n_classes_), 0.1 / max(self.n_classes_ - 1, 1))
            proba[:, self._constant_class] = 0.9
            proba /= proba.sum(axis=1, keepdims=True)
            return proba
        logits = X @ self.coef_.T + self.intercept_
        return softmax(logits, axis=1)

    def decision_function(self, X) -> np.ndarray:
        """Return raw class scores (logits) for each row of *X*."""
        self._check_is_fitted()
        X = check_2d(X, "X")
        return X @ self.coef_.T + self.intercept_

    # -------------------------------------------------------------- helpers
    def _add_intercept(self, X: np.ndarray) -> np.ndarray:
        if not self.fit_intercept:
            return X
        return np.hstack([X, np.ones((X.shape[0], 1))])


def record_lr_calls(
    dataset: str, seed: int, scale: float, iterations: int, eval_every: int | None = None
):
    """Every ``LogisticRegression.fit`` call of one seeded ``activedp`` trial.

    The end model is trained at every *eval_every*-th iteration (default:
    the last only).  Returns ``(split, calls)``: the trial's generated dataset split and, in
    order, each fit's ``(params, args, kwargs)``, where *params* are the
    model's constructor arguments.  Replaying one through either model
    reproduces that fit, warm start included.
    """
    from repro.datasets import load_dataset
    from repro.experiments.protocol import EvaluationProtocol
    from repro.models import logistic_regression
    from repro.runner.executor import run_trial_on_split

    production = logistic_regression.LogisticRegression
    fit = production.fit
    calls = []

    def recording(model, *args, **kwargs):
        params = {
            name: getattr(model, name)
            for name in ("C", "max_iter", "fit_intercept", "n_classes", "tol")
        }
        calls.append((params, args, kwargs))
        return fit(model, *args, **kwargs)

    protocol = EvaluationProtocol(
        n_iterations=iterations,
        eval_every=eval_every or iterations,
        n_seeds=1,
        dataset_scale=scale,
    )
    split = load_dataset(dataset, scale=scale, random_state=seed)
    production.fit = recording
    try:
        run_trial_on_split("activedp", split, protocol, seed)
    finally:
        production.fit = fit
    return split, calls
