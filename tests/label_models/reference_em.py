"""The full-row label-model EM, kept as a test oracle.

A copy of ``repro.numerics.em`` and of both EM label models' fit and
predict paths before EM ran over distinct vote patterns: every iteration
touches every (instance, LF) cell, and the loss and the absolute-change stop
rule are plain means over rows.  The two models' reference M-steps
(``_m_step``) live here too; only tests call them.

The oracle classes subclass the production models and keep their names, so
a warm-start payload exported by either one is accepted by the other.  The
production models must agree with them to 1e-12 on posteriors and take the
same number of EM iterations; ``tests/label_models/test_vote_patterns.py``
and ``benchmarks/bench_em_replay.py`` check that.
"""

from __future__ import annotations

import numpy as np

from repro.label_models import generative, metal
from repro.label_models.base import LabelModelWarmStart
from repro.labeling.lf import ABSTAIN
from repro.numerics import RelativeLossStop
from repro.utils.rng import ensure_rng


# --------------------------------------------------------------- generative
def generative_masks(outcomes: np.ndarray, n_outcomes: int) -> np.ndarray:
    """Stacked per-outcome indicator masks, shape ``(n_outcomes, n, k)``."""
    return np.stack(
        [(outcomes == outcome).astype(float) for outcome in range(n_outcomes)]
    )


def _generative_e_step(masks, log_priors, log_cpts):
    """Shared E-step: responsibilities and mean negative log-likelihood."""
    n_outcomes, n_instances = masks.shape[:2]
    log_proba = np.tile(log_priors, (n_instances, 1))
    for outcome in range(n_outcomes):
        log_proba = log_proba + masks[outcome] @ log_cpts[:, :, outcome]
    shift = log_proba.max(axis=1, keepdims=True)
    proba = np.exp(log_proba - shift)
    norm = proba.sum(axis=1, keepdims=True)
    loss = -np.mean(shift[:, 0] + np.log(norm[:, 0]))
    return proba / norm, loss


def generative_step(masks, responsibilities, log_priors, smoothing):
    """One generative-model EM iteration: M-step, then E-step.

    Returns ``(cpts, responsibilities, loss)`` where ``loss`` is the mean
    per-instance negative log-likelihood *under the new CPTs*.
    """
    n_outcomes = masks.shape[0]
    cpts = np.stack(
        [masks[outcome].T @ responsibilities for outcome in range(n_outcomes)],
        axis=2,
    )
    cpts = cpts + smoothing
    cpts = cpts / cpts.sum(axis=2, keepdims=True)
    log_cpts = np.log(np.clip(cpts, 1e-12, 1.0))
    responsibilities, loss = _generative_e_step(masks, log_priors, log_cpts)
    return cpts, responsibilities, loss


def generative_posterior(
    outcomes: np.ndarray, cpts: np.ndarray, class_priors: np.ndarray
) -> np.ndarray:
    """Posterior responsibilities under fixed CPTs (prediction path)."""
    masks = generative_masks(outcomes, cpts.shape[2])
    log_priors = np.log(np.clip(class_priors, 1e-12, 1.0))
    log_cpts = np.log(np.clip(cpts, 1e-12, 1.0))
    proba, _ = _generative_e_step(masks, log_priors, log_cpts)
    return proba


# -------------------------------------------------------------------- metal
def metal_masks(
    matrix: np.ndarray, n_classes: int, abstain: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(fired, not_fired, vote_masks, vote_index)`` for the MeTaL steps."""
    fired = (matrix != abstain).astype(float)
    vote_masks = np.stack(
        [(matrix == cls).astype(float) for cls in range(n_classes)]
    )
    vote_index = np.clip(matrix, 0, None)
    return fired, 1.0 - fired, vote_masks, vote_index


def _metal_e_step(fired, not_fired, vote_masks, log_priors, accuracies, propensities):
    """Shared E-step: posterior over Y given votes, accuracies, propensities."""
    n_classes = vote_masks.shape[0]
    wrong_share = 1.0 / max(n_classes - 1, 1)
    acc = np.clip(accuracies, 1e-6, 1 - 1e-6)
    propensity = np.clip(propensities, 1e-6, 1 - 1e-6)
    log_acc = np.log(acc)
    log_wrong = np.log((1.0 - acc) * wrong_share)

    n_instances = fired.shape[0]
    log_proba = np.tile(log_priors, (n_instances, 1))
    log_proba = log_proba + not_fired @ np.log(1.0 - propensity)
    log_proba = log_proba + fired @ (np.log(propensity) + log_wrong[:, None])
    agree_minus_wrong = log_acc - log_wrong
    agree = np.stack(
        [vote_masks[cls] @ agree_minus_wrong for cls in range(n_classes)], axis=1
    )
    log_proba = log_proba + agree
    shift = log_proba.max(axis=1, keepdims=True)
    proba = np.exp(log_proba - shift)
    norm = proba.sum(axis=1, keepdims=True)
    loss = -np.mean(shift[:, 0] + np.log(norm[:, 0]))
    return proba / norm, loss


def metal_step(
    fired, not_fired, vote_masks, vote_index, never_fired,
    responsibilities, log_priors, smoothing, prior_accuracy, low, high,
):
    """One MeTaL-model EM iteration: M-step, then E-step.

    Returns ``(accuracies, propensities, responsibilities, loss)``.
    """
    class_mass = responsibilities.sum(axis=0) + 1e-12
    fired_mass = fired.T @ responsibilities
    propensities = np.clip(
        (fired_mass + smoothing * 0.1) / (class_mass[None, :] + smoothing * 0.2),
        1e-4,
        1.0 - 1e-4,
    )
    agree_weight = np.take_along_axis(responsibilities, vote_index, axis=1)
    expected_correct = (fired * agree_weight).sum(axis=0)
    total = fired_mass.sum(axis=1)
    accuracies = np.clip(
        (expected_correct + smoothing * prior_accuracy) / (total + smoothing),
        low,
        high,
    )
    # LFs that never fire carry no evidence; keep the prior accuracy.
    accuracies = np.where(never_fired, prior_accuracy, accuracies)
    responsibilities, loss = _metal_e_step(
        fired, not_fired, vote_masks, log_priors, accuracies, propensities
    )
    return accuracies, propensities, responsibilities, loss


def metal_posterior(
    matrix: np.ndarray,
    abstain: int,
    accuracies: np.ndarray,
    propensities: np.ndarray,
    class_priors: np.ndarray,
    n_classes: int,
) -> np.ndarray:
    """Posterior responsibilities under fixed parameters (prediction path)."""
    fired, not_fired, vote_masks, _ = metal_masks(matrix, n_classes, abstain)
    log_priors = np.log(np.clip(class_priors, 1e-12, 1.0))
    proba, _ = _metal_e_step(
        fired, not_fired, vote_masks, log_priors, accuracies, propensities
    )
    return proba


# ------------------------------------------------------------------- models
class GenerativeLabelModel(generative.GenerativeLabelModel):
    """The generative model with its full-row EM loop and prediction path."""

    def fit(
        self,
        label_matrix: np.ndarray,
        warm_start: LabelModelWarmStart | None = None,
        **kwargs,
    ) -> "GenerativeLabelModel":
        """Run full-row EM to estimate the per-LF conditional probability tables."""
        matrix = self._validate_matrix(label_matrix)
        n_instances, n_lfs = matrix.shape

        self.class_priors_ = (
            self.class_balance
            if self.class_balance is not None
            else np.full(self.n_classes, 1.0 / self.n_classes)
        )
        if n_lfs == 0 or n_instances == 0:
            self.cpts_ = np.zeros((n_lfs, self.n_classes, self.n_classes + 1))
            self.n_iter_ = 0
            self.converged_ = True
            self.final_loss_ = None
            self.warm_started_ = False
            return self

        outcomes = self._encode(matrix)

        responsibilities = None
        applicable = self._check_warm_start(warm_start, n_lfs)
        if applicable is not None:
            params, column_map = applicable
            carried = np.asarray(params.get("cpts", np.empty((0,))), dtype=float)
            if carried.ndim == 3 and carried.shape[1:] == (
                self.n_classes,
                self.n_classes + 1,
            ):
                mapped = column_map >= 0
                responsibilities = self._posterior(
                    outcomes[:, mapped], carried[column_map[mapped]]
                )
        self.warm_started_ = responsibilities is not None
        if responsibilities is None:
            rng = ensure_rng(self.random_state)
            cold_start = self._initial_responsibilities(matrix, rng)
            responsibilities, warm_reference = cold_start, False
        else:
            warm_reference = True

        masks = generative_masks(outcomes, self.n_classes + 1)
        log_priors = np.log(np.clip(self.class_priors_, 1e-12, 1.0))

        previous = responsibilities if warm_reference else None
        stopper = RelativeLossStop(self.early_stop_rtol) if self.early_stop else None

        cpts = None
        self.n_iter_ = 0
        self.converged_ = False
        self.final_loss_ = None
        for iteration in range(1, self.max_iter + 1):
            cpts, responsibilities, loss = generative_step(
                masks, responsibilities, log_priors, self.smoothing
            )
            self.n_iter_ = iteration
            self.final_loss_ = float(loss)
            if stopper is not None:
                if stopper.update(self.final_loss_):
                    self.converged_ = True
                    break
            else:
                if previous is not None:
                    change = float(np.mean(np.abs(responsibilities - previous)))
                    if change < self.tol:
                        self.converged_ = True
                        break
                previous = responsibilities
        self.cpts_ = cpts
        return self

    def predict_proba(self, label_matrix: np.ndarray) -> np.ndarray:
        """Posterior class probabilities under the fitted CPTs, row by row."""
        if not hasattr(self, "cpts_"):
            raise RuntimeError("GenerativeLabelModel is not fitted yet; call fit() first")
        matrix = self._validate_matrix(label_matrix)
        if matrix.shape[1] != self.cpts_.shape[0]:
            raise ValueError(
                f"label_matrix has {matrix.shape[1]} LF columns, model was "
                f"fitted with {self.cpts_.shape[0]}"
            )
        if matrix.shape[1] == 0:
            return self._prior_proba(matrix.shape[0])
        proba = self._posterior(self._encode(matrix), self.cpts_)
        uncovered = ~np.any(matrix != ABSTAIN, axis=1)
        proba[uncovered] = self.class_priors_
        return proba

    def _m_step(self, outcomes: np.ndarray, responsibilities: np.ndarray) -> np.ndarray:
        """Responsibility-weighted outcome counts, one matmul per outcome."""
        n_outcomes = self.n_classes + 1
        masks = generative_masks(outcomes, n_outcomes)
        cpts = np.stack(
            [masks[outcome].T @ responsibilities for outcome in range(n_outcomes)],
            axis=2,
        )
        cpts += self.smoothing
        cpts /= cpts.sum(axis=2, keepdims=True)
        return cpts

    def _posterior(self, outcomes: np.ndarray, cpts: np.ndarray) -> np.ndarray:
        """Full-row E-step under the given CPTs."""
        return generative_posterior(outcomes, cpts, self.class_priors_)


class MeTaLLabelModel(metal.MeTaLLabelModel):
    """The MeTaL model with its full-row EM loop and prediction path."""

    def fit(
        self,
        label_matrix: np.ndarray,
        warm_start: LabelModelWarmStart | None = None,
        **kwargs,
    ) -> "MeTaLLabelModel":
        """Estimate per-LF accuracies and propensities by full-row EM."""
        matrix = self._validate_matrix(label_matrix)
        n_instances, n_lfs = matrix.shape
        self.n_lfs_ = n_lfs
        self.class_priors_ = (
            self.class_balance
            if self.class_balance is not None
            else np.full(self.n_classes, 1.0 / self.n_classes)
        )
        if n_lfs == 0 or n_instances == 0:
            self.accuracies_ = np.zeros(0)
            self.propensities_ = np.zeros((0, self.n_classes))
            self.n_iter_ = 0
            self.converged_ = True
            self.final_loss_ = None
            self.warm_started_ = False
            return self

        self.accuracies_ = np.full(n_lfs, self.prior_accuracy)
        marginal_fire = np.clip(np.mean(matrix != ABSTAIN, axis=0), 1e-3, 1.0)
        self.propensities_ = np.tile(marginal_fire[:, None], (1, self.n_classes))

        responsibilities = None
        applicable = self._check_warm_start(warm_start, n_lfs)
        if applicable is not None:
            params, column_map = applicable
            carried_acc = np.asarray(params.get("accuracies", np.empty(0)), dtype=float)
            carried_prop = np.asarray(
                params.get("propensities", np.empty((0, 0))), dtype=float
            )
            if (
                carried_acc.ndim == 1
                and carried_prop.shape == (carried_acc.shape[0], self.n_classes)
            ):
                mapped = column_map >= 0
                self.accuracies_[mapped] = carried_acc[column_map[mapped]]
                self.propensities_[mapped] = carried_prop[column_map[mapped]]
                responsibilities = self._posterior(matrix)
        self.warm_started_ = responsibilities is not None
        warm_reference = responsibilities is not None
        if responsibilities is None:
            rng = ensure_rng(self.random_state)
            responsibilities = self._initial_responsibilities(matrix, rng)

        fired, not_fired, vote_masks, vote_index = metal_masks(
            matrix, self.n_classes, ABSTAIN
        )
        never_fired = ~(matrix != ABSTAIN).any(axis=0)
        log_priors = np.log(np.clip(self.class_priors_, 1e-12, 1.0))
        low, high = self.accuracy_bounds

        previous = responsibilities if warm_reference else None
        stopper = RelativeLossStop(self.early_stop_rtol) if self.early_stop else None

        accuracies = propensities = None
        self.n_iter_ = 0
        self.converged_ = False
        self.final_loss_ = None
        for iteration in range(1, self.max_iter + 1):
            accuracies, propensities, responsibilities, loss = metal_step(
                fired, not_fired, vote_masks, vote_index, never_fired,
                responsibilities, log_priors, self.smoothing,
                self.prior_accuracy, low, high,
            )
            self.n_iter_ = iteration
            self.final_loss_ = float(loss)
            if stopper is not None:
                if stopper.update(self.final_loss_):
                    self.converged_ = True
                    break
            else:
                if previous is not None:
                    change = float(np.mean(np.abs(responsibilities - previous)))
                    if change < self.tol:
                        self.converged_ = True
                        break
                previous = responsibilities
        self.accuracies_ = accuracies
        self.propensities_ = propensities
        return self

    def predict_proba(self, label_matrix: np.ndarray) -> np.ndarray:
        """Posterior class probabilities under the fitted parameters, row by row."""
        if not hasattr(self, "accuracies_"):
            raise RuntimeError("MeTaLLabelModel is not fitted yet; call fit() first")
        matrix = self._validate_matrix(label_matrix)
        if matrix.shape[1] != self.n_lfs_:
            raise ValueError(
                f"label_matrix has {matrix.shape[1]} LF columns, model was "
                f"fitted with {self.n_lfs_}"
            )
        if self.n_lfs_ == 0:
            return self._prior_proba(matrix.shape[0])
        proba = self._posterior(matrix)
        uncovered = ~np.any(matrix != ABSTAIN, axis=1)
        proba[uncovered] = self.class_priors_
        return proba

    def _posterior(self, matrix: np.ndarray) -> np.ndarray:
        """Full-row E-step under the fitted parameters."""
        return metal_posterior(
            matrix,
            ABSTAIN,
            self.accuracies_,
            self.propensities_,
            self.class_priors_,
            self.n_classes,
        )

    def _m_step(self, matrix: np.ndarray, responsibilities: np.ndarray) -> None:
        """M-step: re-estimate accuracies (clamped) and class-conditional propensities."""
        low, high = self.accuracy_bounds
        fired = matrix != ABSTAIN
        fired_f = fired.astype(float)
        class_mass = responsibilities.sum(axis=0) + 1e-12
        fired_mass = fired_f.T @ responsibilities
        self.propensities_ = np.clip(
            (fired_mass + self.smoothing * 0.1)
            / (class_mass[None, :] + self.smoothing * 0.2),
            1e-4,
            1.0 - 1e-4,
        )
        agree_weight = np.take_along_axis(
            responsibilities, np.clip(matrix, 0, None), axis=1
        )
        expected_correct = (fired_f * agree_weight).sum(axis=0)
        total = fired_mass.sum(axis=1)
        accuracy = np.clip(
            (expected_correct + self.smoothing * self.prior_accuracy)
            / (total + self.smoothing),
            low,
            high,
        )
        accuracy[~fired.any(axis=0)] = self.prior_accuracy
        self.accuracies_ = accuracy


def record_label_model_calls(dataset: str, seed: int, scale: float, iterations: int):
    """Every label-model ``fit`` / ``predict_proba`` call of one ``activedp`` trial.

    Returns the calls in order as ``(kind, model_class_name, params, matrix,
    warm_start)``.  *kind* is ``"fit"``, ``"fit_predict_proba"`` or
    ``"predict_proba"``; *params* are the model's constructor arguments and
    *matrix* a copy of the label matrix.  A ``predict_proba`` call is made on
    the model of the preceding fit, and its *warm_start* is ``None``.
    Replaying a fit through either model reproduces it, warm start included.
    """
    from repro.datasets import load_dataset
    from repro.experiments.protocol import EvaluationProtocol
    from repro.runner.executor import run_trial_on_split

    classes = (generative.GenerativeLabelModel, metal.MeTaLLabelModel)
    methods = ("fit", "fit_predict_proba", "predict_proba")
    # ``None`` marks a method the class inherits: restoring deletes the wrapper.
    originals = {(cls, name): cls.__dict__.get(name) for cls in classes for name in methods}
    calls = []
    inside = []

    def params_of(model):
        names = [
            "n_classes", "max_iter", "tol", "smoothing", "class_balance",
            "random_state", "early_stop", "early_stop_rtol",
        ]
        if isinstance(model, metal.MeTaLLabelModel):
            names += ["prior_accuracy", "accuracy_bounds"]
        return {name: getattr(model, name) for name in names}

    def recording(method, name):
        def record(model, label_matrix, *args, **kwargs):
            if not inside:
                calls.append((
                    name, type(model).__name__, params_of(model),
                    np.array(label_matrix, dtype=int), kwargs.get("warm_start"),
                ))
            inside.append(name)
            try:
                return method(model, label_matrix, *args, **kwargs)
            finally:
                inside.pop()

        return record

    protocol = EvaluationProtocol(
        n_iterations=iterations, eval_every=iterations, n_seeds=1, dataset_scale=scale
    )
    split = load_dataset(dataset, scale=scale, random_state=seed)
    for cls, name in originals:
        setattr(cls, name, recording(getattr(cls, name), name))
    try:
        run_trial_on_split("activedp", split, protocol, seed)
    finally:
        for (cls, name), method in originals.items():
            if method is None:
                delattr(cls, name)
            else:
                setattr(cls, name, method)
    return calls
