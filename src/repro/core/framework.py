"""The ActiveDP interactive framework (paper Section 3.1).

Training phase (one :meth:`ActiveDP.step` per iteration):

1. the ADP sampler picks a query instance from the unlabeled pool;
2. the user designs an LF based on the query instance;
3. the LF joins the collected set ``Lambda_t`` and its output on the query
   instance becomes a pseudo-label;
4. LabelPick selects a helpful LF subset ``Lambda*_t``; the label model is
   trained on the corresponding columns of the label matrix;
5. the active-learning model is trained on the pseudo-labelled subset.

Inference phase (:meth:`ActiveDP.aggregate_labels`): ConFusion tunes a
confidence threshold on the validation set and combines the two models'
predictions into training labels with high accuracy and coverage, which are
then used to train the downstream model.

All mutable run state lives in a :class:`~repro.core.state.TrainingState`
(label matrices grown incrementally, model caches guarded by dirty flags),
so a run can be snapshotted/resumed and :meth:`refit` only re-runs the
stages whose inputs actually changed since the previous refit.
"""

from __future__ import annotations

import numpy as np

from repro.active_learning import ADPSampler, BaseSampler, QueryContext, get_sampler
from repro.core.config import ActiveDPConfig
from repro.core.confusion import AggregatedLabels, ConFusion
from repro.core.evaluation import fit_end_model, score_end_model, score_labels
from repro.core.labelpick import LabelPick, LabelPickResult
from repro.core.pseudo_labels import PseudoLabeledSet
from repro.core.results import IterationRecord
from repro.core.state import TrainingState
from repro.labeling.lf import ABSTAIN, LabelFunction
from repro.label_models import EM_LABEL_MODELS, get_label_model
from repro.models.logistic_regression import LogisticRegression
from repro.utils.rng import RandomState, ensure_rng


class ActiveDP:
    """Interactive labelling framework bridging active learning and data programming.

    Parameters
    ----------
    train:
        Unlabeled training pool (its ground-truth labels are read only by the
        simulated user and by diagnostic metrics, never by the framework).
    valid:
        Holdout validation split with labels, used for LabelPick's accuracy
        pruning and ConFusion's threshold tuning.
    config:
        Hyper-parameters; ``None`` uses :class:`ActiveDPConfig` defaults.
    random_state:
        Seed or generator for the sampler's tie-breaking.
    """

    def __init__(
        self,
        train,
        valid,
        config: ActiveDPConfig | None = None,
        random_state: RandomState = None,
    ):
        self.train = train
        self.valid = valid
        self.config = config or ActiveDPConfig()
        self.n_classes = train.n_classes

        self.sampler = self._build_sampler(self.config)
        self.labelpick = LabelPick(
            glasso_alpha=self.config.glasso_alpha,
            min_queries=self.config.min_labelpick_queries,
            accuracy_threshold=self.config.accuracy_threshold,
        )
        self.confusion = ConFusion()

        self.state = TrainingState.initial(train, valid, ensure_rng(random_state))

    # ----------------------------------------------------- state accessors
    @property
    def rng(self) -> np.random.Generator:
        return self.state.rng

    # Read-only pass-throughs so callers can read the run state through the
    # framework object; writes go to ``self.state``.
    @property
    def lfs(self) -> list[LabelFunction]:
        return self.state.lfs

    @property
    def pseudo(self) -> PseudoLabeledSet:
        return self.state.pseudo

    @property
    def queried(self) -> list[int]:
        return self.state.queried

    @property
    def selection(self) -> LabelPickResult:
        return self.state.selection

    @property
    def label_model(self):
        return self.state.label_model

    @property
    def al_model(self):
        return self.state.al_model

    @property
    def threshold(self) -> float | None:
        return self.state.threshold

    @property
    def iteration(self) -> int:
        return self.state.iteration

    # ------------------------------------------------------ snapshot/resume
    def snapshot(self) -> TrainingState:
        """Deep copy of the run state, suitable for forking or persisting."""
        return self.state.snapshot()

    def restore(self, state: TrainingState, copy: bool = True) -> None:
        """Resume from a previously captured :meth:`snapshot`.

        With ``copy=True`` (default) the framework works on its own copy so
        the caller's snapshot stays pristine.
        """
        self.state = state.snapshot() if copy else state

    # ------------------------------------------------------------- training
    def step(self, user) -> IterationRecord:
        """Run one training-phase iteration with the given *user*.

        The user object must expose ``design_lf(query_index)`` returning a
        :class:`~repro.labeling.LabelFunction` or ``None``.
        """
        state = self.state
        query_index = self.select_query()
        state.queried.append(query_index)

        lf = user.design_lf(query_index)
        pseudo_label = ABSTAIN
        if lf is not None and lf not in state.lfs:
            pseudo_label = self.add_lf(lf, query_index)
        elif lf is not None:
            # Duplicate LF: still record the pseudo-label for the query.
            pseudo_label = self._record_pseudo_label(lf, query_index)

        self.refit()
        return self.record_iteration(query_index, lf, pseudo_label)

    def record_iteration(
        self, query_index: int, lf: LabelFunction | None, pseudo_label: int = ABSTAIN
    ) -> IterationRecord:
        """Close the current iteration: its record, read off the refitted state.

        Every ActiveDP-backed run makes its ``IterationRecord`` here
        (:meth:`step` and the LF-set replay); advances the iteration count.
        """
        state = self.state
        record = IterationRecord(
            iteration=state.iteration,
            query_index=query_index,
            lf_name=lf.name if lf is not None else None,
            pseudo_label=int(pseudo_label),
            n_lfs=len(state.lfs),
            n_selected_lfs=len(state.selection.selected_indices),
            threshold=state.threshold,
            **state.fit_counters(),
        )
        state.iteration += 1
        return record

    def run(self, user, n_iterations: int) -> list[IterationRecord]:
        """Run *n_iterations* training iterations and return their records."""
        if n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        return [self.step(user) for _ in range(n_iterations)]

    def select_query(self) -> int:
        """Use the configured sampler to pick the next query instance."""
        state = self.state
        candidates = np.setdiff1d(
            np.arange(len(self.train)), np.asarray(state.queried, dtype=int)
        )
        if candidates.size == 0:
            raise RuntimeError("the entire training pool has already been queried")
        context = QueryContext(
            dataset=self.train,
            candidates=candidates,
            al_proba=state.al_proba_train,
            lm_proba=state.lm_proba_train,
            queried_indices=np.asarray(state.queried, dtype=int),
            queried_labels=self._queried_pseudo_labels(),
            rng=self.rng,
        )
        return self.sampler.select(context)

    def add_lf(self, lf: LabelFunction, query_index: int | None = None) -> int:
        """Add a user-returned LF to ``Lambda_t`` (and record its pseudo-label).

        Returns the pseudo-label recorded for *query_index* (:data:`ABSTAIN`
        when no query index is given or the LF abstains on its own query
        instance).
        """
        state = self.state
        state.lfs.append(lf)
        train_column = state.train_matrix.append(lf)
        state.valid_matrix.append(lf)
        state.mark_lf_added()
        if query_index is None:
            return ABSTAIN
        return self._record_pseudo_label(lf, query_index, column=train_column)

    def refit(self, force: bool = False) -> None:
        """Re-run LabelPick and retrain whichever models have stale inputs.

        The dirty flags on :class:`TrainingState` track whether the LF set or
        the pseudo-labelled set changed since the last refit; stages whose
        inputs are unchanged keep their (deterministic) fitted models and
        cached predictions.  ``force=True`` reruns every stage regardless —
        except that a label-model fit whose selection (and therefore input
        matrix) is unchanged reuses the carried converged fit instead of
        re-running EM over it.
        """
        state = self.state
        lfs_dirty = force or state.lfs_dirty
        pseudo_dirty = force or state.pseudo_dirty

        selection_changed = False
        if lfs_dirty or pseudo_dirty:
            previous = list(state.selection.selected_indices)
            self._run_labelpick()
            selection_changed = previous != list(state.selection.selected_indices)

        # Columns are append-only, so an unchanged selection means the label
        # model's input matrix is bit-identical and the fit can be skipped.
        lm_changed = False
        if force or selection_changed:
            self._fit_label_model()
            lm_changed = True

        al_changed = False
        if pseudo_dirty:
            self._fit_al_model()
            al_changed = True

        if lm_changed or al_changed:
            self._tune_threshold()

        state.clear_dirty()

    # ------------------------------------------------------------ inference
    def aggregate_labels(self) -> AggregatedLabels:
        """ConFusion aggregation of the training pool (Eq. 1).

        Depending on the configuration's ablation switches this degrades to
        label-model-only labels (``use_confusion=False``) or AL-model-only
        labels (no LFs collected yet).

        Aggregation always reflects *all* collected LFs and pseudo-labels:
        :meth:`step` refits before returning, but an LF added through
        :meth:`add_lf` without a :meth:`refit` leaves the models stale, so
        any dirty state is flushed (a regular :meth:`refit`) before
        aggregating.
        """
        state = self.state
        if state.lfs_dirty or state.pseudo_dirty:
            self.refit()
        n_train = len(self.train)
        lm_proba = state.lm_proba_train
        al_proba = state.al_proba_train
        lm_covered = self._lm_covered(state.train_matrix.matrix)

        if lm_proba is None and al_proba is None:
            uniform = np.full((n_train, self.n_classes), 1.0 / self.n_classes)
            return AggregatedLabels(
                labels=np.full(n_train, ABSTAIN, dtype=int),
                proba=uniform,
                accepted=np.zeros(n_train, dtype=bool),
                source=np.full(n_train, "rejected", dtype=object),
                threshold=1.0,
            )

        if not self.config.use_confusion or al_proba is None:
            # Label-model-only aggregation (Baseline / LabelPick ablations).
            proba = lm_proba if lm_proba is not None else np.full(
                (n_train, self.n_classes), 1.0 / self.n_classes
            )
            accepted = lm_covered.copy()
            labels = np.full(n_train, ABSTAIN, dtype=int)
            labels[accepted] = np.argmax(proba[accepted], axis=1)
            source = np.where(accepted, "lm", "rejected").astype(object)
            return AggregatedLabels(labels, proba, accepted, source, threshold=1.0)

        if lm_proba is None:
            # Reachable only when no label model exists (empty selection), so
            # there is no fitted class prior to fall back to; the covered mask
            # is all-False then and these rows are never adopted anyway.
            lm_proba = np.full((n_train, self.n_classes), 1.0 / self.n_classes)

        threshold = state.threshold if state.threshold is not None else 1.0
        return self.confusion.aggregate(al_proba, lm_proba, lm_covered, threshold)

    def generate_labels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(indices, hard_labels, soft_labels)`` for downstream training."""
        aggregated = self.aggregate_labels()
        indices = np.flatnonzero(aggregated.accepted)
        return indices, aggregated.labels[indices], aggregated.proba[indices]

    def train_end_model(self, C: float = 1.0) -> LogisticRegression | None:
        """Train the downstream logistic-regression model on the aggregated labels."""
        indices, labels, _ = self.generate_labels()
        return fit_end_model(self.train, indices, labels, C=C)

    def evaluate_end_model(self, test, C: float = 1.0) -> float:
        """Train the end model and return its accuracy on the *test* split.

        Without any labels yet this is the validation majority class's
        accuracy.
        """
        return score_end_model(self.train_end_model(C=C), test, self.valid)

    # ----------------------------------------------------------- diagnostics
    def label_quality(self) -> dict:
        """Accuracy/coverage of the aggregated training labels (uses ground truth)."""
        indices, labels, _ = self.generate_labels()
        return score_labels(self.train, indices, labels)

    @property
    def selected_lfs(self) -> list[LabelFunction]:
        """The LF subset currently selected by LabelPick."""
        return self.state.selection.select(self.state.lfs)

    # ------------------------------------------------------------- internals
    def _build_sampler(self, config: ActiveDPConfig) -> BaseSampler:
        if config.sampler == "adp":
            return ADPSampler(alpha=config.alpha)
        return get_sampler(config.sampler)

    def _record_pseudo_label(self, lf: LabelFunction, query_index: int, column=None) -> int:
        """Record ``lf``'s output on *query_index* as a pseudo-label."""
        state = self.state
        if column is None:
            column = state.train_matrix.apply(lf)
        pseudo_label = state.pseudo.add(
            query_index, lf, self.train, output=int(column[query_index])
        )
        if pseudo_label != ABSTAIN:
            state.mark_pseudo_added()
        return pseudo_label

    def _queried_pseudo_labels(self) -> np.ndarray:
        """Pseudo-labels aligned with the query order (ABSTAIN when none recorded)."""
        state = self.state
        mapping = dict(zip(state.pseudo.indices.tolist(), state.pseudo.labels.tolist()))
        return np.array([mapping.get(idx, ABSTAIN) for idx in state.queried], dtype=int)

    def _run_labelpick(self) -> None:
        state = self.state
        if not state.lfs:
            state.selection = LabelPickResult(selected_indices=[])
            return
        if not self.config.use_labelpick:
            state.selection = LabelPickResult(selected_indices=list(range(len(state.lfs))))
            return
        query_matrix = (
            state.train_matrix.rows(state.pseudo.indices)
            if len(state.pseudo)
            else np.empty((0, len(state.lfs)), dtype=int)
        )
        state.selection = self.labelpick.select(
            state.lfs,
            state.valid_matrix.matrix,
            self.valid.labels,
            query_matrix,
            state.pseudo.labels,
            self.n_classes,
            state=state.labelpick,
        )

    def _fit_label_model(self) -> None:
        state = self.state
        selected = list(state.selection.selected_indices)
        if not selected:
            state.label_model = None
            state.lm_fit_selection = None
            state.lm_proba_train = None
            state.lm_proba_valid = None
            return
        train_matrix = state.train_matrix.columns(selected)
        model = state.label_model
        # Columns are append-only, so an identical selection means the carried
        # model was fitted on this exact matrix — EM from a converged fit is a
        # no-op, skip it entirely (only forced refits land here unchanged).
        reuse = model is not None and state.lm_fit_selection == selected
        if reuse and state.lm_proba_train is not None:
            # The cached probabilities were computed from this exact model and
            # matrix; recomputing them would reproduce them bit for bit.
            return
        if reuse:
            state.lm_proba_train = model.predict_proba(train_matrix)
        else:
            warm_start = self._label_model_warm_start(selected)
            kwargs = {}
            if self.config.label_model in EM_LABEL_MODELS:
                kwargs = {"early_stop": True}
            model = get_label_model(
                self.config.label_model, n_classes=self.n_classes, **kwargs
            )
            state.lm_proba_train = model.fit_predict_proba(
                train_matrix, warm_start=warm_start
            )
            state.label_model = model
            state.lm_fit_selection = selected
            state.lm_em_iterations += int(getattr(model, "n_iter_", 0) or 0)
            state.lm_fits += 1
            if getattr(model, "warm_started_", False):
                state.lm_warm_fits += 1
            if getattr(model, "converged_", False):
                state.lm_converged_fits += 1
            final_loss = getattr(model, "final_loss_", None)
            if final_loss is not None:
                state.lm_final_loss = float(final_loss)
            # Only threshold tuning reads the validation posterior, and only
            # once an AL model exists: :meth:`_lm_proba_valid` predicts it then.
            state.lm_proba_valid = None

    def _label_model_warm_start(self, selected: list[int]):
        """Warm-start payload for fitting the *selected* columns, or ``None``.

        The previous fit seeds the next one whenever the selections
        *intersect*: every selected column the previous fit covered maps
        onto its carried parameters and brand-new columns keep their cold
        initialisation.  Columns the previous fit covered but the new
        selection dropped simply fall out of the map — LabelPick churn
        (supersets, subsets, partial swaps) never forces a cold start.
        """
        state = self.state
        prev_model = state.label_model
        prev_selection = state.lm_fit_selection
        if prev_model is None or prev_selection is None:
            return None
        export = getattr(prev_model, "export_warm_start", None)
        if export is None:
            return None
        previous_position = {lf: pos for pos, lf in enumerate(prev_selection)}
        column_map = np.array(
            [previous_position.get(lf, -1) for lf in selected], dtype=int
        )
        if not np.any(column_map >= 0):
            # Disjoint selections: nothing to carry over.
            return None
        return export(column_map=column_map)

    def _fit_al_model(self) -> None:
        state = self.state
        if len(state.pseudo) < 2 or state.pseudo.n_classes_observed() < 2:
            state.al_model = None
            state.al_proba_train = None
            state.al_proba_valid = None
            return
        model = LogisticRegression(C=self.config.al_model_C, n_classes=self.n_classes)
        coef_init, intercept_init = self._al_model_warm_start()
        model.fit(
            state.pseudo.features(self.train),
            state.pseudo.labels,
            coef_init=coef_init,
            intercept_init=intercept_init,
        )
        state.al_fits += 1
        if getattr(model, "warm_started_", False):
            state.al_warm_fits += 1
        state.al_model = model
        state.al_proba_train = model.predict_proba(self.train.features)
        state.al_proba_valid = model.predict_proba(self.valid.features)

    def _al_model_warm_start(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Previous AL-model coefficients seeding the next L-BFGS run, if any.

        Only a genuinely fitted previous model qualifies — the degenerate
        single-class fallback carries zero coefficients, which *is* the cold
        initialisation.  Shape mismatches are handled (ignored) by
        ``LogisticRegression.fit`` itself.
        """
        prev = self.state.al_model
        if prev is None or getattr(prev, "_constant_class", None) is not None:
            return None, None
        coef = getattr(prev, "coef_", None)
        intercept = getattr(prev, "intercept_", None)
        if coef is None:
            return None, None
        return coef, intercept

    def _tune_threshold(self) -> None:
        state = self.state
        if not self.config.use_confusion or state.al_proba_valid is None:
            state.threshold = None
            return
        lm_proba_valid = self._lm_proba_valid()
        if lm_proba_valid is None:
            # No label model (empty selection): no fitted class prior exists,
            # and the covered mask below is all-False, so the uniform rows
            # never reach the tuning objective.
            lm_proba_valid = np.full(
                (len(self.valid), self.n_classes), 1.0 / self.n_classes
            )
        lm_covered_valid = self._lm_covered(state.valid_matrix.matrix)
        state.threshold = self.confusion.tune_threshold(
            state.al_proba_valid,
            lm_proba_valid,
            lm_covered_valid,
            self.valid.labels,
        )

    def _lm_proba_valid(self) -> np.ndarray | None:
        """The label model's validation posterior, predicted on first read after a fit.

        ``None`` while no label model exists.  The model and the columns it
        was fitted on (``lm_fit_selection``) are unchanged until the next
        fit, which clears the cache, so the prediction is the one the fit
        itself would have made.
        """
        state = self.state
        if state.lm_proba_valid is None and state.label_model is not None:
            state.lm_proba_valid = state.label_model.predict_proba(
                state.valid_matrix.columns(state.lm_fit_selection)
            )
        return state.lm_proba_valid

    def _lm_covered(self, matrix: np.ndarray) -> np.ndarray:
        """Mask of instances with at least one activated *selected* LF."""
        selected = self.state.selection.selected_indices
        if matrix.shape[1] == 0 or not selected:
            return np.zeros(matrix.shape[0], dtype=bool)
        return np.any(matrix[:, selected] != ABSTAIN, axis=1)
