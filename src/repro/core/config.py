"""Configuration object for the ActiveDP framework."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ActiveDPConfig:
    """Hyper-parameters of an ActiveDP run.

    Attributes
    ----------
    sampler:
        Name of the query-selection strategy (``"adp"``, ``"uncertainty"``,
        ``"passive"``, ``"lal"``, ``"seu"``, ...), resolved through
        :func:`repro.active_learning.get_sampler`.
    alpha:
        ADP trade-off factor between the AL model's and the label model's
        entropy.  The paper uses 0.5 for textual and 0.99 for tabular
        datasets.
    label_model:
        Label-model registry name (``"metal"``, ``"generative"``,
        ``"majority_vote"``).
    use_labelpick:
        Enable the LabelPick LF-selection step (Section 3.4); disabling it is
        the "Baseline"/"ConFusion" ablation of Table 3.
    use_confusion:
        Enable the ConFusion aggregation step (Section 3.2); disabling it is
        the "Baseline"/"LabelPick" ablation of Table 3.
    accuracy_threshold:
        LabelPick prunes LFs whose validation accuracy is below
        ``random-guess accuracy``; this attribute overrides that bound if set
        (``None`` keeps the better-than-random rule).
    glasso_alpha:
        L1 penalty of the graphical lasso used to learn the LF/label
        dependency structure.
    al_model_C:
        Inverse regularisation strength of the logistic-regression
        active-learning model.
    retrain_every:
        Retrain the AL model and label model every this many iterations
        (1 reproduces the paper exactly; larger values speed up long runs).
    warm_start_label_model:
        Seed each label-model refit with the previous fit's parameters,
        intersection-mapped onto the new selection: every selected LF the
        previous fit covered starts EM at its converged parameters and
        brand-new LFs keep the cold initialisation (any overlap qualifies —
        supersets, subsets and partial churn alike).  ``False`` keeps the
        historical semantics: every refit runs EM from a cold start and
        never consults the previous fit (numerically the vectorised EM
        agrees with the old per-LF loops to ~1e-14, not bit for bit).
    warm_start_labelpick:
        Make LabelPick's structure learning incremental: the query-set
        covariance is maintained by appending only the new rows/columns and
        the graphical lasso resumes from the previous refit's estimate
        (shared survivors intersection-mapped).  The optimisation problem is
        unchanged — the estimate agrees with a cold start up to solver
        tolerance, not bit for bit.  ``False`` restarts structure learning
        from scratch on every refit (the historical semantics).  Either way
        the glasso solver agrees with the historical one on every selected
        Markov blanket, not bit for bit.
    warm_start_al_model:
        Seed each active-learning-model refit (L-BFGS logistic regression)
        with the previous fit's coefficients.  The objective is convex, so
        only the optimiser trajectory changes.  ``False`` starts every refit
        from zero coefficients (historical semantics, exactly).
    min_labelpick_queries:
        Minimum number of pseudo-labelled query instances before the
        graphical-lasso structure learning is attempted (before that, only
        the accuracy pruning step of LabelPick applies).
    adaptive_early_stop:
        Stop label-model EM and glasso sweeps on the *relative* change of
        their loss/iterate instead of the historical fixed absolute
        thresholds — size- and scale-independent, and warm-started refits
        converge in a couple of iterations instead of burning the full
        budget.  ``False`` restores the historical fixed-budget semantics:
        exactly (bit for bit) for label-model EM; the glasso keeps its
        absolute threshold and agrees with the historical solver on every
        selected Markov blanket.
    """

    sampler: str = "adp"
    alpha: float = 0.5
    label_model: str = "metal"
    use_labelpick: bool = True
    use_confusion: bool = True
    accuracy_threshold: float | None = None
    glasso_alpha: float = 0.01
    al_model_C: float = 1.0
    retrain_every: int = 1
    warm_start_label_model: bool = True
    warm_start_labelpick: bool = True
    warm_start_al_model: bool = True
    min_labelpick_queries: int = 8
    adaptive_early_stop: bool = True
    sampler_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.glasso_alpha < 0:
            raise ValueError("glasso_alpha must be non-negative")
        if self.al_model_C <= 0:
            raise ValueError("al_model_C must be positive")
        if self.retrain_every < 1:
            raise ValueError("retrain_every must be >= 1")
        if self.min_labelpick_queries < 2:
            raise ValueError("min_labelpick_queries must be >= 2")

    @classmethod
    def for_dataset_kind(cls, kind: str, **overrides) -> "ActiveDPConfig":
        """Return the paper's default configuration for ``"text"`` or ``"tabular"`` data.

        The only kind-dependent default is the ADP trade-off factor
        (alpha = 0.5 for text, 0.99 for tabular; Section 3.3).
        """
        if kind not in ("text", "tabular"):
            raise ValueError("kind must be 'text' or 'tabular'")
        alpha = 0.5 if kind == "text" else 0.99
        params = {"alpha": alpha}
        params.update(overrides)
        return cls(**params)
