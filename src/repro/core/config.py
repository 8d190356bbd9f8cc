"""Configuration object for the ActiveDP framework."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ActiveDPConfig:
    """Hyper-parameters of an ActiveDP run.

    The refit path itself is not configurable: every training step refits,
    the label model's EM, LabelPick's graphical lasso and the AL model's
    L-BFGS resume from the previous refit, and EM and the graphical lasso
    stop on the relative change of their loss/iterate (``docs/warm_starts.md``).

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
    min_labelpick_queries:
        Minimum number of pseudo-labelled query instances before the
        graphical-lasso structure learning is attempted (before that, only
        the accuracy pruning step of LabelPick applies).
    """

    sampler: str = "adp"
    alpha: float = 0.5
    label_model: str = "metal"
    use_labelpick: bool = True
    use_confusion: bool = True
    accuracy_threshold: float | None = None
    glasso_alpha: float = 0.01
    al_model_C: float = 1.0
    min_labelpick_queries: int = 8
    sampler_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.glasso_alpha < 0:
            raise ValueError("glasso_alpha must be non-negative")
        if self.al_model_C <= 0:
            raise ValueError("al_model_C must be positive")
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
