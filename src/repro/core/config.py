"""Configuration object for the ActiveDP framework."""

from __future__ import annotations

from dataclasses import dataclass

from repro.active_learning import SAMPLER_NAMES
from repro.label_models import LABEL_MODEL_NAMES


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
        Name of the query-selection strategy, one of Table 4's five:
        ``"passive"``, ``"uncertainty"``, ``"lal"``, ``"seu"`` or ``"adp"``,
        resolved through :func:`repro.active_learning.get_sampler`.
        ``"adp"`` is built with ``alpha``; the others take no parameters.
    alpha:
        ADP trade-off factor between the AL model's and the label model's
        entropy.  The paper uses 0.5 for textual and 0.99 for tabular
        datasets.
    label_model:
        Label-model registry name: ``"metal"``, ``"generative"`` or
        ``"majority_vote"``, resolved through
        :func:`repro.label_models.get_label_model`.
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

    def __post_init__(self):
        if self.sampler not in SAMPLER_NAMES:
            raise ValueError(
                f"sampler must be one of {list(SAMPLER_NAMES)}, got {self.sampler!r}"
            )
        if self.label_model not in LABEL_MODEL_NAMES:
            raise ValueError(
                f"label_model must be one of {list(LABEL_MODEL_NAMES)}, "
                f"got {self.label_model!r}"
            )
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
