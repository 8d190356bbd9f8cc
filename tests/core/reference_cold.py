"""ActiveDP with every refit cold-started, kept as a test oracle.

``ColdActiveDP`` runs the shipped framework with its three warm starts
removed: the label model's EM never receives the previous fit, the AL
model's L-BFGS starts from zero coefficients, and LabelPick gets no carried
state, so each structure-learning call estimates its covariance and graphical
lasso from scratch.  Everything else (query selection, stopping rules,
aggregation) is the shipped code path.  Warm runs must agree with this
reference on headline label quality while doing less optimisation work;
``benchmarks/bench_paper_scale.py`` times the two against each other.
"""

from __future__ import annotations

import contextlib

from repro.core.framework import ActiveDP
from repro.core.labelpick import LabelPick


class _StatelessLabelPick(LabelPick):
    """LabelPick that drops any carried state, so every call starts cold."""

    def select(self, *args, state=None, **kwargs):
        return super().select(*args, **kwargs)


class ColdActiveDP(ActiveDP):
    """The shipped framework minus its warm starts."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.labelpick = _StatelessLabelPick(
            glasso_alpha=self.labelpick.glasso_alpha,
            min_queries=self.labelpick.min_queries,
            accuracy_threshold=self.labelpick.accuracy_threshold,
        )

    def _label_model_warm_start(self, selected):
        return None

    def _al_model_warm_start(self):
        return None, None


@contextlib.contextmanager
def cold_pipelines():
    """Make ``bind_activedp`` build :class:`ColdActiveDP` inside the block.

    Every ActiveDP-backed run binds through it (the ``activedp`` and
    ``lfset`` pipelines, serving sessions).  Trials run in this process through ``repro.runner.executor.run_trial``
    then execute the cold reference; the content keys are unchanged, so the
    histories must not be written to a shared result store.
    """
    import repro.baselines.activedp as pipeline_module

    shipped = pipeline_module.ActiveDP
    pipeline_module.ActiveDP = ColdActiveDP
    try:
        yield
    finally:
        pipeline_module.ActiveDP = shipped
