"""The numeric core as plain numpy functions.

Label-model EM steps (:mod:`repro.numerics.em`), graphical-lasso block
sweeps (:mod:`repro.numerics.glasso`) and the relative-loss early-stopping
rule (:mod:`repro.numerics.convergence`).  See ``docs/numerics.md``.
"""

from repro.numerics.convergence import RelativeLossStop, relative_change

__all__ = ["RelativeLossStop", "relative_change"]
