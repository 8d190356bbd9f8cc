"""User simulation: candidate LF spaces, simulated LF designers and oracles.

The paper evaluates every framework with a simulated user (Section 4.1.4):
for textual datasets the user returns keyword LFs whose keyword occurs in the
query instance and whose training-set accuracy exceeds a threshold; for
tabular datasets the user returns decision stumps with the query instance on
the boundary.  This package implements that protocol, the label-noise variant
used in Table 5, and the instance-labelling oracle used by uncertainty
sampling and Revising LF.
"""

from repro.simulation.candidate_space import (
    CandidateLF,
    enumerate_keyword_lfs,
    enumerate_threshold_lfs,
    keyword_lf_candidates,
    threshold_lf_candidates,
)
from repro.simulation.simulated_user import SimulatedUser
from repro.simulation.label_noise import NoisySimulatedUser
from repro.simulation.oracle import Oracle

__all__ = [
    "CandidateLF",
    "keyword_lf_candidates",
    "threshold_lf_candidates",
    "enumerate_keyword_lfs",
    "enumerate_threshold_lfs",
    "SimulatedUser",
    "NoisySimulatedUser",
    "Oracle",
]
