"""The glasso selects the historical solver's Markov blankets on a real trial.

Every ``graphical_lasso`` call of a small seeded ``activedp`` youtube trial
is recorded, then replayed through the historical solver (the oracle in
``reference_glasso``) and through the production one.  LabelPick keeps the
label's Markov blanket, so that is what must be identical on every call;
the precisions agree to the solvers' own tolerance (both stop once a lasso
sweep moves no weight by 1e-6, which ``1 / denom`` scales up to ~1e-5 on
precision entries of order 10).  Against the feature-sign oracle in the same
module, the production solver's estimates must be identical bit for bit.
"""

import numpy as np
import pytest
import reference_glasso as reference

from repro.graphical.glasso import graphical_lasso
from repro.graphical.markov_blanket import markov_blanket


@pytest.fixture(scope="module")
def calls():
    return reference.record_glasso_calls(seed=0, scale=0.3, iterations=30)


def test_the_trial_exercises_warm_and_cold_fits(calls):
    warm = [kwargs.get("warm_start") is not None for _, kwargs in calls]

    assert len(calls) >= 10
    assert any(warm) and not all(warm)


def test_every_call_selects_the_historical_blanket(calls):
    for number, (args, kwargs) in enumerate(calls):
        result = graphical_lasso(*args, **kwargs)
        # The oracle's default is the historical absolute rule; the replayed
        # calls were made under the relative rule, the only one LabelPick has.
        expected = reference.graphical_lasso(*args, early_stop=True, **kwargs)

        label = result.precision.shape[0] - 1
        assert markov_blanket(result.precision, label) == markov_blanket(
            expected.precision, label
        ), f"call {number}"
        assert (result.n_iter, result.converged, result.warm_started) == (
            expected.n_iter, expected.converged, expected.warm_started
        ), f"call {number}"
        np.testing.assert_allclose(
            result.precision, expected.precision, rtol=1e-5, atol=1e-5,
            err_msg=f"call {number}",
        )


def test_every_call_matches_the_feature_sign_oracle_bit_for_bit(calls):
    for number, (args, kwargs) in enumerate(calls):
        result = graphical_lasso(*args, **kwargs)
        expected = reference.graphical_lasso_feature_sign(*args, **kwargs)

        assert np.array_equal(result.covariance, expected.covariance), f"call {number}"
        assert np.array_equal(result.precision, expected.precision), f"call {number}"
        assert (
            result.n_iter, result.converged, result.warm_started, result.final_change
        ) == (
            expected.n_iter, expected.converged, expected.warm_started,
            expected.final_change,
        ), f"call {number}"
