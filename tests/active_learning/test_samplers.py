"""Tests for the query-selection strategies."""

import numpy as np
import pytest

from repro.active_learning import (
    ADPSampler,
    BaseSampler,
    LALSampler,
    PassiveSampler,
    QueryContext,
    SEUSampler,
    UncertaintySampler,
    get_sampler,
    prediction_entropy,
)
from repro.experiments.samplers import TABLE4_SAMPLERS

ALL_SAMPLER_NAMES = list(TABLE4_SAMPLERS.values())


def _context(dataset, rng, al_proba=None, lm_proba=None, queried=(), labels=()):
    candidates = np.setdiff1d(np.arange(len(dataset)), np.asarray(queried, dtype=int))
    return QueryContext(
        dataset=dataset,
        candidates=candidates,
        al_proba=al_proba,
        lm_proba=lm_proba,
        queried_indices=np.asarray(queried, dtype=int),
        queried_labels=np.asarray(labels, dtype=int),
        rng=rng,
    )


def _peaked_proba(n, n_classes=2, uncertain_index=None):
    proba = np.zeros((n, n_classes))
    proba[:, 0] = 0.95
    proba[:, 1] = 0.05
    if uncertain_index is not None:
        proba[uncertain_index] = 1.0 / n_classes
    return proba


class TestPredictionEntropy:
    def test_uniform_has_maximum_entropy(self):
        proba = np.array([[0.5, 0.5], [0.9, 0.1], [1.0, 0.0]])
        entropy = prediction_entropy(proba)
        assert entropy[0] > entropy[1] > entropy[2]
        assert entropy[0] == pytest.approx(np.log(2))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            prediction_entropy(np.array([0.5, 0.5]))


class TestRegistry:
    @pytest.mark.parametrize("name", ALL_SAMPLER_NAMES)
    def test_get_sampler(self, name):
        assert isinstance(get_sampler(name), BaseSampler)

    def test_unknown_sampler_raises(self):
        with pytest.raises(ValueError):
            get_sampler("bogus")

    def test_registry_is_table4_under_one_name_each(self):
        for name in TABLE4_SAMPLERS.values():
            assert isinstance(get_sampler(name), BaseSampler)
        for name in ("us", "qbc", "margin", "ADP"):
            with pytest.raises(ValueError):
                get_sampler(name)


@pytest.mark.parametrize("name", ALL_SAMPLER_NAMES)
class TestSelectionContract:
    def test_selected_index_is_a_candidate(self, name, tiny_text_split, rng):
        train = tiny_text_split.train
        proba = rng.dirichlet([1, 1], size=len(train))
        queried = [0, 1, 2, 3, 4]
        labels = [0, 1, 0, 1, 0]
        context = _context(train, rng, al_proba=proba, lm_proba=proba,
                           queried=queried, labels=labels)
        choice = get_sampler(name).select(context)
        assert choice in context.candidates

    def test_works_without_any_model(self, name, tiny_text_split, rng):
        context = _context(tiny_text_split.train, rng)
        choice = get_sampler(name).select(context)
        assert choice in context.candidates


class TestUncertaintySampler:
    def test_picks_most_uncertain(self, tiny_text_split, rng):
        train = tiny_text_split.train
        proba = _peaked_proba(len(train), uncertain_index=17)
        context = _context(train, rng, al_proba=proba)
        assert UncertaintySampler().select(context) == 17

    def test_falls_back_to_label_model_proba(self, tiny_text_split, rng):
        train = tiny_text_split.train
        proba = _peaked_proba(len(train), uncertain_index=23)
        context = _context(train, rng, lm_proba=proba)
        assert UncertaintySampler().select(context) == 23


class TestADPSampler:
    def test_alpha_one_follows_al_model_only(self, tiny_text_split, rng):
        train = tiny_text_split.train
        al = _peaked_proba(len(train), uncertain_index=5)
        lm = _peaked_proba(len(train), uncertain_index=30)
        context = _context(train, rng, al_proba=al, lm_proba=lm)
        assert ADPSampler(alpha=1.0).select(context) == 5

    def test_alpha_zero_follows_label_model_only(self, tiny_text_split, rng):
        train = tiny_text_split.train
        al = _peaked_proba(len(train), uncertain_index=5)
        lm = _peaked_proba(len(train), uncertain_index=30)
        context = _context(train, rng, al_proba=al, lm_proba=lm)
        assert ADPSampler(alpha=0.0).select(context) == 30

    def test_balanced_alpha_prefers_jointly_uncertain(self, tiny_text_split, rng):
        train = tiny_text_split.train
        al = _peaked_proba(len(train))
        lm = _peaked_proba(len(train))
        al[7] = [0.5, 0.5]
        lm[7] = [0.5, 0.5]
        al[12] = [0.5, 0.5]   # only AL uncertain here
        context = _context(train, rng, al_proba=al, lm_proba=lm)
        assert ADPSampler(alpha=0.5).select(context) == 7

    def test_invalid_alpha_raises(self):
        with pytest.raises(ValueError):
            ADPSampler(alpha=1.5)

    def test_missing_models_falls_back_to_random(self, tiny_text_split, rng):
        context = _context(tiny_text_split.train, rng)
        assert ADPSampler().select(context) in context.candidates


class TestSEUSampler:
    def test_prefers_docs_with_high_coverage_keywords(self, tiny_text_split, rng):
        train = tiny_text_split.train
        # With uniform uncertainty, SEU scores reduce to keyword coverage.
        lm = np.full((len(train), 2), 0.5)
        context = _context(train, rng, lm_proba=lm)
        choice = SEUSampler().select(context)
        assert choice in context.candidates
        assert len(train.token_sets[choice]) > 0

    def test_tabular_falls_back_to_uncertainty(self, tiny_tabular_split, rng):
        train = tiny_tabular_split.train
        proba = _peaked_proba(len(train), uncertain_index=3)
        context = _context(train, rng, al_proba=proba)
        assert SEUSampler().select(context) == 3

    def test_scores_do_not_depend_on_the_hash_seed(self):
        """Token-set iteration order is hash-randomised; SEU scores must not be.

        Scores are computed in fresh interpreters under two PYTHONHASHSEEDs,
        with the default keyword cap and with one that truncates most
        documents, and compared byte for byte.
        """
        import subprocess
        import sys

        from repro.runner.fleet import subprocess_env

        code = (
            "import hashlib, numpy as np\n"
            "from repro.active_learning import QueryContext, SEUSampler, seu\n"
            "from repro.datasets import load_dataset\n"
            "train = load_dataset('youtube', scale=1.0, random_state=0).train\n"
            "proba = np.random.default_rng(1).dirichlet([1, 1], size=len(train))\n"
            "context = QueryContext(dataset=train, candidates=np.arange(len(train)),\n"
            "                       lm_proba=proba, rng=np.random.default_rng(0))\n"
            "for cap in (seu.MAX_KEYWORDS_PER_DOC, 5):\n"
            "    seu.MAX_KEYWORDS_PER_DOC = cap\n"
            "    scores = SEUSampler().scores(context)\n"
            "    print(hashlib.sha256(scores.tobytes()).hexdigest())\n"
        )
        outputs = set()
        for seed in (1, 2):
            env = subprocess_env({"PYTHONHASHSEED": str(seed)})
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1


class TestLALSampler:
    def test_uses_uncertainty_fallback_with_few_labels(self, tiny_text_split, rng):
        train = tiny_text_split.train
        proba = _peaked_proba(len(train), uncertain_index=11)
        context = _context(train, rng, al_proba=proba, queried=[0, 1], labels=[0, 1])
        assert LALSampler().select(context) == 11

    def test_learned_mode_selects_valid_candidate(self, tiny_text_split, rng):
        train = tiny_text_split.train
        proba = rng.dirichlet([1, 1], size=len(train))
        queried = list(range(12))
        labels = [train.labels[i] for i in queried]
        context = _context(train, rng, al_proba=proba, queried=queried, labels=labels)
        choice = LALSampler().select(context)
        assert choice in context.candidates


class TestQueryContext:
    def test_requires_candidates(self, tiny_text_split, rng):
        with pytest.raises(ValueError):
            QueryContext(dataset=tiny_text_split.train, candidates=np.array([]), rng=rng)
