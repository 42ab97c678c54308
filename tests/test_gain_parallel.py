"""Snapshot-isolated parallel gain evaluation (§5.1).

Four contracts are pinned down here:

* **Bit-for-bit equality** — ``GainConfig(parallel=True)`` must return
  exactly the same gains as sequential evaluation, in both inference
  modes, at every worker count.  Gibbs-mode candidate streams are pure
  functions of ``(root entropy, candidate, value)``, so neither the
  evaluation order nor the worker schedule may leak into a result.
* **Views ≡ mutate-and-restore** — snapshot/view evaluation returns
  exactly what labelling the live database and restoring it afterwards
  returns (the oracle in ``tests/oracles/gain.py``).
* **Dispatch** — ``parallel=True`` puts only Gibbs-mode candidates on
  worker threads over leased pool engines; mean-field candidates stay on
  the calling thread.
* **Cache dirtiness** — with ``cache_gains=True`` a cached gain is
  invalidated exactly when a label lands in the candidate's connected
  component, or when the model weights move; everything else keeps
  hitting.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api.specs import InferenceSpec
from repro.crf.model import CrfModel
from repro.crf.partition import ComponentIndex
from repro.crf.weights import CrfWeights
from repro.data.database import FactDatabase
from repro.data.entities import Claim, ClaimLink, Document, Source
from repro.data.stance import Stance
from repro.datasets import load_dataset
from repro.guidance.gain import GainConfig, GainEstimator
from repro.guidance.gain.executor import EnginePool
from repro.inference.icrf import ICrf

from tests.fixtures import build_micro_database
from tests.oracles.gain import MutateRestoreGainEstimator


def build_two_component_database() -> FactDatabase:
    """Two disjoint clusters: {c0, c1} via sA and {c2, c3} via sB."""
    sources = [
        Source("sA", features=[1.0, 0.2]),
        Source("sB", features=[-0.4, 0.6]),
    ]
    claims = [
        Claim("c0", truth=True),
        Claim("c1", truth=False),
        Claim("c2", truth=True),
        Claim("c3", truth=True),
    ]
    documents = [
        Document(
            "d0",
            source_id="sA",
            features=[0.9, 0.8],
            claim_links=(
                ClaimLink("c0", Stance.SUPPORT),
                ClaimLink("c1", Stance.REFUTE),
            ),
        ),
        Document(
            "d1",
            source_id="sB",
            features=[0.3, -0.2],
            claim_links=(
                ClaimLink("c2", Stance.SUPPORT),
                ClaimLink("c3", Stance.SUPPORT),
            ),
        ),
    ]
    return FactDatabase(sources, documents, claims)


def make_estimator(database=None, seed=1, **config_kwargs):
    database = database if database is not None else build_micro_database()
    model = CrfModel(database)
    config = GainConfig(**config_kwargs)
    estimator = GainEstimator(
        model, ComponentIndex(database), config=config, seed=seed
    )
    return estimator, database


def trained_wiki_model() -> CrfModel:
    """A wiki model with fitted weights and a few labels (real coupling)."""
    database = load_dataset("wiki", seed=42, scale=0.2)
    icrf = ICrf.from_spec(database, InferenceSpec(em_iterations=2), seed=9)
    icrf.infer()
    for claim, value in ((1, 1), (4, 0)):
        database.label(claim, value)
    return icrf.model


class TestParallelBitExact:
    @pytest.mark.parametrize("mode", ["meanfield", "gibbs"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_equals_sequential(self, mode, workers):
        sequential, db = make_estimator(inference_mode=mode)
        parallel, _ = make_estimator(
            inference_mode=mode, parallel=True, max_workers=workers
        )
        candidates = list(range(db.num_claims))
        assert np.array_equal(
            sequential.information_gains(candidates),
            parallel.information_gains(candidates),
        )
        sequential_src, _ = make_estimator(inference_mode=mode)
        parallel_src, _ = make_estimator(
            inference_mode=mode, parallel=True, max_workers=workers
        )
        assert np.array_equal(
            sequential_src.source_gains(candidates),
            parallel_src.source_gains(candidates),
        )

    @pytest.mark.parametrize("mode", ["meanfield", "gibbs"])
    def test_parallel_equals_sequential_exact_entropy(self, mode):
        sequential, db = make_estimator(
            inference_mode=mode, entropy_method="exact"
        )
        parallel, _ = make_estimator(
            inference_mode=mode,
            entropy_method="exact",
            parallel=True,
            max_workers=3,
        )
        candidates = list(range(db.num_claims))
        assert np.array_equal(
            sequential.information_gains(candidates),
            parallel.information_gains(candidates),
        )

    def test_gibbs_candidate_streams_are_order_independent(self):
        forward, db = make_estimator(inference_mode="gibbs")
        backward, _ = make_estimator(inference_mode="gibbs")
        candidates = list(range(db.num_claims))
        a = forward.information_gains(candidates)
        b = backward.information_gains(candidates[::-1])
        assert np.array_equal(a, b[::-1])

    def test_parallel_gibbs_leaves_database_untouched(self):
        estimator, db = make_estimator(
            inference_mode="gibbs", parallel=True, max_workers=4
        )
        before_probs = np.asarray(db.probabilities).copy()
        before_labels = dict(db.labels)
        estimator.information_gains(list(range(db.num_claims)))
        estimator.source_gains(list(range(db.num_claims)))
        assert np.array_equal(before_probs, db.probabilities)
        assert db.labels == before_labels

    def test_parallel_with_labels_present(self):
        sequential, db_a = make_estimator(inference_mode="gibbs")
        parallel, db_b = make_estimator(
            inference_mode="gibbs", parallel=True, max_workers=2
        )
        db_a.label(0, 1)
        db_b.label(0, 1)
        candidates = list(range(db_a.num_claims))
        a = sequential.information_gains(candidates)
        b = parallel.information_gains(candidates)
        assert a[0] == 0.0
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("localize", [True, False])
    def test_parallel_equals_sequential_without_localization(self, localize):
        sequential, db = make_estimator(
            inference_mode="gibbs", localize=localize
        )
        parallel, _ = make_estimator(
            inference_mode="gibbs", localize=localize,
            parallel=True, max_workers=2,
        )
        candidates = list(range(db.num_claims))
        assert np.array_equal(
            sequential.information_gains(candidates),
            parallel.information_gains(candidates),
        )


class TestMutateRestoreOracle:
    @pytest.mark.parametrize("mode", ["meanfield", "gibbs"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_views_equal_mutate_and_restore(self, mode, workers):
        model = trained_wiki_model()
        database = model.database
        assert model.weights.coupling != 0.0
        candidates = list(range(0, database.num_claims, 2))
        for entropy_method in ("approx", "exact"):
            for source_driven in (False, True):
                estimators = [
                    cls(
                        model, ComponentIndex(database),
                        config=GainConfig(
                            inference_mode=mode,
                            entropy_method=entropy_method,
                            **config,
                        ),
                        seed=3,
                    )
                    for cls, config in (
                        (MutateRestoreGainEstimator, {}),
                        (GainEstimator, {}),
                        (GainEstimator,
                         {"parallel": True, "max_workers": workers}),
                    )
                ]
                results = [
                    (e.source_gains if source_driven else e.information_gains)(
                        candidates
                    )
                    for e in estimators
                ]
                for estimator in estimators:
                    estimator.close()
                oracle = results[0]
                assert np.isfinite(oracle).all()
                for produced in results[1:]:
                    assert np.array_equal(oracle, produced)


class TestDispatch:
    @staticmethod
    def record(monkeypatch):
        """Record the evaluating thread of every candidate and every lease."""
        threads, leases = [], []
        original_gain = GainEstimator._gain
        original_lease = EnginePool.lease

        def gain(self, *args, **kwargs):
            threads.append(threading.get_ident())
            return original_gain(self, *args, **kwargs)

        def lease(self):
            leases.append(threading.get_ident())
            return original_lease(self)

        monkeypatch.setattr(GainEstimator, "_gain", gain)
        monkeypatch.setattr(EnginePool, "lease", lease)
        return threads, leases

    def test_parallel_meanfield_runs_on_calling_thread(self, monkeypatch):
        threads, leases = self.record(monkeypatch)
        estimator, db = make_estimator(
            inference_mode="meanfield", parallel=True, max_workers=4
        )
        estimator.information_gains(list(range(db.num_claims)))
        estimator.source_gains(list(range(db.num_claims)))
        assert len(threads) == 2 * db.num_claims
        assert set(threads) == {threading.get_ident()}
        assert leases == []

    def test_parallel_gibbs_leases_pool_engines_off_thread(self, monkeypatch):
        threads, leases = self.record(monkeypatch)
        estimator, db = make_estimator(
            inference_mode="gibbs", parallel=True, max_workers=2
        )
        estimator.information_gains(list(range(db.num_claims)))
        estimator.close()
        assert len(threads) == db.num_claims
        assert threading.get_ident() not in threads
        # One baseline per component plus two hypotheses per candidate.
        assert len(leases) >= 2 * db.num_claims
        assert threading.get_ident() not in leases

    def test_sequential_gibbs_uses_owning_engine(self, monkeypatch):
        threads, leases = self.record(monkeypatch)
        estimator, db = make_estimator(inference_mode="gibbs")
        estimator.information_gains(list(range(db.num_claims)))
        assert set(threads) == {threading.get_ident()}
        assert leases == []


class TestComponentGainCache:
    def test_cache_hits_on_unchanged_state(self):
        estimator, db = make_estimator(
            build_two_component_database(), cache_gains=True
        )
        candidates = list(range(db.num_claims))
        first = estimator.information_gains(candidates)
        cache = estimator.gain_cache
        assert cache.hits == 0 and cache.misses == len(candidates)
        second = estimator.information_gains(candidates)
        assert np.array_equal(first, second)
        assert cache.hits == len(candidates)
        assert cache.misses == len(candidates)

    def test_label_dirties_exactly_its_component(self):
        estimator, db = make_estimator(
            build_two_component_database(), cache_gains=True
        )
        estimator.information_gains([0, 1, 2, 3])
        cache = estimator.gain_cache
        # c0/c1 share component A; c2/c3 share component B.
        db.label(0, 1)
        hits_before, misses_before = cache.hits, cache.misses
        values = estimator.information_gains([1, 2, 3])
        # Component A (claim 1) was dirtied and re-evaluated; component B
        # (claims 2 and 3) kept hitting.
        assert cache.misses == misses_before + 1
        assert cache.hits == hits_before + 2
        fresh, _ = make_estimator(build_two_component_database())
        fresh_db = fresh._database
        fresh_db.label(0, 1)
        assert np.array_equal(
            values, fresh.information_gains([1, 2, 3])
        )

    def test_weights_change_clears_everything(self):
        estimator, db = make_estimator(
            build_two_component_database(), cache_gains=True
        )
        candidates = list(range(db.num_claims))
        estimator.information_gains(candidates)
        cache = estimator.gain_cache
        misses_before = cache.misses
        weights = CrfWeights.zeros(2, 2)
        weights.values[0] = 0.25
        estimator._model.set_weights(weights)
        estimator.information_gains(candidates)
        assert cache.misses == misses_before + len(candidates)

    def test_cached_gibbs_gains_are_stable_across_calls(self):
        cached, db = make_estimator(
            build_two_component_database(), inference_mode="gibbs",
            cache_gains=True,
        )
        candidates = list(range(db.num_claims))
        first = cached.information_gains(candidates)
        second = cached.information_gains(candidates)
        # Every candidate hit the cache, so the fresh root entropy of the
        # second call cannot change anything.
        assert np.array_equal(first, second)

    def test_cache_parallel_equals_sequential(self):
        sequential, db = make_estimator(
            build_two_component_database(), inference_mode="gibbs",
            cache_gains=True,
        )
        parallel, _ = make_estimator(
            build_two_component_database(), inference_mode="gibbs",
            cache_gains=True, parallel=True, max_workers=3,
        )
        candidates = list(range(db.num_claims))
        for _ in range(2):
            assert np.array_equal(
                sequential.information_gains(candidates),
                parallel.information_gains(candidates),
            )
