"""Golden values of every caller of the damped mean-field fixed point.

The light mean-field inference feeds six user-visible results: the iCRF
mean-field E-step, the streaming E-step, cross-validated precision (§6.1),
the leave-one-out confirmation check (§5.2), the exact batch gain (§6.2)
and the per-candidate information / source gains (§4.2–4.3, both
hypothetical-inference modes, sequential and threaded).  Their outputs are
frozen under ``tests/golden/meanfield_paths.json`` and compared
**exactly**, so any refactoring of the fixed point or of the hypothetical
evaluation has to reproduce them bit for bit.

To re-record after an intentional semantic change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_meanfield.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.api.specs import GuidanceSpec, InferenceSpec, SessionSpec, StreamSpec
from repro.crf.partition import ComponentIndex
from repro.datasets import load_dataset
from repro.effort.batching import exact_batch_gain
from repro.effort.crossval import estimate_precision
from repro.guidance.gain import GainConfig, GainEstimator
from repro.inference.icrf import ICrf
from repro.streaming.process import StreamingFactChecker
from repro.streaming.stream import stream_from_database
from repro.validation.oracle import SimulatedUser
from repro.validation.process import ValidationProcess
from repro.validation.robustness import ConfirmationChecker

GOLDEN_PATH = Path(__file__).parent / "golden" / "meanfield_paths.json"


def _icrf_meanfield() -> dict:
    """Mean-field EM on the whole corpus, then on a labelled subset."""
    database = load_dataset("wiki", seed=42, scale=0.3)
    icrf = ICrf.from_spec(
        database, InferenceSpec(estep_mode="meanfield", em_iterations=3), seed=5
    )
    first = icrf.infer()
    database.label(2, 1)
    database.label(7, 0)
    subset = np.arange(0, database.num_claims, 2, dtype=np.intp)
    second = icrf.infer(claim_subset=subset)
    return {
        "first_marginals": first.marginals.tolist(),
        "first_grounding": first.grounding.values.tolist(),
        "second_marginals": second.marginals.tolist(),
        "second_grounding": second.grounding.values.tolist(),
    }


def _streaming(incremental: bool) -> dict:
    """Weights and marginals after 40 arrivals, with user labels mid-stream."""
    database = load_dataset("wiki", seed=7, scale=0.4)
    spec = SessionSpec(
        mode="streaming", stream=StreamSpec(incremental=incremental)
    )
    checker = StreamingFactChecker.from_spec(spec, seed=3)
    weights = []
    arrived = []
    for index, arrival in enumerate(stream_from_database(database)):
        if index == 40:
            break
        update = checker.observe(arrival)
        weights.append(update.weights.values.tolist())
        if arrival.claim is not None:
            arrived.append(arrival.claim.claim_id)
        if index in (12, 25):
            checker.record_label(arrived[len(arrived) // 2], index % 2)
    return {
        "weights": weights,
        "probabilities": np.asarray(checker.database.probabilities).tolist(),
    }


def _labelled_process(labels: int, error_probability: float = 0.0):
    database = load_dataset("wiki", seed=33, scale=0.15)
    spec = SessionSpec(guidance=GuidanceSpec(strategy="uncertainty"))
    user = SimulatedUser(error_probability=error_probability, seed=0)
    process = ValidationProcess.from_spec(database, spec, user=user, seed=0)
    process.initialize()
    for _ in range(labels):
        process.step()
    return process


def _crossval() -> dict:
    # A careless user, so that held-out labels and re-inferred values
    # disagree; the estimates are thresholded hit rates, so a grid of
    # fold layouts and step counts is what makes them sensitive to the
    # fixed point's exact values.
    process = _labelled_process(20, error_probability=0.35)
    return {
        f"folds{folds}_steps{steps}_seed{seed}": estimate_precision(
            process, folds=folds, meanfield_steps=steps, seed=seed
        )
        for folds in (2, 3, 5)
        for steps in (1, 2, 4)
        for seed in range(4)
    }


def _robustness() -> dict:
    process = _labelled_process(12)
    database = process.database
    truth = database.truth_vector()
    labelled = [int(c) for c in database.labelled_indices]
    for claim in labelled[::3]:
        database.label(claim, 1 - int(truth[claim]))
    model = process.icrf.model
    components = ComponentIndex(database)
    default = ConfirmationChecker().sweep(model, components)
    smooth = ConfirmationChecker(meanfield_steps=6, damping=0.5).sweep(
        model, components
    )
    return {
        "checked": default.checked,
        "suspects": default.suspects,
        "suspects_damped": smooth.suspects,
        "weights_after": model.weights.values.tolist(),
    }


def _trained_estimator(**config):
    database = load_dataset("wiki", seed=42, scale=0.3)
    icrf = ICrf.from_spec(database, InferenceSpec(em_iterations=2), seed=9)
    icrf.infer()
    for claim, value in ((1, 1), (4, 0), (10, 1)):
        database.label(claim, value)
    estimator = GainEstimator(
        icrf.model, ComponentIndex(database), config=GainConfig(**config),
        seed=21,
    )
    return estimator, database


def _exact_batch() -> dict:
    estimator, database = _trained_estimator()
    components = estimator.components
    batches = {
        "pair": [0, 2],
        "triple": [3, 5, 6],
        "component": [
            int(c) for c in components.component_of_claim(0)
            if not database.is_labelled(int(c))
        ][:4],
    }
    return {
        name: exact_batch_gain(database, estimator, claims)
        for name, claims in batches.items()
    }


def _gains() -> dict:
    results = {}
    for mode in ("meanfield", "gibbs"):
        for label, config in (
            ("sequential", {}),
            ("parallel", {"parallel": True, "max_workers": 2}),
            ("exact", {"entropy_method": "exact"}),
            ("global", {"localize": False}),
        ):
            estimator, database = _trained_estimator(
                inference_mode=mode, **config
            )
            candidates = list(range(0, database.num_claims, 3))
            key = f"{mode}_{label}"
            results[f"{key}_information"] = estimator.information_gains(
                candidates
            ).tolist()
            results[f"{key}_source"] = estimator.source_gains(
                candidates
            ).tolist()
            estimator.close()
    return results


GOLDEN_CASES = {
    "icrf_meanfield": _icrf_meanfield,
    "streaming_incremental": lambda: _streaming(True),
    "streaming_rebuild": lambda: _streaming(False),
    "crossval": _crossval,
    "robustness": _robustness,
    "exact_batch_gain": _exact_batch,
    "gains": _gains,
}


@pytest.fixture(scope="module")
def golden() -> dict:
    if os.environ.get("REGEN_GOLDEN"):
        payload = {name: compute() for name, compute in GOLDEN_CASES.items()}
        GOLDEN_PATH.write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"golden fixture {GOLDEN_PATH} missing; record it with REGEN_GOLDEN=1"
        )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_meanfield_golden(golden, name):
    expected = golden[name]
    # A JSON round trip gives both sides the same container types.
    actual = json.loads(json.dumps(GOLDEN_CASES[name]()))
    assert set(actual) == set(expected)
    for key, value in expected.items():
        assert actual[key] == value, f"{name}/{key} diverged from the golden fixture"
