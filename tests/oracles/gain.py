"""Mutate-and-restore gain oracle.

The production :class:`~repro.guidance.gain.GainEstimator` answers "what
would the marginals be if claim ``c`` were labelled ``v``?" by reading a
:class:`~repro.guidance.gain.HypotheticalView` over a captured snapshot,
never touching the database.  This oracle answers the same question the
literal way: label ``c`` in the shared database, run the light inference
against the live state, and restore the state afterwards.  The damped
fixed point is written out again here, independently of
:meth:`CrfModel.mean_field`, so the comparison checks it too.

Only the light inference differs; entropies and the gain formula are the
production ones.  The oracle mutates shared state, so it evaluates
candidates strictly one at a time.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.crf.gibbs import GibbsSampler
from repro.crf.potentials import sigmoid
from repro.guidance.gain import GainEstimator, HypotheticalView
from repro.utils.rng import stream_rng


class MutateRestoreGainEstimator(GainEstimator):
    """Gain estimator whose hypotheses label the live database."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.config.parallel:
            raise ValueError("the mutate-and-restore oracle is sequential only")

    def _light_inference(
        self,
        scope: np.ndarray,
        state,
        context,
        stream_key: Tuple[int, ...],
    ) -> np.ndarray:
        database = self._database
        pins = state.pins if isinstance(state, HypotheticalView) else {}
        saved = database.clone_state()
        try:
            for claim, value in pins.items():
                database.label(claim, value)
            if self.config.inference_mode == "meanfield":
                return self._live_mean_field(scope)
            sampler = GibbsSampler(
                self._model,
                burn_in=self.config.gibbs_burn_in,
                num_samples=self.config.gibbs_samples,
                seed=stream_rng(context.entropy, *stream_key),
                engine=self._engine,
            )
            return sampler.sample(claim_subset=scope).marginals
        finally:
            database.restore_state(saved)

    def _live_mean_field(self, scope: np.ndarray) -> np.ndarray:
        """Damped fixed point over the live database, restricted to ``scope``."""
        database = self._database
        marginals = np.asarray(database.probabilities, dtype=float).copy()
        labelled = database.labels
        free = np.asarray(
            [int(c) for c in scope if int(c) not in labelled], dtype=np.intp
        )
        if free.size == 0:
            return marginals
        damping = self.config.damping
        for _ in range(self.config.meanfield_steps):
            logits = self._model.marginal_logits(marginals)
            updated = sigmoid(logits[free])
            marginals[free] = damping * marginals[free] + (1.0 - damping) * updated
        return marginals
