"""Information-gain machinery for user guidance (§4.2–§4.3).

The benefit of validating claim ``c`` is the expected uncertainty reduction

    IG(c) = H(Q) - [ P(c) · H(Q+) + (1 - P(c)) · H(Q-) ]        (Eq. 14–15)

where ``Q+`` / ``Q-`` are the databases obtained by *hypothetically*
confirming / refuting ``c`` and re-running light credibility inference.
:class:`GainEstimator` implements this for both the claim-configuration
entropy ``H_C`` (information-driven guidance) and the source-trust entropy
``H_S`` (source-driven guidance), with the efficiency levers of the paper:

* **Scalable entropy** (§4.1) — the linear approximation of Eq. 13 instead
  of exact enumeration.
* **Graph partitioning** (§5.1) — hypothetical input on ``c`` can only
  affect claims in ``c``'s connected component, so inference and entropy
  differences are restricted to it.
* **Parallelisation** (§5.1) — gains of different candidates are
  independent.  Every call captures one read-only
  :class:`~repro.guidance.gain.StateSnapshot`; the baseline reads it and
  each hypothesis reads a :class:`~repro.guidance.gain.HypotheticalView`
  pinning its label, so the database is never mutated and candidates can
  run in any order.  ``GainConfig(parallel=True)`` puts Gibbs-mode
  candidates on worker threads over leased kernel-backed engines, whose
  sweeps release the GIL; mean-field candidates always run on the calling
  thread, because the numpy fixed point holds the GIL and threads only
  slow it down.  Results are bit-for-bit identical either way.
* **Gain caching** (§5.1) — with ``localize=True`` a candidate's gain can
  only change when a label lands in its connected component (or the
  weights move), so ``cache_gains=True`` reuses evaluated gains across
  calls via per-component generation counters.

Hypothetical inference comes in two flavours: ``"meanfield"`` (default) —
a few damped fixed-point updates of the marginals, deterministic and
vector-fast; ``"gibbs"`` — a short throwaway Gibbs chain, closer to the
paper's sampling-based estimate but noisier and slower (the ``origin``
configuration of Fig. 2).  Gibbs-mode candidate streams are pure
functions of one root entropy draw per batched-gains call, keyed by
``(candidate, hypothesis)`` — evaluation order and worker schedule
cannot change any result.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.crf.entropy import (
    binary_entropy,
    component_entropy,
    MAX_EXACT_COMPONENT,
)
from repro.crf.gibbs import GibbsSampler
from repro.crf.model import CrfModel
from repro.crf.partition import ComponentIndex
from repro.data.database import FactDatabase
from repro.guidance.gain.cache import ComponentGainCache
from repro.guidance.gain.config import GainConfig
from repro.guidance.gain.executor import BaselineCache, EnginePool, map_ordered
from repro.guidance.gain.snapshot import HypotheticalView, StateSnapshot
from repro.utils.arrays import concat_ranges
from repro.utils.rng import RandomState, draw_entropy, ensure_rng, stream_rng

#: Stream-key prefixes of the per-call Gibbs generator tree: baseline
#: chains live under ``(_STREAM_BASELINE, component_key + 1)``,
#: hypothetical chains under ``(_STREAM_HYPOTHESIS, claim, value)``.
_STREAM_BASELINE = 1
_STREAM_HYPOTHESIS = 2


class _CallContext:
    """Shared state of one batched-gains call.

    Carries the root entropy of the call's Gibbs stream tree, the guarded
    per-component baseline cache (passed explicitly — no estimator
    attribute to race on), and the snapshot every candidate's views
    overlay.
    """

    #: Call-scoped scratch structure, never checkpointed.
    _STATE_EXCLUDED = ("entropy", "baselines", "snapshot")

    def __init__(
        self,
        entropy: Optional[int],
        baselines: BaselineCache,
        snapshot: StateSnapshot,
    ) -> None:
        self.entropy = entropy
        self.baselines = baselines
        self.snapshot = snapshot


class GainEstimator:
    """Evaluates IG_C (Eq. 15) and IG_S (Eq. 20) for candidate claims.

    Args:
        model: The CRF model (weights are read, never modified).
        components: Component index for localisation.
        config: Evaluation configuration.
        engine: Hot-path engine for Gibbs-mode hypothetical inference on
            the calling thread; pass the owning inference engine so gain
            evaluation runs the same backend as the E-step (defaults to
            the model's default backend).  With ``parallel`` set it is
            ignored and worker-local kernel-backed engines are leased
            instead.
        seed: Seed or generator (only Gibbs mode consumes randomness).
    """

    #: Rebuilt from the session spec on resume (STATE001); the generator
    #: ``_rng`` is the only checkpointed attribute and is carried by
    #: :meth:`ValidationProcess.state_dict`.
    _STATE_EXCLUDED = (
        "_model",
        "_database",
        "_config",
        "_components",
        "_engine",
        "_engine_pool",
        "_gain_cache",
    )

    def __init__(
        self,
        model: CrfModel,
        components: Optional[ComponentIndex] = None,
        config: Optional[GainConfig] = None,
        engine=None,
        seed: RandomState = None,
    ) -> None:
        self._model = model
        self._database = model.database
        self._config = config if config is not None else GainConfig()
        self._components = (
            components if components is not None else ComponentIndex(self._database)
        )
        self._engine = engine
        self._rng = ensure_rng(seed)
        self._engine_pool = EnginePool(model)
        self._gain_cache = (
            ComponentGainCache() if self._config.cache_gains else None
        )

    @property
    def model(self) -> CrfModel:
        """The CRF model whose light inference the gains run."""
        return self._model

    @property
    def config(self) -> GainConfig:
        """The active configuration."""
        return self._config

    @property
    def components(self) -> ComponentIndex:
        """Connected-component index used for localisation."""
        return self._components

    @property
    def gain_cache(self) -> Optional[ComponentGainCache]:
        """The cross-call gain cache, when ``cache_gains`` is enabled."""
        return self._gain_cache

    def close(self) -> None:
        """Release pooled worker engines; the estimator stays usable."""
        self._engine_pool.close()

    # ------------------------------------------------------------------
    # Public gains
    # ------------------------------------------------------------------

    def information_gain(self, claim_index: int) -> float:
        """IG_C(c): expected claim-entropy reduction of validating ``c``."""
        return float(self._gains([claim_index], source_driven=False)[0])

    def source_gain(self, claim_index: int) -> float:
        """IG_S(c): expected source-entropy reduction of validating ``c``."""
        return float(self._gains([claim_index], source_driven=True)[0])

    def information_gains(self, claim_indices: Sequence[int]) -> np.ndarray:
        """Vector of IG_C over candidates, optionally in parallel."""
        return self._gains(claim_indices, source_driven=False)

    def source_gains(self, claim_indices: Sequence[int]) -> np.ndarray:
        """Vector of IG_S over candidates, optionally in parallel."""
        return self._gains(claim_indices, source_driven=True)

    def _gains(
        self, claim_indices: Sequence[int], source_driven: bool
    ) -> np.ndarray:
        claim_indices = [int(c) for c in claim_indices]
        gibbs = self._config.inference_mode == "gibbs"
        # One root entropy draw per call keys the whole Gibbs stream tree;
        # every chain seed is a pure function of (root, candidate, value),
        # so the evaluation order and the worker schedule cannot change a
        # gain.  Mean-field mode is deterministic and consumes nothing.
        entropy = draw_entropy(self._rng) if gibbs else None
        context = _CallContext(
            entropy, BaselineCache(), StateSnapshot.capture(self._database)
        )

        cache = self._gain_cache
        if cache is not None:
            cache.sync(
                self._database.labels,
                self._component_key,
                self._model.weights.values.tobytes(),
            )

        def evaluate(claim: int) -> float:
            component = self._component_key(claim)
            if cache is not None:
                hit = cache.lookup(claim, source_driven, component)
                if hit is not None:
                    return hit
            value = self._gain(claim, source_driven, context)
            if cache is not None:
                cache.store(claim, source_driven, component, value)
            return value

        # Threads pay only for Gibbs chains, whose kernel-backed sweeps
        # release the GIL; the numpy fixed point holds it throughout.
        workers = self._config.max_workers if self._config.parallel and gibbs else 1
        return np.asarray(map_ordered(evaluate, claim_indices, workers))

    # ------------------------------------------------------------------
    # Core computation
    # ------------------------------------------------------------------

    def _component_key(self, claim_index: int) -> int:
        """Cache/stream key of the candidate's component (−1 = global)."""
        if self._config.localize:
            return int(self._components.component_of(claim_index))
        return -1

    def _scope(self, claim_index: int) -> np.ndarray:
        """Claims whose probabilities hypothetical input on ``c`` may move."""
        if self._config.localize:
            return self._components.component_of_claim(claim_index)
        return np.arange(self._database.num_claims, dtype=np.intp)

    def _gain(
        self, claim_index: int, source_driven: bool, context: _CallContext
    ) -> float:
        snapshot = context.snapshot
        if claim_index in snapshot.labels:
            return 0.0
        scope = self._scope(claim_index)
        # The baseline H(Q) must be measured after the *same* light
        # inference operator as H(Q+)/H(Q-), only without the hypothetical
        # label — otherwise the inference's smoothing of the marginals
        # masquerades as (negative) information gain for every candidate.
        key = self._component_key(claim_index)
        # Offset the key into non-negative spawn-key space: the
        # non-localised global key −1 maps to stream 0.
        base = context.baselines.get_or_compute(
            key,
            lambda: self._light_inference(
                scope, snapshot, context, (_STREAM_BASELINE, key + 1)
            ),
        )
        p = float(base[claim_index])

        def hypothesis(value: int) -> np.ndarray:
            return self._light_inference(
                scope,
                HypotheticalView(snapshot, {claim_index: value}),
                context,
                (_STREAM_HYPOTHESIS, claim_index, value),
            )

        positive = hypothesis(1)
        negative = hypothesis(0)

        entropy = self._source_entropy if source_driven else self._claim_entropy
        current = entropy(base, scope, snapshot)
        plus = entropy(positive, scope, snapshot)
        minus = entropy(negative, scope, snapshot)
        conditional = p * plus + (1.0 - p) * minus
        return float(current - conditional)

    def _light_inference(
        self,
        scope: np.ndarray,
        state: Union[StateSnapshot, HypotheticalView],
        context: _CallContext,
        stream_key: Tuple[int, ...],
    ) -> np.ndarray:
        """Marginals of ``state`` after light inference over ``scope``.

        ``state`` is the call's snapshot for the label-free baseline (run
        at most once per component per call: the guarded baseline cache
        blocks every other worker of the component meanwhile) and a view
        pinning the hypothetical label for ``Q+`` / ``Q-``.  Gibbs chains
        draw from the stream ``stream_key`` of the call's root entropy and
        run on the owning engine, or on a leased worker-local engine when
        ``parallel`` is set.
        """
        config = self._config
        if config.inference_mode == "meanfield":
            return self._model.mean_field(
                state, scope, steps=config.meanfield_steps, damping=config.damping
            )
        seed = stream_rng(context.entropy, *stream_key)
        if not config.parallel:
            return self._gibbs(scope, state, seed, self._engine)
        with self._engine_pool.lease() as engine:
            return self._gibbs(scope, state, seed, engine)

    def _gibbs(
        self,
        scope: np.ndarray,
        state: Union[StateSnapshot, HypotheticalView],
        seed: np.random.Generator,
        engine,
    ) -> np.ndarray:
        """Short throwaway Gibbs chain reading ``state``, not the database."""
        sampler = GibbsSampler(
            self._model,
            burn_in=self._config.gibbs_burn_in,
            num_samples=self._config.gibbs_samples,
            seed=seed,
            engine=engine,
        )
        return sampler.sample(claim_subset=scope, overlay=state).marginals

    # ------------------------------------------------------------------
    # Entropy restricted to a scope
    # ------------------------------------------------------------------

    #: Enumeration cap of the exact-entropy path.  Tighter than the global
    #: :data:`~repro.crf.entropy.MAX_EXACT_COMPONENT` because the gain
    #: estimator enumerates once per candidate and hypothesis (2 × |C^U|
    #: times per iteration), not once per database.
    _EXACT_ENTROPY_CAP = 12

    def _claim_entropy(
        self, marginals: np.ndarray, scope: np.ndarray, snapshot: StateSnapshot
    ) -> float:
        """H_C over the scope (entropy outside cancels in differences)."""
        if self._config.entropy_method == "exact":
            labelled = snapshot.labels
            free = np.asarray(
                [int(c) for c in scope if int(c) not in labelled], dtype=np.intp
            )
            if 0 < free.size <= min(self._EXACT_ENTROPY_CAP, MAX_EXACT_COMPONENT):
                # component_entropy thresholds the supplied marginals
                # directly — the database is never touched, so exact
                # entropies of different candidates run concurrently.
                return component_entropy(
                    self._model, free, probabilities=marginals
                )
        return float(binary_entropy(marginals[scope]).sum())

    def _source_entropy(
        self, marginals: np.ndarray, scope: np.ndarray, snapshot: StateSnapshot
    ) -> float:
        """H_S over sources touching the scope (Eq. 18, Eq. 17).

        Source trust is estimated from the thresholded marginals — the
        light-inference surrogate of the grounding of Eq. 17.  Fully
        vectorised over the cached bipartite CSR: one gather of the
        scope's source lists, one gather of those sources' claim lists,
        one segmented mean.
        """
        grounding = (marginals >= 0.5).astype(np.int8)
        label_indices, label_values = snapshot.label_arrays()
        if label_indices.size:
            grounding[label_indices] = label_values.astype(np.int8)
        claim_ptr, claim_sources, source_ptr, source_claims = (
            self._database.bipartite_csr()
        )
        scope = np.asarray(scope, dtype=np.intp)
        starts = claim_ptr[scope]
        counts = claim_ptr[scope + 1] - starts
        touched = np.unique(claim_sources[concat_ranges(starts, counts)])
        if touched.size == 0:
            return 0.0
        src_starts = source_ptr[touched]
        src_counts = source_ptr[touched + 1] - src_starts
        covered = src_counts > 0
        touched = touched[covered]
        src_starts = src_starts[covered]
        src_counts = src_counts[covered]
        if touched.size == 0:
            return 0.0
        gathered = source_claims[concat_ranges(src_starts, src_counts)]
        segment = np.repeat(np.arange(touched.size), src_counts)
        sums = np.bincount(
            segment,
            weights=grounding[gathered].astype(float),
            minlength=touched.size,
        )
        trust = sums / src_counts
        return float(binary_entropy(trust).sum())


def marginal_entropy_ranking(
    database: FactDatabase, candidates: Iterable[int]
) -> np.ndarray:
    """Candidates sorted by descending marginal entropy of ``P(c)``.

    Used by the *uncertainty* baseline of §8.4 and as a pre-filter when a
    candidate pool limit is configured.
    """
    candidates = np.asarray(list(candidates), dtype=np.intp)
    probabilities = np.asarray(database.probabilities)[candidates]
    entropies = binary_entropy(probabilities)
    order = np.argsort(-entropies, kind="stable")
    return candidates[order]
