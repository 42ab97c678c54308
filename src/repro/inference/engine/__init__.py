"""Pluggable inference engine — the vectorised hot path of iCRF.

The interactivity claims of the paper (Fig. 2 response times, the
linear-time Hessian-vector products of Proposition 1) stand or fall with
the cost of the E-step/M-step inner loops.  This package concentrates
that hot path behind one small interface so backends can be swapped via
configuration:

* :class:`ReferenceEngine` (``backend="reference"``) — the original
  claim-at-a-time implementation, kept verbatim as the semantic ground
  truth.  Golden fixtures are recorded against it and the other
  backends are tested for bit-for-bit agreement.
* :class:`NumpyEngine` (``backend="numpy"``, the default) — blocked
  vectorised sweeps over precomputed, cached per-claim evidence
  matrices, plus fully vectorised M-step design assembly.  See
  :mod:`.speculative` for the exact speculative-batch sweep the
  vectorised backends share.
* :class:`ShardedEngine` (``backend="sharded"``) — the paper's
  ``parallel+partition`` variant: claims partitioned across a
  persistent pool of forked workers, shard results merged in scan
  order by a compiled delta-walk kernel.  See :mod:`.sharded`.

All backends consume the random stream identically and reproduce the
same Gibbs chain bit-for-bit, so backend choice is purely a deployment
decision (``docs/API.md`` has the selection table).
"""

from repro.inference.engine.base import (
    ENGINE_BACKENDS,
    EngineConfig,
    InferenceEngine,
    MStepData,
    create_engine,
    release_model_engines,
)
from repro.inference.engine.numpy_backend import NumpyEngine
from repro.inference.engine.reference import ReferenceEngine
from repro.inference.engine.sharded import ShardedEngine
from repro.inference.engine.speculative import (
    SpeculativeEngine,
    sigmoid_scalar,
)

__all__ = [
    "ENGINE_BACKENDS",
    "EngineConfig",
    "InferenceEngine",
    "MStepData",
    "NumpyEngine",
    "ReferenceEngine",
    "ShardedEngine",
    "SpeculativeEngine",
    "create_engine",
    "release_model_engines",
    "sigmoid_scalar",
]
