"""The four benchmark workloads, each a closed loop over inputs made from a seed.

A workload runs in *episodes*.  One episode sets the system up from nothing
(corpus generation, session open with its initial inference, server start),
drives a fixed script of user-facing operations while timing each one, then
checks the outputs and digests them.  The same seed gives the same inputs,
so every episode of one invocation must produce the same digest; the runner
repeats episodes until its time is spent.

Why these four (each stresses a different layer; see ``BASELINE.md``):

* ``guided_gibbs`` — gain evaluation (guidance, hypothetical Gibbs chains on
  the gain worker threads, the merge kernel) does almost all the work.
* ``batch_em`` — the EM of the batch E-step/M-step does most of the work; a
  gain-only change is mostly bypassed.
* ``stream_ingest`` — all writes: structure growth plus online EM per
  arrival; bypasses guidance and the batch E-step.
* ``service_mixed`` — writes beside reads under contention through HTTP,
  the session manager and per-request checkpoints.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

import repro.datasets
from repro import FactCheckSession, SessionSpec, stream_from_database
from repro.service import (
    ReproServiceServer,
    ServiceClient,
    ServiceConfig,
    SessionManager,
)
from repro.errors import ServiceError
from repro.streaming.stream import arrival_to_dict

#: Per-workload input sizes.  ``full`` is what the benchmark measures;
#: ``smoke`` runs the same code path in about a second (the self-tests).
SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        "guided_gibbs": {"scale": 0.6, "iterations": 8},
        "batch_em": {"scale": 4.0, "iterations": 24},
        "stream_ingest": {"scale": 4.0},
        "service_mixed": {
            "stream_scale": 0.5, "chunk": 4, "validation_every": 20,
            "batch_scale": 0.5, "iterations": 10, "variants": 4,
        },
    },
    "smoke": {
        "guided_gibbs": {"scale": 0.1, "iterations": 2},
        "batch_em": {"scale": 0.2, "iterations": 2},
        "stream_ingest": {"scale": 0.2},
        "service_mixed": {
            "stream_scale": 0.1, "chunk": 4, "validation_every": 6,
            "batch_scale": 0.1, "iterations": 2, "variants": 2,
        },
    },
}


@dataclass
class Episode:
    """Measurements and checked outputs of one episode.

    Attributes:
        setup_s: Corpus generation + session open (+ server start).
        op_s: Latency of every user-facing operation, in order.
        wall_s: Wall time of the operation phase (setup excluded).
        attempted / failed: Operations attempted and failed (a non-2xx
            response or an exception), plus one failure per violated
            output check.
        problems: Descriptions of the violated checks.
        digest: Hash of the validated-id sequence and final weights.
        precision: Final precision against ground truth.
        extra: Workload-specific sample lists (seconds) and counts.
        inputs: The seed the episode's inputs were made from.
    """

    setup_s: float
    op_s: List[float]
    wall_s: float
    attempted: int
    failed: int
    problems: List[str]
    digest: str
    precision: float
    extra: Dict[str, object] = field(default_factory=dict)
    inputs: int = 0


def input_seed(seed: int, variant: int) -> int:
    """The seed of input variant ``variant`` of a run seeded with ``seed``.

    Variant 0 is ``seed`` itself; the others are fixed functions of it, so
    the same ``--seed`` always gives the same inputs.
    """
    return seed + 100_003 * variant


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def check_outputs(database, validated: List[str], weights) -> List[str]:
    """Correctness gate shared by all workloads.

    Probabilities must be finite and in [0, 1]; validated claim ids must be
    unique and carry the label the simulated (error-free) user gives, which
    is the claim's ground truth; weights must be finite.
    """
    problems = []
    probabilities = np.asarray(database.probabilities, dtype=float)
    if not np.all(np.isfinite(probabilities)):
        problems.append("non-finite probability")
    elif probabilities.size and (probabilities.min() < 0 or probabilities.max() > 1):
        problems.append("probability outside [0, 1]")
    if len(set(validated)) != len(validated):
        problems.append("a claim was validated twice")
    for claim_id in validated:
        index = database.claim_position(claim_id)
        truth = database.claims[index].truth
        if database.label_of(index) != int(truth):
            problems.append(f"label of {claim_id} differs from the simulated user")
            break
    if weights is None or not np.all(np.isfinite(weights)):
        problems.append("non-finite weights")
    return problems


def digest(*parts) -> str:
    """SHA-256 over validated-id sequences and float64 weight vectors."""
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, (list, tuple)):
            hasher.update("\x1f".join(part).encode("utf-8"))
        else:
            hasher.update(np.asarray(part, dtype=np.float64).tobytes())
        hasher.update(b"\x1e")
    return hasher.hexdigest()[:16]


def _set_op(tracer, op) -> None:
    if tracer is not None:
        tracer.set_op(op)


# ----------------------------------------------------------------------
# Batch validation (Alg. 1)
# ----------------------------------------------------------------------


def _batch_episode(spec: SessionSpec, iterations: int, tracer) -> Episode:
    started = time.perf_counter()
    session = FactCheckSession(spec).open()
    setup_s = time.perf_counter() - started
    op_s: List[float] = []
    failed = 0
    phase = time.perf_counter()
    for iteration in range(iterations):
        _set_op(tracer, iteration)
        begin = time.perf_counter()
        try:
            session.step()
        except Exception:  # a failed iteration is counted, not fatal
            failed += 1
        op_s.append(time.perf_counter() - begin)
    wall_s = time.perf_counter() - phase
    _set_op(tracer, None)
    result = session.close()
    weights = result.weights.values
    problems = check_outputs(session.database, result.validated_claim_ids, weights)
    if len(result.validated_claim_ids) != iterations * spec.effort.batch_size:
        problems.append("fewer claims validated than the script asked for")
    return Episode(
        setup_s=setup_s,
        op_s=op_s,
        wall_s=wall_s,
        attempted=iterations,
        failed=failed + len(problems),
        problems=problems,
        digest=digest(result.validated_claim_ids, weights),
        precision=float(result.final_precision),
    )


def guided_gibbs(seed: int, size: dict, tracer=None) -> Episode:
    """One user, hybrid strategy over the full pool, Gibbs-mode gains on 2 workers."""
    spec = SessionSpec(
        seed=seed,
        dataset={"name": "wiki", "seed": seed, "scale": size["scale"]},
        guidance={
            "strategy": "hybrid",
            "gain": {"inference_mode": "gibbs"},
            "parallel": True,
            "max_workers": 2,
        },
        effort={"budget": size["iterations"]},
    )
    return _batch_episode(spec, size["iterations"], tracer)


def batch_em(seed: int, size: dict, tracer=None) -> Episode:
    """§6.2 batches of 3, 12 candidates, parallel+partition mean-field gains."""
    spec = SessionSpec(
        seed=seed,
        dataset={"name": "wiki", "seed": seed, "scale": size["scale"]},
        guidance={
            "strategy": "hybrid",
            "candidate_limit": 12,
            "gain": {"inference_mode": "meanfield", "localize": True},
            "parallel": True,
            "max_workers": 2,
        },
        effort={"batch_size": 3},
    )
    return _batch_episode(spec, size["iterations"], tracer)


# ----------------------------------------------------------------------
# Streaming arrivals (Alg. 2, §8.8)
# ----------------------------------------------------------------------


def stream_ingest(seed: int, size: dict, tracer=None) -> Episode:
    """Every arrival of a generated corpus fed to ``observe``; no validation."""
    started = time.perf_counter()
    arrivals = list(
        stream_from_database(repro.datasets.load_dataset("wiki", seed=seed, scale=size["scale"]))
    )
    session = FactCheckSession(SessionSpec(mode="streaming", seed=seed)).open()
    setup_s = time.perf_counter() - started
    op_s: List[float] = []
    failed = 0
    phase = time.perf_counter()
    for position, arrival in enumerate(arrivals):
        _set_op(tracer, position)
        begin = time.perf_counter()
        try:
            session.observe(arrival)
        except Exception:
            failed += 1
        op_s.append(time.perf_counter() - begin)
    wall_s = time.perf_counter() - phase
    _set_op(tracer, None)
    result = session.close()
    weights = result.weights.values
    problems = check_outputs(session.database, result.validated_claim_ids, weights)
    return Episode(
        setup_s=setup_s,
        op_s=op_s,
        wall_s=wall_s,
        attempted=len(arrivals),
        failed=failed + len(problems),
        problems=problems,
        digest=digest(result.validated_claim_ids, weights),
        precision=float(result.final_precision),
    )


# ----------------------------------------------------------------------
# Service: two closed-loop clients over HTTP
# ----------------------------------------------------------------------


class _Client:
    """One closed-loop client: times every request, counts failures."""

    def __init__(self, url: str, session_id: str, tracer) -> None:
        self.http = ServiceClient(url, timeout=120.0)
        self.session_id = session_id
        self.tracer = tracer
        self.request_s: List[float] = []
        self.failed = 0
        self.errors: List[str] = []

    def call(self, op, request: Callable[[], object]) -> Optional[object]:
        if self.tracer is not None:
            self.tracer.session_ops[self.session_id] = op
        begin = time.perf_counter()
        try:
            return request()
        except (ServiceError, OSError) as exc:  # non-2xx raise ServiceError
            self.failed += 1
            self.errors.append(str(exc))
            return None
        finally:
            self.request_s.append(time.perf_counter() - begin)


def service_mixed(seed: int, size: dict, tracer=None) -> Episode:
    """A streaming writer and a batch reader/writer on one in-process server.

    Client A posts benchmark-generated arrivals in chunks to a streaming
    session whose spec interleaves validation bursts; client B drives a
    batch session with ``POST /step count=1`` + ``GET /result`` per
    iteration.  The manager spools a checkpoint after every mutating
    request (``checkpoint_every=1``) on a pool of 2 workers.
    """
    started = time.perf_counter()
    spool = tempfile.mkdtemp(prefix="spool-")
    manager = SessionManager(ServiceConfig(spool_dir=spool, workers=2, checkpoint_every=1))
    server = ReproServiceServer(manager)
    server_thread = server.serve_in_background()
    try:
        arrivals = [
            arrival_to_dict(arrival)
            for arrival in stream_from_database(
                repro.datasets.load_dataset("wiki", seed=seed, scale=size["stream_scale"])
            )
        ]
        setup_client = ServiceClient(server.url, timeout=120.0)
        guidance = {"strategy": "hybrid", "candidate_limit": 12}
        setup_client.create_session(
            SessionSpec(
                mode="streaming",
                seed=seed,
                guidance=guidance,
                stream={"validation_every": size["validation_every"]},
            ),
            session_id="stream",
        )
        setup_client.create_session(
            SessionSpec(
                seed=seed + 1,
                dataset={"name": "wiki", "seed": seed + 1, "scale": size["batch_scale"]},
                guidance=guidance,
            ),
            session_id="batch",
        )
        setup_s = time.perf_counter() - started

        writer = _Client(server.url, "stream", tracer)
        reader = _Client(server.url, "batch", tracer)
        chunk = size["chunk"]
        chunks = [arrivals[i:i + chunk] for i in range(0, len(arrivals), chunk)]
        iteration_s: List[float] = []
        gate = threading.Barrier(2)

        def feed() -> None:
            gate.wait()
            for position, batch in enumerate(chunks):
                writer.call(
                    position, lambda: writer.http.stream_claims("stream", batch)
                )

        def iterate() -> None:
            gate.wait()
            for iteration in range(size["iterations"]):
                begin = time.perf_counter()
                reader.call(iteration, lambda: reader.http.step("batch", count=1))
                reader.call(iteration, lambda: reader.http.result_dict("batch"))
                iteration_s.append(time.perf_counter() - begin)

        threads = [threading.Thread(target=feed), threading.Thread(target=iterate)]
        phase = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - phase
        if tracer is not None:
            tracer.session_ops.clear()
    finally:
        server.shutdown()
        server.server_close()
        server_thread.join(timeout=30)
        manager.shutdown(checkpoint=True)

    try:
        problems: List[str] = []
        parts = []
        precisions = []
        for session_id in ("stream", "batch"):
            try:
                session = FactCheckSession.load(f"{spool}/{session_id}.json.gz")
            except Exception as exc:
                problems.append(f"spooled checkpoint of {session_id} does not load: {exc}")
                continue
            result = session.close()
            weights = result.weights.values
            problems += check_outputs(session.database, result.validated_claim_ids, weights)
            parts += [result.validated_claim_ids, weights]
            precisions.append(float(result.final_precision))
        if len(parts) == 4 and len(parts[2]) != size["iterations"]:
            problems.append("fewer batch iterations than the script asked for")
    finally:
        shutil.rmtree(spool, ignore_errors=True)

    request_s = writer.request_s + reader.request_s
    return Episode(
        setup_s=setup_s,
        op_s=request_s,
        wall_s=wall_s,
        attempted=len(request_s),
        failed=writer.failed + reader.failed + len(problems),
        problems=problems + writer.errors + reader.errors,
        digest=digest(*parts),
        precision=float(np.mean(precisions)) if precisions else math.nan,
        extra={"iteration_s": iteration_s, "arrivals": len(arrivals)},
    )


WORKLOADS = {
    "guided_gibbs": guided_gibbs,
    "batch_em": batch_em,
    "stream_ingest": stream_ingest,
    "service_mixed": service_mixed,
}
