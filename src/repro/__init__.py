"""repro — Fuzzy Extractors for Biometric Identification.

A from-scratch reproduction of Li, Guo, Mu, Susilo & Nepal, *Fuzzy
Extractors for Biometric Identification*, ICDCS 2017.

The library implements the paper's succinct (Chebyshev-distance) secure
sketch and fuzzy extractor, its constant-cost biometric identification
protocol, the O(N) "normal approach" it is compared against, classic
Hamming/set-difference fuzzy-extractor baselines, and every substrate they
need (finite fields, BCH/Reed-Solomon codes, DSA/ECDSA/Schnorr signatures,
strong extractors, synthetic biometric workloads).

Layering (bottom-up):

* :mod:`repro.crypto` / :mod:`repro.coding` — primitives (hashing, DRBG,
  signatures, extractors; GF(2^m), BCH, Reed-Solomon);
* :mod:`repro.core` — the succinct fuzzy extractor: ring geometry,
  Chebyshev sketch, robustness transform, matching conditions, and the
  single-matrix search indexes with their batch kernels;
* :mod:`repro.protocols` — the paper's figures as actors and messages
  (device, server, transport, runners, adversaries, workload simulation)
  plus the stored record type ``UserRecord``;
* :mod:`repro.engine` — the scale-out identification engine: hash-sharded
  parallel search over the core kernels, ``(B, n)`` batch probes,
  mmap-backed shard persistence (O(1) open), and serving counters.  It
  builds on the core kernels and the protocol layer's record type, and
  is the server's only helper-data store (an in-memory single-shard
  engine by default, a sharded one via ``AuthenticationServer.with_engine``;
  server/simulation import it lazily to keep the graph acyclic);
* :mod:`repro.service` — the concurrent serving layer on top of both:
  a bounded-admission ``ServiceFrontend`` that micro-batches concurrent
  identification probes through the engine's batch kernel and fans
  signature checks out to a worker pool over the shared verify-table
  cache, plus the ``repro service-bench`` closed-loop load harness.
  Protocols never import service; service imports protocols + engine;
* :mod:`repro.net` — the TCP transport: length-prefixed framing of the
  canonical message encodings, an asyncio ``NetworkServer`` fronting
  either the plain server or the service frontend, and the blocking
  ``NetworkClient`` / ``RemoteEndpoint`` adapter that lets every runner
  drive a remote server unchanged.  Nothing below imports net;
* :mod:`repro.baselines` / :mod:`repro.biometrics` / :mod:`repro.analysis`
  — comparison schemes, synthetic workloads, and security accounting.

Quick start::

    import numpy as np
    from repro import (SystemParams, SuccinctFuzzyExtractor)

    params = SystemParams.paper_defaults(n=1000)
    fe = SuccinctFuzzyExtractor(params)

    template = np.random.default_rng(0).integers(
        -params.half_range, params.half_range, size=params.n)
    secret, helper = fe.generate(template)

    noisy = template + np.random.default_rng(1).integers(
        -params.t, params.t + 1, size=params.n)
    assert fe.reproduce(noisy, helper) == secret

See ``examples/`` for the full enrollment / identification protocols and
``benchmarks/`` for the reproduction of the paper's Table II and Fig. 4.
"""

from repro.core import (
    ChebyshevSketch,
    HelperData,
    NumberLine,
    PrefixBucketIndex,
    RobustChebyshevSketch,
    SuccinctFuzzyExtractor,
    SystemParams,
    VectorizedScanIndex,
    sketches_match,
)
from repro.engine import EngineStats, IdentificationEngine, ShardedSketchIndex
from repro.exceptions import (
    DecodingError,
    EncodingError,
    EnrollmentError,
    IdentificationError,
    ParameterError,
    ProtocolError,
    RecoveryError,
    ReproError,
    SignatureError,
    TamperDetectedError,
)

__version__ = "1.0.0"

__all__ = [
    "ChebyshevSketch",
    "HelperData",
    "NumberLine",
    "PrefixBucketIndex",
    "RobustChebyshevSketch",
    "SuccinctFuzzyExtractor",
    "SystemParams",
    "VectorizedScanIndex",
    "sketches_match",
    "EngineStats",
    "IdentificationEngine",
    "ShardedSketchIndex",
    "DecodingError",
    "EncodingError",
    "EnrollmentError",
    "IdentificationError",
    "ParameterError",
    "ProtocolError",
    "RecoveryError",
    "ReproError",
    "SignatureError",
    "TamperDetectedError",
    "__version__",
]
