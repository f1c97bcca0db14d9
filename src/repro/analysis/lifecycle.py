"""Lifecycle analysis: what do multiple live sketch versions cost?

The versioned identity model (:mod:`repro.engine.lifecycle`) keeps
several sketches per identity alive at once — the active one plus
verify-only predecessors.  Two questions decide whether that is safe:

* **Leakage** — every stored version is a published sketch of (a noisy
  reading of) the *same* template.  This is exactly Boyen's reusability
  question, which :mod:`repro.analysis.reusability` answers by exact
  enumeration; here the per-version-count residual entropy is evaluated
  on an enumerable configuration and reported next to the code-offset
  baseline's cross-enrollment leakage, so the report shows both the
  guarantee and what it is *not* (a property fuzzy extractors get for
  free).
* **Accuracy** — identification searches only each identity's *active*
  sketch, so stacking verify-only versions must not erode the match
  rate.  The bench enrolls a population, re-enrolls it round by round
  (fresh noisy readings, old versions kept verify-only), and measures
  identification accuracy at every version count.

``repro lifecycle-bench`` runs both and prints the rows.
``REPRO_BENCH_SMOKE=1`` shrinks the population and version count to CI
scale.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from repro.analysis.reusability import (
    code_offset_reuse_leakage,
    residual_entropy_after_enrollments,
)
from repro.core.params import SystemParams
from repro.exceptions import ParameterError


def _default(value: int | None, full: int, smoke: int) -> int:
    if value is not None:
        return int(value)
    return smoke if os.environ.get("REPRO_BENCH_SMOKE", "") \
        not in ("", "0") else full


@dataclass(frozen=True)
class LifecycleBenchReport:
    """Per-version-count leakage and identification accuracy.

    ``rows`` holds one dict per version count ``m`` (1-based):
    ``versions``, ``residual_entropy_bits`` (per coordinate, exact
    enumeration at the analysis parameters), ``cross_sketch_leakage_bits``
    (entropy lost versus a single sketch — 0.0 is the reusability
    claim), ``code_offset_leakage_bits`` (the baseline's contrast
    number at the same version count), ``identify_accuracy`` and
    ``identified`` / ``queries`` from the engine run.
    """

    n_users: int
    dimension: int
    analysis_params: dict
    rows: tuple

    def summary_lines(self) -> list[str]:
        """Human-readable table, one row per version count."""
        lines = [
            f"lifecycle bench: {self.n_users} users, "
            f"dimension n={self.dimension}",
            "  versions  residual(bits/coord)  leaked  code-offset  "
            "identify",
        ]
        for row in self.rows:
            lines.append(
                f"  {row['versions']:>8}  "
                f"{row['residual_entropy_bits']:>20.4f}  "
                f"{row['cross_sketch_leakage_bits']:>6.3f}  "
                f"{row['code_offset_leakage_bits']:>11.2f}  "
                f"{row['identify_accuracy']:>7.1%}")
        return lines


def run_lifecycle_bench(n_users: int | None = None,
                        max_versions: int | None = None,
                        dimension: int | None = None,
                        seed: int = 2017) -> LifecycleBenchReport:
    """Measure leakage and identification accuracy per version count.

    The engine run uses the paper's coordinate parameters at a reduced
    ``dimension``; the leakage enumeration uses
    :meth:`SystemParams.small_test` (the number line must be small
    enough for exact enumeration — the reusability result is
    per-coordinate and parameter-shape independent, so the small
    configuration answers for the big one).  Re-enrollment readings and
    probes each carry noise up to ``t // 2``, so a probe stays within
    ``t`` of whichever reading is active.
    """
    # Engine layers sit above analysis; import lazily so importing the
    # analysis package never drags the index/storage stack in.
    from repro.core.extractor import SuccinctFuzzyExtractor
    from repro.crypto.prng import HmacDrbg
    from repro.engine import IdentificationEngine
    from repro.protocols.database import UserRecord

    n_users = _default(n_users, 32, 6)
    max_versions = _default(max_versions, 4, 2)
    dimension = _default(dimension, 64, 16)
    if n_users < 1 or max_versions < 1:
        raise ParameterError("need at least one user and one version")

    params = SystemParams.paper_defaults(n=dimension)
    analysis = SystemParams.small_test(n=dimension)
    fe = SuccinctFuzzyExtractor(params)
    rng = np.random.default_rng(seed)
    half_t = max(params.t // 2, 1)

    def reading(template: np.ndarray) -> np.ndarray:
        noise = rng.integers(-half_t, half_t + 1, params.n)
        return fe.sketcher.line.reduce(template + noise)

    engine = IdentificationEngine(params, shards=2)
    templates: dict[str, np.ndarray] = {}
    for i in range(n_users):
        user = f"user-{i}"
        template = fe.sketcher.line.uniform_vector(rng)
        templates[user] = template
        _, helper = fe.generate(template, HmacDrbg(f"enroll-{user}".encode()))
        engine.add(UserRecord(user_id=user, verify_key=user.encode() * 3,
                              helper_data=helper.to_bytes()))

    def accuracy() -> tuple[int, int]:
        hits = 0
        for user, template in templates.items():
            probe = fe.sketcher.sketch(
                reading(template), HmacDrbg(f"probe-{user}".encode()))
            matches = engine.find_by_sketch(probe)
            hits += bool(matches) and matches[0].user_id == user
        return hits, len(templates)

    rows = []
    single = residual_entropy_after_enrollments(analysis, 1)
    for versions in range(1, max_versions + 1):
        if versions > 1:
            # A fresh noisy reading per identity; the old version stays
            # live (verify-only), which is what the leakage column is
            # pricing.
            for user, template in templates.items():
                _, helper = fe.generate(
                    reading(template),
                    HmacDrbg(f"v{versions}-{user}".encode()))
                engine.reenroll(UserRecord(
                    user_id=user, verify_key=user.encode() * 3,
                    helper_data=helper.to_bytes()))
        residual = residual_entropy_after_enrollments(analysis, versions)
        hits, queries = accuracy()
        rows.append({
            "versions": versions,
            "residual_entropy_bits": residual,
            "cross_sketch_leakage_bits": max(single - residual, 0.0),
            "code_offset_leakage_bits": code_offset_reuse_leakage(
                n_bits=analysis.n, flip_probability=0.1,
                enrollments=versions),
            "identified": hits,
            "queries": queries,
            "identify_accuracy": hits / queries,
        })

    assert math.isclose(single, math.log2(analysis.v)), \
        "reusability enumeration drifted from the Theorem 3 bound"
    return LifecycleBenchReport(
        n_users=n_users, dimension=dimension,
        analysis_params=analysis.to_dict(), rows=tuple(rows))
