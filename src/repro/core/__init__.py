"""The paper's primary contribution: the succinct fuzzy extractor.

Layering (bottom-up):

* :mod:`repro.core.params` — ``SysSetup`` parameters and Theorem 3 entropy
  accounting;
* :mod:`repro.core.numberline` — the ring geometry of ``La``;
* :mod:`repro.core.sketch` — the Chebyshev secure sketch ``(SS, Rec)``;
* :mod:`repro.core.robust` — the Boyen et al. robustness transform;
* :mod:`repro.core.extractor` — the fuzzy extractor ``(Gen, Rep)``;
* :mod:`repro.core.matching` — conditions (1)-(4) for sketch comparison;
* :mod:`repro.core.index` — the server-side scan kernels and reference
  search structures.
"""

from repro.core.extractor import HelperData, SuccinctFuzzyExtractor
from repro.core.index import (
    NaiveLoopIndex,
    PrefixBucketIndex,
    batch_match_rows,
)
from repro.core.matching import (
    match_matrix,
    ring_distance_ka,
    sketches_match,
    sketches_match_literal,
)
from repro.core.numberline import NumberLine
from repro.core.params import SystemParams
from repro.core.robust import RobustChebyshevSketch, RobustSketchValue
from repro.core.sketch import ChebyshevSketch

__all__ = [
    "HelperData",
    "SuccinctFuzzyExtractor",
    "NaiveLoopIndex",
    "PrefixBucketIndex",
    "batch_match_rows",
    "match_matrix",
    "ring_distance_ka",
    "sketches_match",
    "sketches_match_literal",
    "NumberLine",
    "SystemParams",
    "RobustChebyshevSketch",
    "RobustSketchValue",
    "ChebyshevSketch",
]
