"""Array dtype/shape abstract interpretation for the repro tree itself.

The ROADMAP's vectorization arc replaces per-comparator Python loops
with NumPy layer-matrix kernels under a hard contract: same-seed
certificates stay byte-identical, which means every array on a
certificate-bearing path must keep exact ``int64`` semantics.  The
classic failure modes of that rewrite -- silent ``dtype=object``
fallbacks, int64→float64 upcasts, broadcast surprises, hidden copies --
are all statically detectable.  This package infers a dtype × ndim
lattice for every NumPy value in the tree (constructor dtypes,
``asarray``/``astype`` flows, ufunc promotion, indexing/reduction rank
deltas, propagated interprocedurally through annotated and returned
arrays) and gates seven rules on it.

Layering (docs/SHAPE.md):

* :mod:`repro.shape.model` -- the abstract domain and interpreter:
  per-function environments, dtype promotion (including the
  ``uint64`` + signed-int float64 trap), rank tracking, the
  return-summary fixpoint over the call graph;
* :mod:`repro.shape.rules` -- the rule catalog, hot-gated against the
  :mod:`repro.perf` cost model and scope-gated to the
  integer-exactness directories;
* :mod:`repro.shape.report` -- the versioned report and ``--graph``
  model serialization.

The shared driver (:mod:`repro.sanitize.engine`) runs this package as
the :data:`SHAPE` family.  Run it as ``repro shape src/`` or fold it into
a sanitize run with ``repro sanitize --shape src/``.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Iterable

from ..diagnostics import Baseline
from ..sanitize.engine import (
    AnalyzerConfig,
    Family,
    SourceTree,
    check_family,
    run_family,
)
from .model import AbstractValue, ShapeModel, dtype_kind, promote
from .report import SHAPE_FORMAT, ShapeReport, model_json
from .rules import INT_EXACT_SCOPE, SHAPE_RULES, ShapeAnalysis

#: The shape family as the shared driver runs it.
SHAPE = Family(
    rules=SHAPE_RULES,
    report=ShapeReport,
    build=lambda program, config: ShapeAnalysis.build(program),
    stats=lambda analysis: {
        "functions": len(analysis.program.functions),
        "arrays": analysis.constructor_count(),
        "dtypes": analysis.dtype_counts(),
    },
)


def analyze_paths(
    source: SourceTree | Iterable[str | Path],
    config: AnalyzerConfig | None = None,
    baseline: Baseline | None = None,
) -> ShapeReport:
    """Analyse a file set (or an already-loaded tree) as one program."""
    return run_family(SHAPE, source, config, baseline)


#: The analysis, the raw findings (parse errors first), the file count.
build_analysis = partial(check_family, SHAPE)


__all__ = [
    "SHAPE",
    "analyze_paths",
    "build_analysis",
    "AbstractValue",
    "ShapeModel",
    "promote",
    "dtype_kind",
    "SHAPE_FORMAT",
    "ShapeReport",
    "model_json",
    "SHAPE_RULES",
    "ShapeAnalysis",
    "INT_EXACT_SCOPE",
]
