"""Profile-guided hot-path analysis for the repro tree itself.

The fourth analyzer family.  Where :mod:`repro.lint` checks networks,
:mod:`repro.sanitize` checks files and :mod:`repro.flow` checks
call-chain invariants, this package answers the performance question
the vectorization arc needs answered systematically: *which scalar
Python loops actually sit on hot paths, and in what order should they
be vectorised?*

Layering (docs/PERF.md):

* :mod:`repro.perf.costmodel` -- static *effective loop depth*: local
  nesting per function, propagated through the
  :class:`~repro.flow.graph.Program` call edges to a fixpoint (a
  depth-1 helper called inside a depth-2 loop is effectively depth-3);
* :mod:`repro.perf.rules` -- the ``perf/*`` rule catalog of
  vectorizable antipatterns, each firing only at effective depth >= 2
  so cold code stays quiet;
* :mod:`repro.perf.profilejoin` -- joining measured
  :mod:`repro.obs` span self-times (or CPU profile rows) onto the call
  graph, re-ranking findings by observed hot-path weight;
* :mod:`repro.perf.worklist` -- the versioned ranked vectorization
  worklist (``repro perf --worklist``), which deliberately ignores
  pragma/baseline waivers: it is the inventory of remaining work;
* :mod:`repro.perf.report` -- the versioned report.

The shared driver (:mod:`repro.sanitize.engine`) runs this package as
the :data:`PERF` family.  Run it as ``repro perf src/`` (add ``--profile
trace.jsonl`` for observed ranking) or fold it into a sanitize run with
``repro sanitize --perf src/``.
"""

from __future__ import annotations

from functools import partial
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from ..flow.graph import Program
from ..diagnostics import Baseline
from ..sanitize.engine import (
    AnalyzerConfig,
    Family,
    SourceTree,
    check_family,
    run_family,
)
from .costmodel import CostModel, FunctionCost, build_cost_model
from .profilejoin import ProfileJoin, join_profile, load_profile, span_owners
from .report import PERF_FORMAT, PerfReport
from .rules import HOT_DEPTH, PERF_RULES, PerfAnalysis
from .worklist import WORKLIST_FORMAT, Worklist, WorklistEntry, build_worklist


@dataclass(frozen=True)
class PerfConfig(AnalyzerConfig):
    """Tunables for one perf run.

    ``profile`` optionally names a trace JSONL / profile document to
    join for observed hot-path ranking.
    """

    profile: str | None = None


def _build(program: Program, config: AnalyzerConfig) -> PerfAnalysis:
    profile = getattr(config, "profile", None)
    join = join_profile(program, profile) if profile is not None else None
    return PerfAnalysis.build(program, join=join)


#: The perf family as the shared driver runs it.  Its report is the
#: gate: pragmas and the baseline apply (the ratchet).
PERF = Family(
    rules=PERF_RULES,
    report=PerfReport,
    build=_build,
    stats=lambda analysis: {
        "functions": len(analysis.program.functions),
        "hot": len(analysis.cost.hot_functions(HOT_DEPTH)),
        "profile": (
            analysis.join.source if analysis.join is not None else None
        ),
    },
)


def analyze_paths(
    source: SourceTree | Iterable[str | Path],
    config: AnalyzerConfig | None = None,
    baseline: Baseline | None = None,
) -> PerfReport:
    """The gate: perf findings over a file set or an already-loaded tree."""
    return run_family(PERF, source, config, baseline)


#: The analysis, the raw findings (parse errors first), the file count.
build_analysis = partial(check_family, PERF)


def worklist_paths(
    source: SourceTree | Iterable[str | Path],
    config: AnalyzerConfig | None = None,
) -> Worklist:
    """The ranked vectorization worklist (ignores pragmas and baseline).

    It is the inventory of remaining vectorization work, so waived
    findings stay listed.
    """
    tree = source if isinstance(source, SourceTree) else SourceTree(source)
    analysis, diagnostics, _files = check_family(PERF, tree, config)
    findings = [d for d in diagnostics if d.rule.startswith("perf/")]
    return build_worklist(analysis, findings, tree.targets)


__all__ = [
    "CostModel",
    "FunctionCost",
    "build_cost_model",
    "PERF",
    "PerfConfig",
    "analyze_paths",
    "build_analysis",
    "worklist_paths",
    "ProfileJoin",
    "join_profile",
    "load_profile",
    "span_owners",
    "PERF_FORMAT",
    "PerfReport",
    "HOT_DEPTH",
    "PERF_RULES",
    "PerfAnalysis",
    "WORKLIST_FORMAT",
    "Worklist",
    "WorklistEntry",
    "build_worklist",
]
