"""Whole-program concurrency analysis for the repro tree itself.

The serve/farm stack mixes four execution contexts in one process
family: the asyncio event loop (:mod:`repro.serve.server`), helper
threads spawned via ``asyncio.to_thread`` (the batcher dispatching
:func:`repro.farm.runner.run_jobs`), forked worker processes
(:class:`repro.farm.runner._Worker`), and Unix signal handlers (the
flight recorder's ``SIGUSR2`` dump).  The per-file analyzers cannot
see which context a function *runs in* -- that is a property of the
call graph.  This package classifies every function into its
concurrency contexts, propagates a blocking-effect summary
interprocedurally, and checks the cross-context discipline rules the
other analyzers cannot express: no blocking I/O on the event loop, no
lock held across an ``await``, no fork from thread context, no
import-time handle crossing the fork boundary, no unsynchronised
shared-state writes from truly concurrent contexts.

Layering (docs/RACE.md):

* :mod:`repro.race.model` -- the concurrency model: per-function facts
  (blocking sites, fork sites, dispatch targets, lock-scoped writes),
  context roots and BFS propagation, the blocking-effect fixpoint;
* :mod:`repro.race.rules` -- the rule catalog, every finding carrying
  a witness call chain from a context root to the offending site;
* :mod:`repro.race.report` -- the versioned report and ``--graph``
  model serialization.

The shared driver (:mod:`repro.sanitize.engine`) runs this package as
the :data:`RACE` family.  Run it as ``repro race src/`` or fold it into
a sanitize run with ``repro sanitize --race src/``.
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
from .model import RaceModel, blocking_effects, propagate_contexts
from .report import RACE_FORMAT, RaceReport, model_json
from .rules import RACE_RULES, RaceAnalysis

#: The race family as the shared driver runs it.
RACE = Family(
    rules=RACE_RULES,
    report=RaceReport,
    build=lambda program, config: RaceAnalysis.build(program),
    stats=lambda analysis: {
        "functions": len(analysis.program.functions),
        "edges": len(analysis.program.edges),
        "contexts": analysis.context_counts(),
    },
)


def analyze_paths(
    source: SourceTree | Iterable[str | Path],
    config: AnalyzerConfig | None = None,
    baseline: Baseline | None = None,
) -> RaceReport:
    """Analyse a file set (or an already-loaded tree) as one program."""
    return run_family(RACE, source, config, baseline)


#: The analysis, the raw findings (parse errors first), the file count.
build_analysis = partial(check_family, RACE)


__all__ = [
    "RACE",
    "analyze_paths",
    "build_analysis",
    "RaceModel",
    "propagate_contexts",
    "blocking_effects",
    "RACE_FORMAT",
    "RaceReport",
    "model_json",
    "RACE_RULES",
    "RaceAnalysis",
]
