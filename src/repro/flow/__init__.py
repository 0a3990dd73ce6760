"""Whole-program flow analysis for the repro tree itself.

Where :mod:`repro.sanitize` checks invariants one file at a time, this
package checks the *call-chain* invariants the per-file view cannot
see: that every rng reaching a stochastic kernel is seed-derived
(``flow/unseeded-rng-path``), that every exception escaping the CLI is
a :class:`~repro.errors.ReproError` (``flow/foreign-exception-escape``
plus the ``flow/broad-except-swallow`` soundness guard), that nothing
a farm worker calls transitively mutates module state
(``flow/fork-hostile-call``), and that every module-level definition is
exported or referenced (``flow/dead-export``).

Layering (docs/FLOW.md):

* :mod:`repro.flow.graph` -- the project-wide call graph: definitions
  index, re-export resolution, class hierarchy, call/reference edges
  with handler context and rng-forwarding modes, per-function facts;
* :mod:`repro.flow.summaries` -- the interprocedural fixpoints
  (escaping exceptions, possibly-``None`` rng parameters,
  reachability);
* :mod:`repro.flow.rules` -- the rule catalog;
* :mod:`repro.flow.report` -- the versioned report and ``--graph``
  serialization.

The shared driver (:mod:`repro.sanitize.engine`) runs this package as
the :data:`FLOW` family.  Run it as ``repro flow src/`` or fold it into
a sanitize run with ``repro sanitize --flow src/``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from ..diagnostics import Baseline
from ..sanitize.engine import AnalyzerConfig, Family, SourceTree, run_family
from .graph import Edge, FunctionInfo, Program
from .report import FLOW_FORMAT, FlowReport, graph_json
from .rules import FLOW_RULES, FlowAnalysis

#: The flow family as the shared driver runs it.
FLOW = Family(
    rules=FLOW_RULES,
    report=FlowReport,
    build=lambda program, config: FlowAnalysis.build(program),
    stats=lambda analysis: {
        "functions": len(analysis.program.functions),
        "edges": len(analysis.program.edges),
    },
)


def analyze_paths(
    source: SourceTree | Iterable[str | Path],
    config: AnalyzerConfig | None = None,
    baseline: Baseline | None = None,
) -> FlowReport:
    """Analyse a file set (or an already-loaded tree) as one program."""
    return run_family(FLOW, source, config, baseline)


def build_program(source: SourceTree | Iterable[str | Path]) -> Program:
    """Discover, parse and index a tree without running any rules."""
    tree = source if isinstance(source, SourceTree) else SourceTree(source)
    return tree.program


__all__ = [
    "FLOW",
    "analyze_paths",
    "build_program",
    "Program",
    "FunctionInfo",
    "Edge",
    "FLOW_FORMAT",
    "FlowReport",
    "graph_json",
    "FLOW_RULES",
    "FlowAnalysis",
]
