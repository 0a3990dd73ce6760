"""``python -m repro sanitize ...`` with a span around each analysis family.

Usage: ``selfcheck_child.py SPANS_JSON sanitize ARGS...``.  The program
is imported and run unchanged; this wrapper replaces, for the length of
the process, the entry points the CLI calls -- ``sanitize_paths``, each
whole-program family's ``analyze_paths``, ``flow.graph.Program.build``
and the report tail -- with timed versions, and writes the spans to
``SPANS_JSON`` when the command ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from pathlib import Path

from common import Tracer


def timed(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def main() -> int:
    spans_path = Path(sys.argv[1])
    tracer = Tracer(True)
    with tracer.span("selfcheck.import"):
        cli = importlib.import_module("repro.cli")
        families = {
            name: importlib.import_module(f"repro.{name}")
            for name in ("sanitize", "flow", "perf", "race", "shape")
        }
        from repro.flow.graph import Program
    sanitize = families.pop("sanitize")
    sanitize.sanitize_paths = timed(tracer, "sanitize.check", sanitize.sanitize_paths)
    for name, module in families.items():
        module.analyze_paths = timed(tracer, f"{name}.check", module.analyze_paths)
    Program.build = classmethod(timed(tracer, "flow.program", Program.build.__func__))
    cli._finish_analyzer = timed(tracer, "selfcheck.render", cli._finish_analyzer)
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
