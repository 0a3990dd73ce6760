"""The one-pass contract of ``repro sanitize --flow --perf --race --shape``.

The merged run reads and parses every file once, builds the
whole-program index once, hands both to all five families, and reports
exactly the union of what the five analyzers report on their own.
"""

import ast
import json

import pytest

from repro.cli import main
from repro.flow.graph import Program

from tests.conftest import ROOT, SRC

FAMILIES = ("flow", "perf", "race", "shape")
MERGED = ["sanitize", *(f"--{name}" for name in FAMILIES)]

#: Every family's dirty corpus: each fires its own rules, and some fire
#: the other families' too.
CORPORA = {
    "sanitize": ROOT / "tests" / "sanitize" / "corpus",
    **{name: ROOT / "tests" / name / "corpus" / "dirty" for name in FAMILIES},
}


def run_json(capsys, argv: list[str]) -> dict:
    main([*argv, "--json"])
    return json.loads(capsys.readouterr().out)


def keys(diagnostics: list[dict]) -> list[str]:
    return sorted(json.dumps(d, sort_keys=True) for d in diagnostics)


@pytest.fixture
def counts(monkeypatch):
    """Count ``ast.parse`` and ``Program.build`` calls for one test."""
    seen = {"parse": 0, "program": 0}
    parse, build = ast.parse, Program.build.__func__

    def counting_parse(*args, **kwargs):
        seen["parse"] += 1
        return parse(*args, **kwargs)

    def counting_build(cls, contexts):
        seen["program"] += 1
        return build(cls, contexts)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(Program, "build", classmethod(counting_build))
    return seen


@pytest.mark.parametrize("target", list(CORPORA), ids=list(CORPORA))
def test_merged_run_parses_each_file_once_and_builds_one_program(
    target, counts, capsys, monkeypatch
):
    monkeypatch.chdir(ROOT)
    merged = run_json(capsys, [*MERGED, str(CORPORA[target])])
    assert merged["files"] > 0
    assert counts == {"parse": merged["files"], "program": 1}


@pytest.mark.parametrize("target", list(CORPORA), ids=list(CORPORA))
def test_merged_run_reports_the_union_of_the_five(
    target, capsys, monkeypatch
):
    monkeypatch.chdir(ROOT)
    path = str(CORPORA[target])
    merged = run_json(capsys, [*MERGED, path])
    union = run_json(capsys, ["sanitize", path])["diagnostics"]
    for name in FAMILIES:
        union += [
            d
            for d in run_json(capsys, [name, path])["diagnostics"]
            # each family reports unparseable files; the merge keeps one
            if d["rule"] != "parse/syntax-error"
        ]
    assert union
    assert keys(merged["diagnostics"]) == keys(union)


def test_merged_run_on_src_is_one_pass_and_the_union_of_the_five(
    src_model, counts, capsys, monkeypatch
):
    """On ``src/`` the five reports come from the shared session model.

    Both sides apply the shipped default baselines, so the suppressed
    counts must add up as well.
    """
    monkeypatch.chdir(ROOT)
    merged = run_json(capsys, [*MERGED, str(SRC)])
    assert counts == {"parse": merged["files"], "program": 1}
    reports = [src_model.sanitize, *(getattr(src_model, f) for f in FAMILIES)]
    union = [d.to_json() for report in reports for d in report.diagnostics]
    assert keys(merged["diagnostics"]) == keys(union)
    assert merged["suppressed"] == sum(r.suppressed for r in reports)
    assert merged["suppressed"] > 0
