"""``selfcheck``: the analyzers, run the way pre-commit and CI run them.

This is a traced probe only: every ``--trace 1`` run ends with one
selfcheck op, which gives the analyzers' per-layer metrics.  It is not
a measured workload (see ``NOTES.md``).

The analysed tree is ``src/repro`` as of commit 3b5224d7 (135 files),
shipped as ``snapshot-3b5224d7.tar.gz`` so every commit analyses the
same input.  The op appends one seeded, finding-neutral statement to one
file -- as an editing developer would -- and runs
``python -m repro sanitize --flow --perf --race --shape src/repro --json``
as a child process with a span around each analysis family.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tarfile

from common import Tracer, child_env, derive_seed, op_loop, run_child

SNAPSHOT = "snapshot-3b5224d7.tar.gz"
SNAPSHOT_SHA256 = "a17c3a0d8b74540ea89c510cc879ccd4cc7f1a4f0f61815d65802c3c48b1743d"
#: The findings the snapshot yields, one ``[rule, path, line text,
#: message]`` entry each; line text rather than line number, so the
#: appended edits cannot move a fingerprint.
FINDINGS = "selfcheck_findings.json"
COMMAND = ["sanitize", "--flow", "--perf", "--race", "--shape", "src/repro", "--json"]
FAMILIES = ("sanitize", "flow", "perf", "race", "shape")
TIMEOUT_S = 150.0


def fingerprints(report: dict, tree) -> list[list]:
    """Line-number-free identity of each finding in an analyzer report."""
    lines: dict[str, list[str]] = {}
    out = []
    for diag in report["diagnostics"]:
        path = diag["location"]["path"]
        if path not in lines:
            lines[path] = (tree / path).read_text().splitlines()
        line = diag["location"]["line"]
        out.append([diag["rule"], path, lines[path][line - 1].strip(), diag["message"]])
    return sorted(out)


class SelfcheckWorkload:
    name = "selfcheck"

    def __init__(self, ctx):
        self.ctx = ctx
        here = ctx.root / "perfbench"
        archive = here / SNAPSHOT
        if hashlib.sha256(archive.read_bytes()).hexdigest() != SNAPSHOT_SHA256:
            raise RuntimeError(f"{SNAPSHOT} does not match its pinned digest")
        self.archive = archive
        self.child_script = here / "selfcheck_child.py"
        self.expected = json.loads((here / FINDINGS).read_text())
        self.env = child_env(ctx.root)
        self.reports: list[dict] = []

    def setup(self, mode: str) -> None:
        """Unpack the snapshot into the run's directory."""
        self.tree = self.ctx.workdir / "snapshot"
        with tarfile.open(self.archive) as tar:
            tar.extractall(self.tree, filter="data")
        self.files = sorted(
            p.relative_to(self.tree) for p in (self.tree / "src" / "repro").rglob("*.py")
        )

    def _edit(self, index: int) -> None:
        rng = random.Random(derive_seed(self.ctx.seed, "selfcheck", index))
        path = self.tree / rng.choice(self.files)
        with open(path, "a") as fh:
            fh.write(f"\n_perfbench_edit_{index} = {rng.randrange(10**6)}\n")

    def traced_op(self, index: int, tracer: Tracer):
        """Edit, run one traced analyzer child; returns latency, report, check."""
        spans = self.ctx.workdir / "spans.json"
        argv = [sys.executable, str(self.child_script), str(spans), *COMMAND]
        t0 = self.ctx.clock()
        with tracer.span("selfcheck.op", op=index) as op_span:
            self._edit(index)
            code, out = run_child(argv, cwd=self.tree, env=self.env, timeout=TIMEOUT_S)
        elapsed = self.ctx.clock() - t0
        if code != 1:
            raise RuntimeError(f"analyzer exited {code}")
        report = json.loads(out)
        tracer.adopt(json.loads(spans.read_text()), op_span)
        self.reports.append(report)

        def check() -> str | None:
            if fingerprints(report, self.tree) != self.expected:
                return "findings differ from the pinned set"
            return None

        return elapsed, report, check

    def run(self, log, tracer: Tracer, seconds: float, mode: str) -> None:
        op_loop(self.ctx, self.name, log, tracer, seconds, "probe", self.traced_op)

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        out = {
            f"{name}.check_ms": tracer.median_self_ms(f"{name}.check") for name in FAMILIES
        }
        out["flow.program_ms"] = tracer.median_self_ms("flow.program")
        ops = tracer.named("selfcheck.op")
        families = [sp for sp in tracer.spans if sp.name.endswith(".check")]
        out["selfcheck.cli_ms"] = (
            1000.0 * (sum(sp.duration for sp in ops) - sum(sp.duration for sp in families))
            / len(ops) if ops else 0.0
        )
        last = self.reports[-1] if self.reports else {"files": 0, "diagnostics": []}
        out["selfcheck.files_n"] = float(last["files"])
        out["selfcheck.findings_n"] = float(len(last["diagnostics"]))
        out["selfcheck.span_coverage_pct"] = tracer.coverage_pct("selfcheck.op")
        return out

    def close(self) -> None:
        pass
