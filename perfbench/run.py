"""Benchmark of the repro pipeline: one workload per user command.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload attack --seed 1 --seconds 20 --trace 0

Workloads: ``attack``, ``verify`` and ``serve``.  ``--trace 0`` times
ops with tracing off and prints the end-to-end metrics; ``--trace 1``
runs the workload with spans around the calls into each layer, plus one
traced probe of each other workload and of ``selfcheck`` (the analyzers;
see ``NOTES.md``), and prints every per-layer metric.  End-to-end times
are scaled to the speed of a reference host (``common.HostSpeed``).  The
last line of stdout is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; a readable table goes to stderr.  Inputs come
only from ``--seed``; every file the run writes lives in a fresh
directory under ``.perfbench_tmp/`` that is removed on exit.  Any wrong
output makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import time

# Set-up time of the in-process workloads counts from here: it includes
# importing the program.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from common import (  # noqa: E402
    REFERENCE_BRACKET, SETUP_TRIALS, HostSpeed, OpLog, Tracer, setup_trial_times,
)
from wl_attack import AttackWorkload  # noqa: E402
from wl_selfcheck import SelfcheckWorkload  # noqa: E402
from wl_serve import ServeWorkload  # noqa: E402
from wl_verify import VerifyWorkload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Workload classes import the program only when instantiated, so the
#: import is timed as part of set-up.
WORKLOADS = {
    "attack": AttackWorkload,
    "verify": VerifyWorkload,
    "serve": ServeWorkload,
}
#: Every traced run probes these too, so it reports every layer.
PROBES = {**WORKLOADS, "selfcheck": SelfcheckWorkload}


class Context:
    """What every workload shares: paths, seed, clock and the verdict."""

    clock = staticmethod(time.perf_counter)

    def __init__(self, root: Path, workdir: Path, seed: int, seconds: float):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.errors: list[str] = []
        self.pending: list[tuple[str, object]] = []
        self.host: HostSpeed | None = None

    @staticmethod
    def note(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    def require(self, error: str | None, where: str) -> None:
        """Record a failed output check; ``None`` means the check passed."""
        if error is not None:
            self.errors.append(f"{where}: {error}")
            self.note(f"WRONG OUTPUT {where}: {error}")

    def defer(self, where: str, check) -> None:
        """Queue ``check() -> error or None`` to run outside the timing."""
        self.pending.append((where, check))

    def run_checks(self) -> None:
        pending, self.pending = self.pending, []
        for where, check in pending:
            self.require(check(), where)


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics ``BENCHMARK.json`` lists."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


def measured_run(args, ctx: Context) -> tuple[int, int, dict[str, float]]:
    """Untraced run: set-up, timed ops, end-to-end metrics."""
    workload = WORKLOADS[args.workload](ctx)
    ctx.host = HostSpeed()
    try:
        setup_times = workload.setup("plain")
        if workload.in_process:
            setup_times = [ctx.clock() - _T0]
        # Set-up is scaled by the passes taken right after it.
        ctx.host.sample(REFERENCE_BRACKET)
        setup_times = [t * ctx.host.scale() for t in setup_times]
        if args.setup_trial:
            # The warm-up op is the measured run's own, checked there.
            print(json.dumps({"setup_s": setup_times[0]}))
            return 0, 0, {}
        log = OpLog()
        workload.run(log, Tracer(False), args.seconds, "plain")
    finally:
        workload.close()
    ctx.host.sample(REFERENCE_BRACKET)
    if workload.in_process:
        setup_times += setup_trial_times(
            ctx.root, args.workload, args.seed, SETUP_TRIALS - 1
        )
    if not log.latencies:
        ctx.require("no op completed", args.workload)
        return log.attempted, log.failed, {}
    ops = log.metrics()
    scale = ctx.host.scale()
    ctx.note(
        f"{args.workload}: {ops['ops_n']} timed ops in {log.window_s:.2f} s; "
        f"tail is p{ops['tail_q']:g}; scaled set-up trials "
        + ", ".join(f"{t:.3f}" for t in setup_times)
        + f" s; fail_ratio {log.failed / max(1, log.attempted):.4f}\n"
        f"as measured: ops_per_s {ops['ops_per_s']:.4f}, "
        f"op_p50_ms {ops['op_p50_ms']:.3f}, op_tail_ms {ops['op_tail_ms']:.3f}; "
        f"host speed scale {scale:.4f} from {len(ctx.host.passes)} reference passes"
    )
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ops["ops_per_s"] / scale,
        "op_p50_ms": ops["op_p50_ms"] * scale,
        "op_tail_ms": ops["op_tail_ms"] * scale,
        "rss_peak_mb": log.rss_mb,
    }
    return log.attempted, log.failed, metrics


def traced_run(args, ctx: Context) -> tuple[int, int, dict[str, float]]:
    """Traced run of the workload plus one traced probe of each other one."""
    attempted = failed = 0
    layers: dict[str, float] = {}
    order = [args.workload] + [w for w in PROBES if w != args.workload]
    for name in order:
        own = name == args.workload
        workload = PROBES[name](ctx)
        tracer = Tracer(True)
        log = OpLog()
        try:
            workload.setup("traced" if own else "probe")
            workload.run(log, tracer, args.seconds, "traced" if own else "probe")
            layers.update(workload.layer_metrics(tracer))
        finally:
            workload.close()
        if own:
            if log.traced and log.latencies:
                layers["bench.trace_overhead_pct"] = log.overhead_pct()
            else:
                ctx.require("no traced/untraced op pair completed", name)
        attempted += log.attempted
        failed += log.failed
    return attempted, failed, layers


def print_table(metrics: dict[str, float], units: dict[str, str]) -> None:
    for name in sorted(metrics):
        print(f"  {name:32s} {metrics[name]:14.4f} {units.get(name, '')}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-trial", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so every child is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    e2e_units, layer_units = declared_metrics()

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    ctx = Context(ROOT, workdir, args.seed, args.seconds)
    try:
        if args.trace:
            attempted, failed, metrics = traced_run(args, ctx)
            units = layer_units
        else:
            attempted, failed, metrics = measured_run(args, ctx)
            units = e2e_units
    finally:
        if ctx.host is not None:
            ctx.host.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    if args.setup_trial:
        return 0
    missing = sorted(set(units) - set(metrics))
    if missing and not ctx.errors:
        ctx.require("metrics not measured: " + ", ".join(missing), args.workload)
    print_table(metrics, units)
    correct = not ctx.errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
