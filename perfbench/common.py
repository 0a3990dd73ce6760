"""Shared plumbing of the benchmark: spans, statistics, child processes.

Everything here is standard library only, so ``run.py`` can import it
before the program under test is imported (the import is part of the
measured set-up time).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

#: How many times a run sets up from scratch; ``setup_s`` is the median.
SETUP_TRIALS = 3


def derive_seed(*parts: Any) -> int:
    """A 63-bit seed derived from the workload seed and a purpose tag."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# -- spans ------------------------------------------------------------------


@dataclass
class Span:
    """One timed call: name, interval, parent span and op id."""

    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans are kept until the run ends.

    Parents are tracked per thread, so concurrent client threads each
    build their own span tree.  A disabled tracer records nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: int | None = None) -> Iterator[Span | None]:
        """Time the enclosed block as a child of the thread's open span."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            sp = Span(
                id=len(self.spans),
                name=name,
                start=0.0,
                parent=parent.id if parent else None,
                op=op if op is not None or parent is None else parent.op,
            )
            self.spans.append(sp)
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def adopt(self, records: list[dict[str, Any]], parent: Span) -> None:
        """Graft spans recorded by a child process under ``parent``.

        ``time.perf_counter`` reads the system-wide monotonic clock on
        Linux, so the child's timestamps need no translation.
        """
        ids: dict[int, int] = {}
        with self._lock:
            for rec in records:
                sp = Span(
                    id=len(self.spans),
                    name=rec["name"],
                    start=rec["start"],
                    end=rec["end"],
                    parent=ids.get(rec["parent"], parent.id),
                    op=parent.op,
                )
                ids[rec["id"]] = sp.id
                self.spans.append(sp)

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time its children cover."""
        child_time: dict[int, float] = {}
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] = child_time.get(sp.parent, 0.0) + sp.duration
        return {sp.id: sp.duration - child_time.get(sp.id, 0.0) for sp in self.spans}

    def named(self, name: str) -> list[Span]:
        return [sp for sp in self.spans if sp.name == name]

    def median_self_ms(self, name: str) -> float:
        """Per-call median self-time of the spans called ``name``, in ms."""
        own = self.self_times()
        values = [own[sp.id] for sp in self.named(name)]
        return 1000.0 * statistics.median(values) if values else 0.0

    def coverage_pct(self, root: str) -> float:
        """Share of the ``root`` spans' time covered by named child layers."""
        own = self.self_times()
        roots = self.named(root)
        total = sum(sp.duration for sp in roots)
        uncovered = sum(own[sp.id] for sp in roots)
        return 100.0 * (total - uncovered) / total if total else 0.0

    def dump(self, path: Path) -> None:
        """Write every span as one JSON document (used by child processes)."""
        path.write_text(json.dumps([sp.__dict__ for sp in self.spans]))


# -- statistics -------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(count: int) -> float:
    """The highest of p99.9/p99/p95/p90 with ten samples beyond it.

    Runs with fewer than 100 ops have no such percentile; their tail is
    the slowest op (p100), so the metric exists on every run.
    """
    for q in (99.9, 99.0, 95.0, 90.0):
        if count * (100.0 - q) / 100.0 >= 10:
            return q
    return 100.0


@dataclass
class OpLog:
    """Latencies of the timed ops plus the timed window's wall time."""

    latencies: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    window_s: float = 0.0
    #: Peak RSS in MB of the process doing the work, during the ops.
    rss_mb: float = 0.0

    def record(self, elapsed: float, traced: bool = False) -> None:
        (self.traced if traced else self.latencies).append(elapsed)

    def metrics(self) -> dict[str, float]:
        """Throughput, median and tail of the untraced ops."""
        q = tail_percentile(len(self.latencies))
        return {
            "ops_per_s": len(self.latencies) / self.window_s,
            "op_p50_ms": 1000.0 * statistics.median(self.latencies),
            "op_tail_ms": 1000.0 * percentile(self.latencies, q),
            "tail_q": q,
            "ops_n": len(self.latencies),
        }

    def overhead_pct(self) -> float:
        """Traced versus untraced median op latency, in percent."""
        return 100.0 * (
            statistics.median(self.traced) / statistics.median(self.latencies) - 1.0
        )


def op_loop(
    ctx, name: str, log: OpLog, tracer: Tracer, seconds: float, mode: str, op
) -> None:
    """Run ``op(index, tracer_or_None) -> (latency, output, check)`` for ``seconds``.

    ``plain`` runs untraced ops.  ``traced`` runs each index twice,
    untraced then traced: the pair's outputs must be equal, and their
    latencies give the tracing overhead.  ``probe`` runs one traced op.
    An op that raises counts as failed.  ``check()`` returns an error
    message or ``None``.  After each op its checks run (with any the
    set-up queued) and, in ``plain`` mode, one reference pass per second
    of op time (see ``HostSpeed``); both are left out of the timed
    window, so ``ops_per_s`` covers only the program's work.
    """
    steps = {"plain": (None,), "traced": (None, tracer), "probe": (tracer,)}[mode]
    index = 0
    paused = 0.0
    start = ctx.clock()
    while index == 0 or (mode != "probe" and ctx.clock() - start < seconds):
        op_start = ctx.clock()
        outputs = []
        for step in steps:
            log.attempted += 1
            try:
                elapsed, output, check = op(index, step)
            except Exception as exc:
                ctx.note(f"{name} op {index} raised {exc!r}")
                log.failed += 1
                continue
            log.record(elapsed, traced=step is not None)
            ctx.defer(f"{name} op {index}", check)
            outputs.append(output)
        pause = ctx.clock()
        if len(outputs) == 2 and outputs[0] != outputs[1]:
            ctx.require("traced and untraced outputs differ", f"{name} op {index}")
        ctx.run_checks()
        if mode == "plain":
            ctx.host.sample(max(1, round(pause - op_start)))
        paused += ctx.clock() - pause
        index += 1
    log.window_s = ctx.clock() - start - paused
    log.rss_mb = rss_self_mb()


# -- host speed -------------------------------------------------------------

#: Seconds one reference pass takes on the idle 2-vCPU host the
#: benchmark was defined on.
REFERENCE_S = 0.058
#: Reference passes taken right before and right after the timed phase.
REFERENCE_BRACKET = 5


def reference_pass() -> float:
    """Time one fixed pass of work that shares no code with the program.

    Three parts, each a third of the pass on the idle host: Python
    integer and dict work, NumPy sorts of an array that fits in cache,
    and NumPy arithmetic over an 8 MB array that does not.  The first
    two follow the speed of interpreter-bound ops such as ``attack``'s,
    the last the memory bandwidth that ``verify``'s batches need.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(120_000):
        acc += i * i % 7
        table[i & 1023] = acc
    values = np.arange(1 << 16, dtype=np.int64)
    for _ in range(20):
        values = np.sort((values * 2654435761) % 1000003)
    big = np.arange(1 << 20, dtype=np.int64)
    big = (big * 2654435761) % 1000003
    big = big[::-1] + (big >> 3)
    return time.perf_counter() - t0


def reference_server() -> None:
    """Child side of ``HostSpeed``: one pass per CPU number read from stdin."""
    for line in sys.stdin:
        os.sched_setaffinity(0, {int(line)})
        print(reference_pass(), flush=True)


class HostSpeed:
    """The host's speed during a run, read from reference passes.

    A shared host runs the same work at speeds that drift by tens of
    percent over minutes, each CPU on its own.  ``scale()`` turns a time
    measured in this run into the time it would take on the defining
    host: it multiplies by ``REFERENCE_S`` over the run's median pass.
    The passes run only benchmark code, so a change in the program's
    speed is not scaled away.  They run in a helper process, one pinned
    to each CPU in turn, so they add nothing to this process's memory.
    """

    def __init__(self) -> None:
        self.passes: list[float] = []
        self.cpus = sorted(os.sched_getaffinity(0))
        self.proc: subprocess.Popen | None = None

    def sample(self, count: int = 1) -> float:
        """Take ``count`` passes on each CPU; returns the wall time they took."""
        t0 = time.perf_counter()
        if self.proc is None:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", "import common; common.reference_server()"],
                cwd=Path(__file__).resolve().parent,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
        for _ in range(count):
            for cpu in self.cpus:
                self.proc.stdin.write(f"{cpu}\n")
                self.proc.stdin.flush()
                self.passes.append(float(self.proc.stdout.readline()))
        return time.perf_counter() - t0

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.passes)

    def close(self) -> None:
        """Stop the helper process and reap it."""
        if self.proc is None:
            return
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# -- processes and memory ---------------------------------------------------


def rss_self_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env(root: Path) -> dict[str, str]:
    """Environment for children: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("REPRO_FLIGHT", None)
    env.pop("REPRO_FLIGHT_DIR", None)
    return env


def wait_reaped(proc: subprocess.Popen) -> tuple[int, float]:
    """Wait for a child; return its exit code and peak RSS in MB.

    ``os.wait4`` hands back the child's own resource usage (its peak
    RSS covers the processes it reaped itself, such as pool workers).
    """
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_child(
    argv: list[str], *, cwd: Path, env: dict[str, str], timeout: float
) -> tuple[int, bytes]:
    """Run a child to completion: its exit code and stdout."""
    proc = subprocess.Popen(
        argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        code, _ = wait_reaped(proc)
    except BaseException:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        raise
    finally:
        timer.cancel()
    return code, out


def stop_child(proc: subprocess.Popen, timeout: float = 10.0) -> float:
    """SIGTERM a child, escalate to SIGKILL, reap it; return its peak RSS."""
    if proc.returncode is not None:
        return 0.0
    proc.send_signal(signal.SIGTERM)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        if proc.stdout is not None:
            proc.stdout.read()
            proc.stdout.close()
        _, rss = wait_reaped(proc)
    finally:
        timer.cancel()
    return rss


def setup_trial_times(root: Path, workload: str, seed: int, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes of this benchmark.

    Each child runs ``run.py --setup-trial``: it imports the program,
    sets the workload up exactly as a measured run does, prints its
    set-up time and exits.
    """
    times = []
    for _ in range(count):
        code, out = run_child(
            [
                sys.executable,
                str(root / "perfbench" / "run.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", "1",
                "--trace", "0",
                "--setup-trial",
            ],
            cwd=root,
            env=dict(os.environ),
            timeout=120.0,
        )
        if code != 0:
            raise RuntimeError(f"set-up trial of {workload} exited {code}")
        times.append(float(json.loads(out.decode().strip().splitlines()[-1])["setup_s"]))
    return times


# -- an evaluator that shares no code with the program ----------------------


def evaluate_circuit(doc: dict[str, Any], values: list[int]) -> list[int]:
    """Run one input through a serialised ``network`` payload.

    Stage semantics: the optional permutation moves the value at
    position ``j`` to ``perm[j]``, then each gate ``[a, b, op]`` acts on
    its pair: ``+`` puts the minimum on ``a``, ``-`` the maximum, ``1``
    swaps, ``0`` leaves both.
    """
    x = list(values)
    for stage in doc["stages"]:
        perm = stage.get("perm")
        if perm is not None:
            moved = [0] * len(x)
            for j, target in enumerate(perm):
                moved[target] = x[j]
            x = moved
        for a, b, op in stage["gates"]:
            va, vb = x[a], x[b]
            if op == "+":
                if va > vb:
                    x[a], x[b] = vb, va
            elif op == "-":
                if va < vb:
                    x[a], x[b] = vb, va
            elif op == "1":
                x[a], x[b] = vb, va
    return x


def is_sorted(values: list[int]) -> bool:
    return all(values[i] <= values[i + 1] for i in range(len(values) - 1))
