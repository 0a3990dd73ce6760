"""``serve``: the certificate daemon under a closed loop of two clients.

``python -m repro serve --workers 1`` runs as a child on a fresh store.
Two client threads take requests in order from one fixed, seeded
sequence and send the next only after the previous reply.  Every request
is an ``attack`` query embedding a seeded n = 256, 2-block circuit
(~35 KB of JSON).  The sequence is built from cycles of ten requests:

* slot 0 is the first touch of a new circuit (computed through the
  batcher, the farm pool, the engine and a store write);
* slot 1 repeats it at once, so it usually joins the computation;
* slot 2 is the first touch of a circuit the set-up put in the store
  through ``farm.runner.run_jobs`` (read back and revalidated);
* slots 3-9 repeat circuits of earlier cycles (memory tier).

So 10% of requests are computed, 10% come from the store and 80% are
warm.  The sequence length is fixed by ``--seconds``, so a faster commit
cannot change the mix.
"""

from __future__ import annotations

import http.client
import json
import random
import statistics
import subprocess
import sys
import threading

from common import SETUP_TRIALS, Tracer, child_env, derive_seed, stop_child

N_WIRES = 256
BLOCKS = 2
CYCLE = 10
#: Cycles per second of ``--seconds``: the sequence lasts about that
#: long on a 2-core host at the commit that defined the benchmark.
CYCLES_PER_SECOND = 1.2
PROBE_CYCLES = 2
#: Cycles sent between two reference passes of a measured run.
SEGMENT_CYCLES = 2
#: Circuits whose replies are compared with an in-process execution.
SAMPLE = 3
WARM = ("memory", "joined")


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class Daemon:
    """One ``repro serve`` child on an ephemeral port."""

    def __init__(self, ctx, store_dir):
        self.ctx = ctx
        t0 = ctx.clock()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--store", str(store_dir), "--workers", "1",
            ],
            cwd=ctx.workdir,
            env=child_env(ctx.root),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline().decode()
        finally:
            watchdog.cancel()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])
        while True:
            try:
                status, _ = self.get("/healthz")
            except OSError:
                status = 0
            if status == 200:
                break
            if ctx.clock() - t0 > 60.0:
                self.stop()
                raise RuntimeError("daemon never became healthy")
        self.start_s = ctx.clock() - t0
        self.rss_mb = 0.0

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.returncode is None:
            self.rss_mb = stop_child(self.proc)


class ServeWorkload:
    name = "serve"
    in_process = False

    def __init__(self, ctx):
        from repro.experiments.workloads import seeded_family
        from repro.farm.jobs import AttackJob
        from repro.farm.runner import run_jobs
        from repro.farm.store import ArtifactStore
        from repro.networks import serialize as net_serialize
        from repro.serve import protocol

        self.ctx = ctx
        self.seeded_family = seeded_family
        self.net_serialize = net_serialize
        self.AttackJob = AttackJob
        self.run_jobs = run_jobs
        self.ArtifactStore = ArtifactStore
        self.protocol = protocol
        self.daemon: Daemon | None = None
        self.store_dir = ctx.workdir / "store-0"
        self.replies: list[dict] = []
        self.stats: dict = {}
        self.prefill_times: list[float] = []
        self.start_times: list[float] = []
        self.put_tracer = Tracer(False)
        self.dispatch_s: list[float] = []

    # -- inputs ---------------------------------------------------------------

    def _circuit(self, tag: str, cycle: int) -> dict:
        seed = derive_seed(self.ctx.seed, "serve", tag, cycle)
        flat = self.seeded_family("random_iterated", N_WIRES, BLOCKS, seed).to_network()
        return json.loads(self.net_serialize.dumps(flat))["payload"]

    def _build_inputs(self, cycles: int) -> None:
        """Circuits, request bodies and the request sequence."""
        self.payloads: list[dict] = []
        self.kind: list[str] = []  # "new" or "stored", per circuit
        sequence: list[int] = []
        rng = random.Random(derive_seed(self.ctx.seed, "serve", "sequence"))
        for c in range(cycles):
            new, stored = len(self.payloads), len(self.payloads) + 1
            self.payloads += [self._circuit("new", c), self._circuit("stored", c)]
            self.kind += ["new", "stored"]
            earlier = list(range(new)) or [new, stored]
            sequence += [new, new, stored] + [rng.choice(earlier) for _ in range(CYCLE - 3)]
        self.sequence = sequence
        self.bodies = [
            json.dumps(
                {"protocol": self.protocol.PROTOCOL_VERSION, "op": "attack",
                 "params": {"network": payload}}
            ).encode()
            for payload in self.payloads
        ]
        self.first_sent = [threading.Event() for _ in self.payloads]
        self.first_position: dict[int, int] = {}
        for position, circuit in enumerate(sequence):
            self.first_position.setdefault(circuit, position)

    def _job(self, circuit: int):
        return self.AttackJob(network=self.payloads[circuit])

    # -- set-up ---------------------------------------------------------------

    def setup(self, mode: str) -> list[float]:
        """Prefill a fresh store, then start the daemon until ``/healthz`` is 200.

        A measured run sets up ``SETUP_TRIALS`` times from scratch, each
        time into a new store and followed by a reference pass, and serves
        from the last; traced runs set up once.  Returns the time of each
        complete set-up.
        """
        if mode == "probe":
            cycles = PROBE_CYCLES
        else:
            cycles = max(PROBE_CYCLES, round(self.ctx.seconds * CYCLES_PER_SECOND))
        self._build_inputs(cycles)
        if mode != "plain":
            self.put_tracer = Tracer(True)
        times = []
        for trial in range(SETUP_TRIALS if mode == "plain" else 1):
            if self.daemon is not None:
                self.daemon.stop()
            self.store_dir = self.ctx.workdir / f"store-{trial}"
            t0 = self.ctx.clock()
            self._prefill()
            prefill_s = self.ctx.clock() - t0
            self.daemon = Daemon(self.ctx, self.store_dir)
            self.prefill_times.append(prefill_s)
            self.start_times.append(self.daemon.start_s)
            times.append(prefill_s + self.daemon.start_s)
            if mode == "plain":
                self.ctx.host.sample()
        return times

    def _prefill(self) -> None:
        """Compute the ``stored`` circuits with ``run_jobs`` into the store."""
        stored = [i for i, kind in enumerate(self.kind) if kind == "stored"]
        store = self.ArtifactStore(self.store_dir)
        report = self.run_jobs([self._job(i) for i in stored], workers=1)
        for outcome in report.outcomes:
            if not outcome.ok:
                raise RuntimeError(f"prefill job failed: {outcome.error}")
            with self.put_tracer.span("farm.store_put"):
                store.put(
                    outcome.key,
                    {"job": outcome.job.to_json(), "status": "ok", "result": outcome.result},
                )

    # -- the timed loop ---------------------------------------------------------

    def _request(self, position: int, circuit: int, traced_tracer: Tracer | None) -> dict:
        first = self.first_position[circuit] == position
        if not first:
            self.first_sent[circuit].wait(60.0)
        reply = {"position": position, "circuit": circuit, "traced": False}
        tracer = traced_tracer or Tracer(False)
        conn = http.client.HTTPConnection("127.0.0.1", self.daemon.port, timeout=120)
        t0 = self.ctx.clock()
        try:
            with tracer.span("serve.request", op=position) as span:
                conn.request(
                    "POST", "/v1/query", self.bodies[circuit],
                    {"Content-Type": "application/json"},
                )
                if first:
                    self.first_sent[circuit].set()
                resp = conn.getresponse()
                data = resp.read()
                reply["latency"] = self.ctx.clock() - t0
                reply["status"] = resp.status
                if resp.status == 200:
                    doc = json.loads(data)
                    reply["doc"] = doc
                    if span is not None:
                        span.name = f"serve.{doc.get('source')}"
                        reply["traced"] = True
        except (OSError, http.client.HTTPException, ValueError) as exc:
            reply["error"] = repr(exc)
        finally:
            conn.close()
            if first:
                self.first_sent[circuit].set()
        return reply

    def run(self, log, tracer: Tracer, seconds: float, mode: str) -> None:
        """Send the whole sequence from two closed-loop client threads.

        The sequence goes out in segments of ``SEGMENT_CYCLES`` cycles.  In
        a measured run one reference pass follows each segment, while no
        request is in flight; it is left out of the timed window.
        """
        lock = threading.Lock()
        deadline = self.ctx.clock() + 3 * seconds + 60.0
        step = SEGMENT_CYCLES * CYCLE
        paused = 0.0

        def client(cursor) -> None:
            while True:
                with lock:
                    position = next(cursor, None)
                if position is None or self.ctx.clock() > deadline:
                    return
                cycle = position // CYCLE
                traced = mode == "probe" or (mode == "traced" and cycle % 2 == 1)
                reply = self._request(
                    position, self.sequence[position], tracer if traced else None
                )
                with lock:
                    self.replies.append(reply)

        start = self.ctx.clock()
        for first in range(0, len(self.sequence), step):
            cursor = iter(range(first, min(first + step, len(self.sequence))))
            threads = [threading.Thread(target=client, args=(cursor,)) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if mode == "plain":
                paused += self.ctx.host.sample()
        log.window_s = self.ctx.clock() - start - paused
        for reply in self.replies:
            log.attempted += 1
            doc = reply.get("doc")
            if doc is None or doc.get("status") != "ok":
                log.failed += 1
                self.ctx.note(f"serve request {reply['position']} failed: "
                              f"{reply.get('error') or reply.get('status')}")
                continue
            log.record(reply["latency"], traced=reply["traced"])
        status, body = self.daemon.get("/statsz")
        if status == 200:
            self.stats = json.loads(body)
        self.daemon.stop()
        log.rss_mb = self.daemon.rss_mb
        self.check(tracer if mode != "plain" else None)

    # -- output checks ----------------------------------------------------------

    def check(self, tracer: Tracer | None) -> None:
        """Sources match the sequence's classes; results agree everywhere.

        Each circuit is answered cold exactly once -- computed for a new
        circuit, from the store for a prefilled one -- and warm otherwise;
        every reply for a circuit carries the same key and result; and a
        seeded sample of circuits matches an in-process execution.
        """
        by_circuit: dict[int, list[dict]] = {}
        for reply in self.replies:
            by_circuit.setdefault(reply["circuit"], []).append(reply)
        for circuit, replies in sorted(by_circuit.items()):
            if any(r.get("doc", {}).get("status") != "ok" for r in replies):
                continue
            where = f"serve circuit {circuit}"
            cold = "computed" if self.kind[circuit] == "new" else "store"
            sources = [r["doc"]["source"] for r in replies]
            if sources.count(cold) != 1 or any(
                s not in WARM for s in sources if s != cold
            ):
                self.ctx.require(f"sources {sources}, expected one {cold!r}", where)
            if len({canonical(r["doc"]["result"]) for r in replies}) != 1:
                self.ctx.require("replies carry different results", where)
            if len({r["doc"]["key"] for r in replies}) != 1:
                self.ctx.require("replies carry different keys", where)
        rng = random.Random(derive_seed(self.ctx.seed, "serve", "sample"))
        answered = sorted(by_circuit)
        tracer = tracer or Tracer(False)
        for circuit in rng.sample(answered, min(SAMPLE, len(answered))):
            reply = by_circuit[circuit][0]
            if reply.get("doc", {}).get("status") != "ok":
                continue
            job = self._job(circuit)
            with tracer.span("farm.execute"):
                result = job.execute()
            if canonical(result) != canonical(reply["doc"]["result"]):
                self.ctx.require("result differs from an in-process run", f"serve circuit {circuit}")
            if reply["doc"]["key"] != job.key():
                self.ctx.require("key differs from Job.key", f"serve circuit {circuit}")
            if tracer.enabled:
                self._layer_probes(tracer, circuit, reply["doc"], job, result)

    def _layer_probes(self, tracer: Tracer, circuit: int, reply_doc: dict, job, result) -> None:
        """Time the farm and protocol calls the daemon makes, in process."""
        protocol = self.protocol
        doc = json.loads(self.bodies[circuit])
        with tracer.span("serve.protocol"):
            request = protocol.request_from_json(doc)
            request.job()
            protocol.ServeResponse(
                op="attack", key=reply_doc["key"], status="ok",
                source=reply_doc["source"], result=reply_doc["result"],
            ).to_json()
        with tracer.span("farm.key"):
            job.key()
        with tracer.span("farm.revalidate"):
            if not job.revalidate(result):
                self.ctx.require("revalidation rejected a fresh result", f"serve circuit {circuit}")
        with tracer.span("farm.store_get"):
            self.ArtifactStore(self.store_dir).get(reply_doc["key"])
        t0 = self.ctx.clock()
        report = self.run_jobs([job], workers=1)
        wall = self.ctx.clock() - t0
        if not report.outcomes or not report.outcomes[0].ok:
            self.ctx.require("run_jobs failed on a served circuit", f"serve circuit {circuit}")
        else:
            self.dispatch_s.append(wall - report.outcomes[0].elapsed)

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        counts = {s: 0 for s in ("memory", "store", "joined", "computed")}
        rejected = 0
        for reply in self.replies:
            if reply.get("status") == 429:
                rejected += 1
            source = reply.get("doc", {}).get("source")
            if source in counts:
                counts[source] += 1
        out = {f"serve.{s}_ms": tracer.median_self_ms(f"serve.{s}") for s in counts}
        out.update({f"serve.{s}_n": float(n) for s, n in counts.items()})
        out["serve.rejected_n"] = float(rejected)
        batches = self.stats.get("batches", 0)
        out["serve.batches_n"] = float(batches)
        out["serve.batch_size"] = self.stats.get("dispatched", 0) / batches if batches else 0.0
        out["farm.store_hits_n"] = float(self.stats.get("store", {}).get("hits", 0))
        out["farm.store_misses_n"] = float(self.stats.get("store", {}).get("misses", 0))
        for name in ("serve.protocol", "farm.key", "farm.execute", "farm.revalidate",
                     "farm.store_get"):
            out[f"{name}_ms"] = tracer.median_self_ms(name)
        out["farm.store_put_ms"] = self.put_tracer.median_self_ms("farm.store_put")
        out["farm.dispatch_ms"] = 1000.0 * statistics.median(self.dispatch_s) if self.dispatch_s else 0.0
        out["farm.prefill_s"] = statistics.median(self.prefill_times)
        out["serve.start_s"] = statistics.median(self.start_times)
        return out

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
