"""``attack``: the whole product path, in process, one thread.

One op builds a seeded ``random_iterated`` network (n = 1024, 2 blocks),
flattens it, writes it as circuit JSON and parses it back, attacks the
parsed circuit and writes the certificate JSON.  Every op has the same
size; only the seeds differ.  Serve, farm, the exhaustive judge and the
analyzers are bypassed.
"""

from __future__ import annotations

import json
import statistics

from common import Tracer, derive_seed, evaluate_circuit, is_sorted, op_loop

N_WIRES = 1024
BLOCKS = 2

LAYER_SPANS = (
    "networks.build", "networks.flatten", "networks.serialize",
    "networks.parse", "core.recognize", "core.adversary",
    "core.extract", "core.verify", "core.cert_json",
)


def check_certificate(circuit_text: str, cert_text: str) -> str | None:
    """Check one certificate on the circuit it names; ``None`` if it holds."""
    circuit = json.loads(circuit_text)["payload"]
    cert = json.loads(cert_text)["payload"]
    n = circuit["n"]
    a, b = cert["input_a"], cert["input_b"]
    (w0, w1), (m, m1) = cert["wires"], cert["values"]
    if m1 != m + 1:
        return f"values {m}, {m1} are not adjacent"
    if sorted(a) != list(range(n)) or sorted(b) != list(range(n)):
        return "inputs are not permutations of 0..n-1"
    if {a[w0], a[w1]} != {m, m1}:
        return "the named wires do not carry m and m+1"
    swapped = list(a)
    swapped[w0], swapped[w1] = a[w1], a[w0]
    if swapped != b:
        return "inputs differ by more than the swap on the named wires"
    out_a = evaluate_circuit(circuit, a)
    out_b = evaluate_circuit(circuit, b)
    if out_b != [m1 if v == m else m if v == m1 else v for v in out_a]:
        return "the circuit routes the two inputs differently"
    if is_sorted(out_a) and is_sorted(out_b):
        return "the circuit sorts both inputs"
    return None


class AttackWorkload:
    name = "attack"
    in_process = True

    def __init__(self, ctx):
        import numpy as np

        from repro.core import serialize as cert_serialize
        from repro.core.attack import attack_circuit, recognize_iterated_rdn
        from repro.core.fooling import extract_fooling_pair
        from repro.core.iterate import run_adversary
        from repro.experiments.workloads import seeded_family
        from repro.networks import serialize as net_serialize

        self.ctx = ctx
        self.np = np
        self.seeded_family = seeded_family
        self.net_serialize = net_serialize
        self.cert_serialize = cert_serialize
        self.attack_circuit = attack_circuit
        self.recognize = recognize_iterated_rdn
        self.run_adversary = run_adversary
        self.extract = extract_fooling_pair
        self.counts: dict[str, list[int]] = {"blocks": [], "survivors": [], "gates": []}

    def setup(self, mode: str) -> None:
        """One untimed warm-up op (its certificate is checked after set-up)."""
        _, _, check = self.timed_op(-1, None)
        self.ctx.defer("attack op -1", check)

    def _seeds(self, index: int) -> tuple[int, int]:
        seed = self.ctx.seed
        return (
            derive_seed(seed, "attack", index, "network"),
            derive_seed(seed, "attack", index, "adversary"),
        )

    def op(self, index: int) -> tuple[str, str]:
        """One untraced op through the public entry point ``attack_circuit``."""
        net_seed, rng_seed = self._seeds(index)
        flat = self.seeded_family("random_iterated", N_WIRES, BLOCKS, net_seed).to_network()
        text = self.net_serialize.dumps(flat)
        circuit = self.net_serialize.loads(text)
        outcome = self.attack_circuit(circuit, rng=self.np.random.default_rng(rng_seed))
        if outcome.certificate is None:
            raise RuntimeError(f"attack op {index} proved nothing")
        return text, self.cert_serialize.dumps(outcome.certificate)

    def traced_op(self, index: int, tracer: Tracer) -> tuple[str, str]:
        """The same op, calling the steps ``attack_circuit`` chains one by one."""
        net_seed, rng_seed = self._seeds(index)
        rng = self.np.random.default_rng(rng_seed)
        with tracer.span("attack.op", op=index):
            with tracer.span("networks.build"):
                iterated = self.seeded_family("random_iterated", N_WIRES, BLOCKS, net_seed)
            with tracer.span("networks.flatten"):
                flat = iterated.to_network()
            with tracer.span("networks.serialize"):
                text = self.net_serialize.dumps(flat)
            with tracer.span("networks.parse"):
                circuit = self.net_serialize.loads(text)
            with tracer.span("core.recognize"):
                recognized = self.recognize(circuit)
            with tracer.span("core.adversary"):
                run = self.run_adversary(recognized, k=None, rng=rng)
            if not run.survived:
                raise RuntimeError(f"attack op {index} proved nothing")
            with tracer.span("networks.flatten"):
                target = recognized.to_network()
            with tracer.span("core.extract"):
                cert = self.extract(
                    target, run.pattern, run.special_set, rng=rng, verify=False
                )
            with tracer.span("core.verify"):
                cert.verify(target, strict=True)
            with tracer.span("core.cert_json"):
                cert_text = self.cert_serialize.dumps(cert)
        self.counts["blocks"].append(run.blocks_processed)
        self.counts["survivors"].append(len(run.special_set))
        self.counts["gates"].append(circuit.size)
        return text, cert_text

    def timed_op(self, index: int, tracer: Tracer | None):
        """Run and time one op; returns its latency, certificate and check."""
        t0 = self.ctx.clock()
        if tracer is None:
            circuit_text, cert_text = self.op(index)
        else:
            circuit_text, cert_text = self.traced_op(index, tracer)
        elapsed = self.ctx.clock() - t0
        return elapsed, cert_text, lambda: check_certificate(circuit_text, cert_text)

    def run(self, log, tracer: Tracer, seconds: float, mode: str) -> None:
        op_loop(self.ctx, self.name, log, tracer, seconds, mode, self.timed_op)

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        out = {f"{name}_ms": tracer.median_self_ms(name) for name in LAYER_SPANS}
        out["core.blocks_n"] = statistics.median(self.counts["blocks"])
        out["core.survivors_n"] = statistics.median(self.counts["survivors"])
        out["networks.gates_n"] = statistics.median(self.counts["gates"])
        out["attack.span_coverage_pct"] = tracer.coverage_pct("attack.op")
        return out

    def close(self) -> None:
        pass
