"""``verify``: the exhaustive 0-1 judge, in process.

One op is a sweep: each of the 8 registry sorters is built at n = 16
and checked over all 2^16 0-1 inputs, then its copy with the last level
removed is checked too -- 16 judge calls.  Six truncated copies yield a
witness (the early-exit path); ``balanced`` and ``shellsort`` still sort.
The seed only orders the 16 calls; every sweep does the same work.
"""

from __future__ import annotations

from common import Tracer, derive_seed, evaluate_circuit, is_sorted, op_loop

N_WIRES = 16

#: Pinned verdicts: does the sorter (full, truncated) sort every input?
VERDICTS = {
    "bitonic": (True, False),
    "oddeven_merge": (True, False),
    "merge_exchange": (True, False),
    "balanced": (True, True),
    "pratt": (True, False),
    "shellsort": (True, True),
    "oddeven_transposition": (True, False),
    "insertion": (True, False),
}


class VerifyWorkload:
    name = "verify"
    in_process = True

    def __init__(self, ctx):
        import random

        from repro.analysis.verify import find_unsorted_zero_one_input
        from repro.networks.serialize import network_to_json
        from repro.sorters.registry import get_sorter, sorter_names

        self.ctx = ctx
        self.random = random
        self.judge = find_unsorted_zero_one_input
        self.to_json = network_to_json
        self.get_sorter = get_sorter
        names = sorted(sorter_names())
        if names != sorted(VERDICTS):
            raise RuntimeError(f"sorter registry changed: {names}")
        self.calls = [(name, cut) for name in sorted(VERDICTS) for cut in (False, True)]
        self.sorts_calls = 0
        self.sorts_seconds = 0.0

    def setup(self, mode: str) -> None:
        """One untimed warm-up sweep (checked after set-up)."""
        _, _, check = self.sweep(-1, None)
        self.ctx.defer("verify op -1", check)

    def sweep(self, index: int, tracer: Tracer | None):
        """Run and time one sweep; returns its latency, verdicts and check."""
        order = list(self.calls)
        self.random.Random(derive_seed(self.ctx.seed, "verify", index)).shuffle(order)
        results = []
        t0 = self.ctx.clock()
        if tracer is None:
            for name, cut in order:
                net = self.get_sorter(name).build(N_WIRES)
                if cut:
                    net = net.truncated(net.depth - 1)
                results.append((name, cut, net, self.judge(net)))
        else:
            with tracer.span("verify.op", op=index):
                for name, cut in order:
                    with tracer.span("sorters.build"):
                        net = self.get_sorter(name).build(N_WIRES)
                        if cut:
                            net = net.truncated(net.depth - 1)
                    with tracer.span("analysis.judge") as span:
                        witness = self.judge(net)
                    span.name = "analysis.verify" if witness is None else "analysis.witness"
                    if witness is None:
                        self.sorts_calls += 1
                        self.sorts_seconds += span.duration
                    results.append((name, cut, net, witness))
        elapsed = self.ctx.clock() - t0

        def check() -> str | None:
            errors = [self.check(*result) for result in results]
            return "; ".join(e for e in errors if e is not None) or None

        verdicts = sorted(
            (name, cut, None if witness is None else witness.tolist())
            for name, cut, _, witness in results
        )
        return elapsed, verdicts, check

    def check(self, name: str, cut: bool, net, witness) -> str | None:
        """Compare with the pinned verdict; re-evaluate any witness."""
        label = f"{name}{' truncated' if cut else ''}"
        if (witness is None) != VERDICTS[name][cut]:
            return f"{label}: verdict {'sorts' if witness is None else 'unsorted'} is wrong"
        if witness is None:
            return None
        values = [int(v) for v in witness]
        if len(values) != N_WIRES or set(values) - {0, 1}:
            return f"{label}: witness is not a 0-1 input"
        if is_sorted(evaluate_circuit(self.to_json(net), values)):
            return f"{label}: the witness is sorted"
        return None

    def run(self, log, tracer: Tracer, seconds: float, mode: str) -> None:
        op_loop(self.ctx, self.name, log, tracer, seconds, mode, self.sweep)

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        return {
            "sorters.build_ms": tracer.median_self_ms("sorters.build"),
            "analysis.verify_ms": tracer.median_self_ms("analysis.verify"),
            "analysis.witness_ms": tracer.median_self_ms("analysis.witness"),
            "analysis.inputs_per_s": (
                self.sorts_calls * 2**N_WIRES / self.sorts_seconds
                if self.sorts_seconds else 0.0
            ),
        }

    def close(self) -> None:
        pass
