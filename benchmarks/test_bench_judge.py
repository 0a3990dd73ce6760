"""Bit-sliced 0-1 judge throughput against a brute-force oracle.

The judge (``find_unsorted_zero_one_input``) runs 64 inputs per uint64
word operation.  The oracle pushes every ``itertools.product`` 0-1 input
through ``ComparatorNetwork.evaluate_batch``, the int64 batch path the
judge replaced.  On the 8 registry sorters at n = 16 the judge must
agree with the oracle and beat it by at least ``SPEEDUP_FLOOR``; one
exhaustive n = 24 run is timed too.  The figures are archived to
``benchmarks/results/judge.json``.
"""

import itertools
import json
import time

import numpy as np

from repro.analysis.verify import find_unsorted_zero_one_input
from repro.sorters.registry import get_sorter, sorter_names

N = 16
SPEEDUP_FLOOR = 20.0


def oracle_sorts(net) -> bool:
    inputs = np.array(list(itertools.product((0, 1), repeat=net.n)), dtype=np.int64)
    out = net.evaluate_batch(inputs)
    return not bool((np.diff(out, axis=1) < 0).any())


def best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_bench_judge_speedup(results_dir, capsys):
    nets = {name: get_sorter(name).build(N) for name in sorted(sorter_names())}
    judge_s, verdicts = best_of(
        lambda: [find_unsorted_zero_one_input(net) is None for net in nets.values()], 5
    )
    oracle_s, expected = best_of(
        lambda: [oracle_sorts(net) for net in nets.values()], 2
    )
    assert verdicts == expected == [True] * len(nets)

    wide = get_sorter("merge_exchange").build(24)
    wide_s, wide_witness = best_of(lambda: find_unsorted_zero_one_input(wide), 1)
    assert wide_witness is None

    speedup = oracle_s / judge_s
    doc = {
        "workload": f"{len(nets)} registry sorters at n={N}, exhaustive 0-1",
        "sorters": list(nets),
        "judge_s": judge_s,
        "oracle_s": oracle_s,
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "judge_inputs_per_s": len(nets) * 2**N / judge_s,
        "merge_exchange_n24_s": wide_s,
    }
    (results_dir / "judge.json").write_text(json.dumps(doc, indent=2) + "\n")
    with capsys.disabled():
        print()
        print(
            f"judge: {len(nets)} sorters at n={N} in {judge_s * 1e3:.1f} ms "
            f"vs oracle {oracle_s:.2f} s ({speedup:.0f}x); "
            f"merge_exchange n=24 in {wide_s:.2f} s"
        )
    assert speedup >= SPEEDUP_FLOOR, (
        f"judge only {speedup:.1f}x faster than the batch oracle "
        f"(floor {SPEEDUP_FLOOR:.0f}x)"
    )
