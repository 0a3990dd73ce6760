"""Differential test: the bit-sliced 0-1 judge against a brute-force oracle.

The oracle is defined here and shares nothing with the judge's kernel:
every 0-1 input from ``itertools.product`` goes through
``ComparatorNetwork.evaluate_batch`` and is checked row by row.  The
judge must agree on the verdict, the witness (the lowest failing input
in product order), the witness count and the full witness list.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.verify import find_unsorted_zero_one_input, is_sorting_network
from repro.analysis.zero_one import witness_count, zero_one_witnesses
from repro.networks.gates import Gate, Op, comparator, exchange
from repro.networks.level import Level
from repro.networks.network import ComparatorNetwork, Stage
from repro.networks.permutations import Permutation, shuffle_permutation
from repro.sorters.registry import get_sorter


def oracle_failures(net: ComparatorNetwork) -> np.ndarray:
    """Every 0-1 input the network leaves unsorted, in product order."""
    inputs = np.array(list(itertools.product((0, 1), repeat=net.n)), dtype=np.int64)
    out = net.evaluate_batch(inputs)
    return inputs[(np.diff(out, axis=1) < 0).any(axis=1)]


def assert_judge_matches_oracle(net: ComparatorNetwork) -> None:
    expected = oracle_failures(net)
    witness = find_unsorted_zero_one_input(net)
    assert is_sorting_network(net) == (expected.shape[0] == 0)
    if expected.shape[0] == 0:
        assert witness is None
    else:
        assert witness is not None
        assert witness.dtype == np.int64
        assert witness.tolist() == expected[0].tolist()
    assert witness_count(net) == expected.shape[0]
    witnesses = zero_one_witnesses(net)
    assert witnesses.dtype == np.int64
    assert witnesses.shape == expected.shape
    assert witnesses.tolist() == expected.tolist()


@st.composite
def staged_networks(draw, max_n: int = 10, max_depth: int = 8):
    """Networks with mixed ``+``/``-``/``0``/``1`` gates and stage permutations."""
    n = draw(st.integers(1, max_n))
    depth = draw(st.integers(0, max_depth))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    ops = [Op.PLUS, Op.MINUS, Op.NOP, Op.SWAP]
    stages = []
    for _ in range(depth):
        wires = rng.permutation(n)
        count = int(rng.integers(0, n // 2 + 1))
        gates = [
            Gate(int(wires[2 * i]), int(wires[2 * i + 1]), ops[int(rng.integers(4))])
            for i in range(count)
        ]
        perm = Permutation(rng.permutation(n)) if rng.random() < 0.5 else None
        stages.append(Stage(level=Level(gates), perm=perm))
    return ComparatorNetwork(n, stages)


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(staged_networks())
    def test_judge_matches_oracle(self, net):
        assert_judge_matches_oracle(net)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_empty_network(self, n):
        # lanes beyond 2^n repeat valid inputs, so unmasked lanes would
        # inflate the count; n + 1 of the 2^n inputs are already sorted
        net = ComparatorNetwork(n, [])
        assert_judge_matches_oracle(net)
        assert witness_count(net) == 2**n - (n + 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_small_sorters(self, n):
        net = get_sorter("oddeven_transposition").build(n)
        assert_judge_matches_oracle(net)
        assert find_unsorted_zero_one_input(net) is None

    @pytest.mark.parametrize("n", range(2, 7))
    def test_small_truncated_sorters(self, n):
        net = get_sorter("insertion").build(n)
        assert_judge_matches_oracle(net.truncated(net.depth - 1))

    def test_exchanges_and_permutations(self):
        shuffle = shuffle_permutation(8)
        net = ComparatorNetwork(
            8,
            [
                Stage(level=Level([exchange(0, 7), comparator(1, 2)]), perm=shuffle),
                Stage(level=Level([Gate(3, 4, Op.MINUS), Gate(5, 6, Op.NOP)])),
                Stage(level=Level([comparator(0, 1)]), perm=shuffle.inverse()),
            ],
        )
        assert_judge_matches_oracle(net)

    def test_second_chunk_witness(self):
        # n = 19 spans two 2^18-input chunks.  Sorting wires 1..18 only
        # fails exactly when wire 0 carries a 1 above some 0, so every
        # failing input lies in the second chunk; the lowest is code 2^18.
        n = 19
        tail = get_sorter("oddeven_transposition").build(n - 1)
        net = ComparatorNetwork(
            n,
            [[comparator(g.a + 1, g.b + 1) for g in stage.level] for stage in tail],
        )
        expected = np.zeros(n, dtype=np.int64)
        expected[0] = 1
        assert find_unsorted_zero_one_input(net).tolist() == expected.tolist()
        assert witness_count(net) == 2 ** (n - 1) - 1
