"""Sorting-network verification: 0-1 principle, exhaustive and randomised.

The 0-1 principle (cited in Section 5) reduces sorting-network
verification to the :math:`2^n` binary inputs: a comparator network sorts
every input iff it sorts every 0-1 input.  The exhaustive judge is
bit-sliced: wire ``i`` becomes a row of ``uint64`` words over all
:math:`2^n` inputs, lane ``64 w + b`` of the row holding bit ``i`` of
input code ``64 w + b`` (wire 0 is the most significant bit), so one word
operation runs 64 inputs at once.  A ``+`` gate maps rows ``(a, b)`` to
``(a & b, a | b)``; ``-`` is its mirror image, ``1`` exchanges are wire
relabellings and ``0`` is skipped.  There is also an exhaustive check
over permutations for tiny ``n`` and random sampling as a cheap
refutation pass.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from ..errors import ReproError
from ..networks.gates import Op
from ..networks.network import ComparatorNetwork, Stage

__all__ = [
    "is_sorted_vector",
    "sorts_input",
    "find_unsorted_zero_one_input",
    "is_sorting_network",
    "random_sorting_fraction",
    "exhaustive_permutation_check",
]

#: Words per kernel chunk (2^18 inputs): bounds memory at n = 24 and
#: keeps the early exit on the first failing chunk.
_CHUNK_WORDS = 1 << 12
_ONE = np.uint64(1)
_ALL = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
_LANES = np.arange(64, dtype=np.uint64)
#: Row words of the six low code bits: bit ``k`` of lane ``b`` is
#: ``(b >> k) & 1``, the same in every word.
_LOW_BITS = np.array(
    [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ],
    dtype=np.uint64,
)


def is_sorted_vector(values: np.ndarray) -> bool:
    """True iff the vector is nondecreasing."""
    values = np.asarray(values)
    return bool((np.diff(values) >= 0).all())


def sorts_input(network: ComparatorNetwork, values) -> bool:
    """True iff the network's output on this input is nondecreasing."""
    return is_sorted_vector(network.evaluate(values))


def _decode(codes: np.ndarray, n: int) -> np.ndarray:
    """The fresh int64 0-1 input(s) of an int64 code (array), one per row.

    Wire 0 carries the most significant bit, so ascending codes are the
    inputs in ``itertools.product((0, 1), repeat=n)`` order.
    """
    bit_cols = np.arange(n - 1, -1, -1, dtype=np.int64)
    return (codes[..., None] >> bit_cols) & 1


def _stage_rows(stage: Stage, row_at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(min rows, max rows)`` of one stage's comparators.

    ``row_at[p]`` is the row holding wire position ``p``; it is updated in
    place, so permutations and ``1`` exchanges move no data.
    """
    if stage.perm is not None:
        row_at[stage.perm.mapping] = row_at.copy()
    ops = stage.level.op_arrays
    if Op.SWAP in ops:
        a, b = ops[Op.SWAP]
        row_at[a], row_at[b] = row_at[b], row_at[a]
    empty = np.empty(0, dtype=np.int64)
    plus_a, plus_b = ops.get(Op.PLUS, (empty, empty))
    minus_a, minus_b = ops.get(Op.MINUS, (empty, empty))
    lo = row_at[np.concatenate([plus_a, minus_b])]
    hi = row_at[np.concatenate([plus_b, minus_a])]
    return lo, hi


def _compare_rows(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Fire one level of ``+`` gates on bit-sliced rows, in place."""
    a = x[lo]
    b = x[hi]
    x[lo] = a & b
    x[hi] = a | b


def _input_rows(n: int, first: int, stop: int) -> np.ndarray:
    """Bit-sliced rows of the 0-1 inputs with codes ``64*first .. 64*stop - 1``."""
    words = np.arange(first, stop, dtype=np.uint64)
    high_shifts = np.arange(max(n - 6, 0), dtype=np.uint64)[::-1, None]
    low = min(n, 6)
    x = np.empty((n, words.shape[0]), dtype=np.uint64)
    x[: n - low] = ((words >> high_shifts) & _ONE) * _ALL
    x[n - low :] = _LOW_BITS[low - 1 :: -1, None]
    return x


def _failing_words(
    network: ComparatorNetwork,
) -> Iterator[tuple[int, np.ndarray]]:
    """``(first word, failing mask)`` per chunk, lowest codes first.

    Bit ``b`` of mask word ``w`` is set iff the network leaves input code
    ``64 * (first + w) + b`` unsorted; lanes beyond :math:`2^n` are off.
    """
    n = network.n
    row_at = np.arange(n, dtype=np.int64)
    plan = [_stage_rows(stage, row_at) for stage in network.stages]
    valid = _ALL if n >= 6 else np.uint64((1 << (1 << n)) - 1)
    total = max((1 << n) >> 6, 1)
    first = 0
    # chunk stepping: each iteration runs 2^18 inputs as word operations
    while first < total:
        stop = min(first + _CHUNK_WORDS, total)
        x = _input_rows(n, first, stop)
        for lo, hi in plan:
            _compare_rows(x, lo, hi)
        out = x[row_at]
        bad = np.bitwise_or.reduce(out[:-1] & ~out[1:], axis=0) & valid
        yield first, bad
        first = stop


def _failing_codes(first: int, bad: np.ndarray) -> np.ndarray:
    """The int64 codes of the set lanes of ``bad``, ascending."""
    lane_bits = (bad[:, None] >> _LANES) & _ONE
    return np.flatnonzero(lane_bits) + 64 * first


def find_unsorted_zero_one_input(
    network: ComparatorNetwork, max_wires: int = 24
) -> np.ndarray | None:
    """The lowest-code 0-1 input the network fails to sort, or ``None``.

    Exhaustive over all :math:`2^n` binary vectors (bit-sliced); refuses
    ``n > max_wires`` to avoid accidental multi-hour runs.  The witness
    is a fresh int64 array.
    """
    n = network.n
    if n > max_wires:
        raise ReproError(
            f"exhaustive 0-1 check over 2^{n} inputs refused (max_wires={max_wires})"
        )
    for first, bad in _failing_words(network):
        hits = np.flatnonzero(bad)
        if hits.size:
            word = int(hits[0])
            code = _failing_codes(first + word, bad[word : word + 1])[0]
            return _decode(code, n)
    return None


def is_sorting_network(network: ComparatorNetwork, max_wires: int = 24) -> bool:
    """Exact check via the 0-1 principle."""
    return find_unsorted_zero_one_input(network, max_wires=max_wires) is None


def exhaustive_permutation_check(
    network: ComparatorNetwork, max_wires: int = 8
) -> np.ndarray | None:
    """A permutation input the network fails to sort, or ``None``.

    Exhaustive over all ``n!`` permutations; independent of the 0-1
    principle, so the two checkers cross-validate each other in tests.
    """
    n = network.n
    if n > max_wires:
        raise ReproError(
            f"exhaustive check over {n}! permutations refused (max_wires={max_wires})"
        )
    batch = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    out = network.evaluate_batch(batch)
    bad = np.nonzero((np.diff(out, axis=1) < 0).any(axis=1))[0]
    if bad.size:
        return batch[int(bad[0])].copy()
    return None


def random_sorting_fraction(
    network: ComparatorNetwork,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Fraction of random permutation inputs the network sorts.

    The measurement behind the Section 5 average-case discussion: shallow
    shuffle-based networks sort *most* inputs long before they sort all.
    """
    n = network.n
    batch = np.stack([rng.permutation(n) for _ in range(trials)])
    out = network.evaluate_batch(batch)
    ok = ~(np.diff(out, axis=1) < 0).any(axis=1)
    return float(ok.mean())
