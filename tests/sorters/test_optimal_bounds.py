"""The registry sorters against the proven optimal depths and sizes.

A sorting network with fewer levels or comparators than a proven optimum
cannot exist, so a registry sorter below one of these bounds is a bug in
the sorter, in its depth/size accounting, or in the 0-1 judge that must
still call it a sorter.

* Optimal depth for n = 1..16: Bundala and Závodný, "Optimal Sorting
  Networks" (arXiv 1310.6271).
* Optimal size for n = 1..12: Harder, "An Answer to the Bose-Nelson
  Sorting Problem for 11 and 12 Channels" (arXiv 2012.04400) proves 35
  and 39 for 11 and 12; the values up to 10 are the earlier results it
  builds on (Floyd and Knuth up to 8, Codish et al. for 9 and 10).
"""

import pytest

from repro.analysis.verify import is_sorting_network
from repro.sorters.registry import SORTER_REGISTRY

DEPTHS = [0, 1, 3, 3, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 9, 9]
SIZES = [0, 1, 3, 5, 9, 12, 16, 19, 25, 29, 35, 39]
OPTIMAL_DEPTH = dict(enumerate(DEPTHS, start=1))
OPTIMAL_SIZE = dict(enumerate(SIZES, start=1))


def built_sizes(spec) -> list[int]:
    """Every n in 1..16 the sorter builds."""
    return [n for n in OPTIMAL_DEPTH if not (spec.power_of_two_only and n & (n - 1))]


CASES = [
    pytest.param(name, n, id=f"{name}-{n}")
    for name, spec in SORTER_REGISTRY.items()
    for n in built_sizes(spec)
]


@pytest.mark.parametrize("name,n", CASES)
def test_sorter_respects_proven_optima(name, n):
    net = SORTER_REGISTRY[name].build(n)
    assert is_sorting_network(net), f"{name} n={n} does not sort"
    depth = net.comparator_depth
    assert depth >= OPTIMAL_DEPTH[n], (
        f"{name} n={n}: depth {depth} < proven optimum {OPTIMAL_DEPTH[n]}"
    )
    if n in OPTIMAL_SIZE:
        assert net.size >= OPTIMAL_SIZE[n], (
            f"{name} n={n}: size {net.size} < proven optimum {OPTIMAL_SIZE[n]}"
        )


def test_bounds_are_tight_somewhere():
    """Batcher's networks meet the optima at small n, so the tables are not loose."""
    merge = SORTER_REGISTRY["oddeven_merge"].build
    assert merge(4).size == OPTIMAL_SIZE[4]
    assert merge(8).size == OPTIMAL_SIZE[8]
    assert merge(4).comparator_depth == OPTIMAL_DEPTH[4]
    assert merge(8).comparator_depth == OPTIMAL_DEPTH[8]
