"""A single level (parallel layer) of gates touching disjoint wires."""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from ..errors import LevelConflictError, WireError
from .gates import Gate, Op

__all__ = ["Level"]


class Level:
    """An immutable set of gates that act simultaneously on disjoint wires.

    The level corresponds to one entry :math:`\\vec{x}_i` of the paper's
    register model: every wire is touched by at most one gate, so all gates
    can fire in parallel.

    Parameters
    ----------
    gates:
        The gates of the level.  Their endpoints must be pairwise disjoint.
    """

    __slots__ = ("_gates", "__dict__")

    def __init__(self, gates: Iterable[Gate] = ()):
        gates = tuple(gates)
        seen: set[int] = set()
        for g in gates:
            if not isinstance(g, Gate):
                raise WireError(f"expected Gate, got {type(g).__name__}")
            for w in g.wires:
                if w in seen:
                    raise LevelConflictError(
                        f"wire {w} is touched by two gates in one level"
                    )
                seen.add(w)
        self._gates = gates

    # -- protocol ----------------------------------------------------------
    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gates of the level."""
        return self._gates

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Level):
            return NotImplemented
        return self._gates == other._gates

    def __hash__(self) -> int:
        return hash(self._gates)

    def __repr__(self) -> str:
        return f"Level([{', '.join(str(g) for g in self._gates)}])"

    # -- derived data --------------------------------------------------------
    @cached_property
    def comparator_count(self) -> int:
        """Number of true comparators (``+``/``-``) in the level."""
        return sum(1 for g in self._gates if g.is_comparator)

    @cached_property
    def touched_wires(self) -> frozenset[int]:
        """All wires touched by any gate of the level."""
        return frozenset(w for g in self._gates for w in g.wires)

    @cached_property
    def max_wire(self) -> int:
        """Largest wire index touched, or -1 for an empty level."""
        return max((max(g.wires) for g in self._gates), default=-1)

    def validate(self, n: int) -> None:
        """Check all gate endpoints lie in ``range(n)``."""
        for g in self._gates:
            g.validate(n)

    def gate_on(self, wire: int) -> Gate | None:
        """The gate touching ``wire``, if any."""
        for g in self._gates:
            if wire in g.wires:
                return g
        return None

    # -- vectorised index arrays (cached; used by evaluation and the judge) --
    @cached_property
    def op_arrays(self) -> dict[Op, tuple[np.ndarray, np.ndarray]]:
        """Per-op ``(a, b)`` endpoint index arrays for vectorised evaluation."""
        buckets: dict[Op, tuple[list[int], list[int]]] = {}
        for g in self._gates:
            a_list, b_list = buckets.setdefault(g.op, ([], []))
            a_list.append(g.a)
            b_list.append(g.b)
        return {
            op: (np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
            for op, (a, b) in buckets.items()
        }

    def apply_inplace(self, values: np.ndarray) -> None:
        """Apply the level to a value vector or batch, in place.

        ``values`` is a 1-D vector of length ``n`` or a 2-D ``(batch, n)``
        array; rows are processed independently.
        """
        arrays = self.op_arrays
        batched = values.ndim == 2

        def cols(idx: np.ndarray) -> np.ndarray:
            return values[:, idx] if batched else values[idx]

        def setcols(idx: np.ndarray, new: np.ndarray) -> None:
            if batched:
                values[:, idx] = new
            else:
                values[idx] = new

        for op, (ai, bi) in arrays.items():
            if op is Op.NOP:
                continue
            va = cols(ai)
            vb = cols(bi)
            if op is Op.PLUS:
                lo = np.minimum(va, vb)
                hi = np.maximum(va, vb)
                setcols(ai, lo)
                setcols(bi, hi)
            elif op is Op.MINUS:
                lo = np.minimum(va, vb)
                hi = np.maximum(va, vb)
                setcols(ai, hi)
                setcols(bi, lo)
            elif op is Op.SWAP:
                va = va.copy()
                setcols(ai, vb)
                setcols(bi, va)

    def normalized(self) -> "Level":
        """The level with each gate normalised to ``a < b`` and gates sorted."""
        return Level(sorted((g.normalized() for g in self._gates), key=lambda g: g.a))
