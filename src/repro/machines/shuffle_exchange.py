"""The directed shuffle-exchange register machine (a strict ascend machine).

The paper frames its result as a separation between "ascend-descend"
machines (shuffle and unshuffle both available) and strict "ascend"
machines (shuffle only), and notes that the primary appeal of hypercubic
networks is their "elegant and efficient strict ascend algorithms for a
wide variety of basic operations (e.g., parallel prefix, FFT)".

:class:`ShuffleExchangeMachine` is that strict ascend machine: ``n = 2^d``
registers; each step shuffles all register contents and then applies a
local operation to every adjacent register pair ``(2k, 2k+1)``.  A step's
pair operation may be a comparator/exchange label (running a
shuffle-based network) or an arbitrary user function (running ascend
algorithms such as prefix sums or the FFT -- see
:mod:`repro.machines.ascend`).

Key structural fact used throughout (and proved in the tests): after
``t + 1`` shuffles the register originally at index ``u`` sits at position
``rot_left(u, t+1)``, so step ``t``'s adjacent pairs are exactly the pairs
of original indices differing in bit ``d - 1 - t``; after ``d`` steps the
registers are back in their original order.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence


from .._util import ilog2, require_power_of_two, rotate_left, rotate_right
from ..errors import MachineError
from ..networks.gates import Op
from ..networks.registers import RegisterProgram

__all__ = ["PairOperation", "ShuffleExchangeMachine"]

#: A per-pair step operation: called with ``(k, value_even, value_odd)``
#: for the pair at registers ``(2k, 2k+1)`` and returns the new pair.
PairOperation = Callable[[int, Any, Any], tuple[Any, Any]]


class ShuffleExchangeMachine:
    """``n`` registers driven by shuffle steps (strict ascend machine).

    Parameters
    ----------
    values:
        Initial register contents (any Python/NumPy values).
    """

    def __init__(self, values: Sequence[Any]):
        values = list(values)
        require_power_of_two(len(values), "register count")
        self._registers = values
        self._d = ilog2(len(values))
        self._steps_taken = 0

    # -- inspection ----------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of registers."""
        return len(self._registers)

    @property
    def d(self) -> int:
        """``lg n``."""
        return self._d

    @property
    def steps_taken(self) -> int:
        """Number of shuffle steps executed so far."""
        return self._steps_taken

    @property
    def registers(self) -> list[Any]:
        """A copy of the current register contents."""
        return list(self._registers)

    def original_index_at(self, position: int) -> int:
        """Which original register index currently sits at ``position``.

        Valid for the pure data movement (ignores that pair operations may
        have rewritten values): position ``p`` holds the rotation preimage
        ``rot_right(p, steps mod d)``.
        """
        return rotate_right(position, self._d, self._steps_taken % self._d)

    def current_pair_bit(self) -> int:
        """The original-index bit the *next* step's pairs differ in."""
        return (self._d - 1 - self._steps_taken) % self._d

    # -- stepping ------------------------------------------------------------
    def step(self, operation: PairOperation | None = None) -> None:
        """One machine step: shuffle, then apply the pair operation."""
        if self._d == 0:
            raise MachineError("a 1-register machine has no shuffle step")
        old = self._registers
        new: list[Any] = [None] * len(old)
        for j, v in enumerate(old):
            new[rotate_left(j, self._d, 1)] = v
        if operation is not None:
            for k in range(len(new) // 2):
                a, b = new[2 * k], new[2 * k + 1]
                new[2 * k], new[2 * k + 1] = operation(k, a, b)
        self._registers = new
        self._steps_taken += 1

    def step_ops(self, ops: Sequence[Op | str]) -> None:
        """One step applying register-model labels ``{+,-,0,1}`` per pair."""
        resolved = [Op.from_str(o) for o in ops]
        if len(resolved) != self.n // 2:
            raise MachineError(
                f"need {self.n // 2} pair labels, got {len(resolved)}"
            )

        def operation(k: int, a: Any, b: Any) -> tuple[Any, Any]:
            op = resolved[k]
            if op is Op.PLUS:
                return (a, b) if a <= b else (b, a)
            if op is Op.MINUS:
                return (b, a) if a <= b else (a, b)
            if op is Op.SWAP:
                return (b, a)
            return (a, b)

        self.step(operation)

    def run_program(self, program: RegisterProgram) -> list[Any]:
        """Execute a *shuffle-based* register program; returns the registers.

        Raises :class:`MachineError` if any step's permutation is not the
        shuffle -- the machine physically cannot do anything else.
        """
        if program.n != self.n:
            raise MachineError(
                f"program is for {program.n} registers, machine has {self.n}"
            )
        if not program.is_shuffle_based():
            raise MachineError(
                "this strict ascend machine only runs shuffle-based programs"
            )
        for step in program.steps:
            self.step_ops(step.ops)
        return self.registers

    def run_ascend(
        self,
        dimension_op: Callable[[int, Any, Any], tuple[Any, Any]],
        rounds: int = 1,
    ) -> list[Any]:
        """Run a normal ascend pass: one step per dimension, ``rounds`` times.

        ``dimension_op(bit, lo, hi)`` receives the original-index bit the
        pair differs in and the values of the bit-clear (``lo``) and
        bit-set (``hi``) registers, returning their new values.  After each
        full pass of ``d`` steps the registers are back in their home
        positions, so passes compose.
        """
        for _ in range(rounds):
            for _ in range(self._d):
                bit = self.current_pair_bit()

                def operation(k: int, a: Any, b: Any) -> tuple[Any, Any]:
                    # Position 2k holds the original index with bit clear:
                    # rotating right by (t+1) maps 2k -> even target bit.
                    return dimension_op(bit, a, b)

                self.step(operation)
        return self.registers
