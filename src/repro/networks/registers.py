"""The paper's register model of a comparator network.

Section 1 defines a comparator network on ``n`` registers as a sequence of
pairs :math:`(\\Pi_i, \\vec{x}_i)`, where :math:`\\Pi_i` permutes the
register contents and :math:`\\vec{x}_i \\in \\{+, -, 0, 1\\}^{\\lfloor n/2
\\rfloor}` gives the operation applied to registers ``(2k, 2k+1)`` for each
``k``.  The two models (circuit and register) are equivalent; this module
provides the explicit representation plus the conversions realising that
equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import WireError
from .gates import Gate, Op
from .level import Level
from .network import ComparatorNetwork, Stage
from .permutations import Permutation, identity_permutation, shuffle_permutation

__all__ = ["RegisterStep", "RegisterProgram"]


@dataclass(frozen=True)
class RegisterStep:
    """One register-model step: a permutation and an op vector.

    ``ops[k]`` is applied to the register pair ``(2k, 2k+1)`` after the
    contents have been permuted by ``perm``.
    """

    perm: Permutation
    ops: tuple[Op, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(o, Op) for o in self.ops):
            object.__setattr__(
                self,
                "ops",
                tuple(Op.from_str(o) for o in self.ops),
            )
        elif not isinstance(self.ops, tuple):
            object.__setattr__(self, "ops", tuple(self.ops))
        if len(self.ops) != self.perm.n // 2:
            raise WireError(
                f"op vector has length {len(self.ops)}, expected {self.perm.n // 2}"
            )

    @property
    def n(self) -> int:
        """Number of registers."""
        return self.perm.n

    def to_stage(self) -> Stage:
        """The equivalent :class:`~repro.networks.network.Stage`.

        ``0`` (do-nothing) entries are dropped from the gate level; they
        are behaviourally identity and keeping them would only slow
        evaluation down.
        """
        gates = [
            Gate(2 * k, 2 * k + 1, op)
            for k, op in enumerate(self.ops)
            if op is not Op.NOP
        ]
        perm = None if self.perm.is_identity else self.perm
        return Stage(level=Level(gates), perm=perm)

    def ops_string(self) -> str:
        """Compact ``"+-01..."`` rendering of the op vector."""
        return "".join(op.value for op in self.ops)


class RegisterProgram:
    """A comparator network in explicit register-model form.

    Parameters
    ----------
    n:
        Number of registers (must be even for nontrivial op vectors).
    steps:
        The steps in execution order.
    """

    __slots__ = ("_n", "_steps")

    def __init__(self, n: int, steps: Iterable[RegisterStep] = ()):
        steps = tuple(steps)
        for s in steps:
            if s.n != n:
                raise WireError(
                    f"step acts on {s.n} registers, program declared {n}"
                )
        self._n = n
        self._steps = steps

    @property
    def n(self) -> int:
        """Number of registers."""
        return self._n

    @property
    def steps(self) -> tuple[RegisterStep, ...]:
        """The steps in execution order."""
        return self._steps

    @property
    def depth(self) -> int:
        """Number of steps (the paper's ``d``)."""
        return len(self._steps)

    def __len__(self) -> int:
        return len(self._steps)

    def is_shuffle_based(self) -> bool:
        """True iff every step's permutation is the shuffle (Section 1).

        This is the defining property of the network class the paper's
        lower bound addresses.
        """
        if self._n == 1:
            return True
        shuffle = shuffle_permutation(self._n)
        return all(s.perm == shuffle for s in self._steps)

    def to_network(self) -> ComparatorNetwork:
        """Convert to the circuit-evaluable :class:`ComparatorNetwork`."""
        return ComparatorNetwork(self._n, [s.to_stage() for s in self._steps])

    # -- constructors --------------------------------------------------------
    @classmethod
    def shuffle_based(
        cls, n: int, op_vectors: Sequence[Sequence[Op | str]]
    ) -> "RegisterProgram":
        """A shuffle-based program from a sequence of op vectors.

        Every step uses the shuffle permutation; ``op_vectors[i][k]`` is
        the operation on registers ``(2k, 2k+1)`` at step ``i``.
        """
        shuffle = shuffle_permutation(n)
        steps = [
            RegisterStep(
                perm=shuffle,
                ops=tuple(Op.from_str(o) for o in ops),
            )
            for ops in op_vectors
        ]
        return cls(n, steps)

    @classmethod
    def from_network(cls, network: ComparatorNetwork) -> "RegisterProgram":
        """Convert a circuit network into register-model form.

        Realises the classical equivalence of the two models: each stage
        becomes one step whose permutation routes every gate's endpoints
        onto an adjacent register pair ``(2k, 2k+1)``.  The inverse of
        that routing is prepended to the *next* step so the overall
        input/output function is preserved; a final restoring permutation
        is appended as an op-free step if needed.

        The resulting program has ``depth == network.depth`` (plus at most
        one trailing op-free step), matching the paper's remark that the
        conversion preserves size and depth.
        """
        n = network.n
        if n % 2 != 0:
            raise WireError("register model requires an even register count")
        import numpy as np

        steps: list[RegisterStep] = []
        # ``carry`` maps circuit position -> current register, accounting for
        # the data movement introduced by previous steps' pair routing.
        carry = identity_permutation(n)
        for stage in network.stages:
            if stage.perm is not None:
                carry = stage.perm.inverse().then(carry)
            # Route each gate's endpoints onto a fresh adjacent pair.
            mapping = np.full(n, -1, dtype=np.int64)
            ops: list[Op] = []
            for g in stage.level:
                k = len(ops)
                mapping[carry(g.a)] = 2 * k
                mapping[carry(g.b)] = 2 * k + 1
                ops.append(g.op)
            next_free = 2 * len(ops)
            for reg in range(n):
                if mapping[reg] < 0:
                    mapping[reg] = next_free
                    next_free += 1
            while len(ops) < n // 2:
                ops.append(Op.NOP)
            route = Permutation(mapping)
            steps.append(RegisterStep(perm=route, ops=tuple(ops)))
            # After routing, circuit position p sits at register
            # route(carry(p)); fold that into carry for the next stage.
            carry = carry.then(route)
        if not carry.is_identity:
            # Restore the original wire order with one op-free step.
            steps.append(
                RegisterStep(
                    perm=carry.inverse(), ops=tuple([Op.NOP] * (n // 2))
                )
            )
        return cls(n, steps)
