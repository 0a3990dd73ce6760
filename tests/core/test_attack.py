"""Tests for class recognition + attack of arbitrary circuits."""

import numpy as np
import pytest

from repro.core.attack import attack_circuit, recognize_iterated_rdn
from repro.errors import TopologyError
from repro.networks.builders import (
    bitonic_iterated_rdn,
    random_iterated_rdn,
    random_reverse_delta,
)
from repro.experiments.workloads import seeded_family
from repro.networks.delta import IteratedReverseDeltaNetwork
from repro.sorters.oddeven_merge import oddeven_merge_sorting_network


class TestRecognition:
    def test_flattened_iterated_rdn_recognised(self, rng):
        n = 16
        original = random_iterated_rdn(n, 2, rng, random_inter_perms=False)
        flat = original.to_network()
        recognised = recognize_iterated_rdn(flat)
        assert recognised.k == 2
        for _ in range(10):
            x = rng.permutation(n)
            assert (recognised.to_network().evaluate(x) == flat.evaluate(x)).all()

    def test_seeded_circuit_recognition_keeps_every_gate(self):
        """Recognition regroups and re-orients gates; it never moves one.

        Each level of the recognised network holds the circuit's
        comparators at that level (up to endpoint orientation); the
        padding block after the last level is empty.
        """
        circuit = seeded_family("random_iterated", 256, 2, 7).to_network()
        circuit = circuit.flattened()

        def comparators(net):
            levels = [
                frozenset(
                    min((g.a, g.b, g.op.value), (r.a, r.b, r.op.value))
                    for g in s.level.gates
                    for r in (g.reversed(),)
                )
                for s in net.stages
            ]
            while levels and not levels[-1]:
                levels.pop()
            return levels

        recognised = recognize_iterated_rdn(circuit).to_network()
        assert comparators(recognised) == comparators(circuit)
        assert len(comparators(circuit)) == 16

    def test_bitonic_iterated_form_recognised(self, rng):
        n = 16
        flat = bitonic_iterated_rdn(n).to_network()
        recognised = recognize_iterated_rdn(flat)
        assert recognised.k == 4
        x = rng.permutation(n)
        assert (recognised.to_network().evaluate(x) == np.arange(n)).all()

    def test_partial_last_block_padded(self, rng):
        n = 8
        one = random_reverse_delta(n, rng).to_network().truncated(2)
        recognised = recognize_iterated_rdn(one)
        assert recognised.k == 1
        assert recognised.block_levels == 3

    def test_out_of_class_rejected(self):
        """Odd-even merge's level structure is not an iterated RDN."""
        with pytest.raises(TopologyError):
            recognize_iterated_rdn(oddeven_merge_sorting_network(8))

    def test_non_power_of_two_rejected(self):
        from repro.sorters.insertion import insertion_network

        with pytest.raises(TopologyError):
            recognize_iterated_rdn(insertion_network(6))

    def test_register_model_networks_flattened(self, rng):
        """Shuffle-based programs (with stage permutations) are handled."""
        from repro.sorters.bitonic import bitonic_shuffle_program

        n = 16
        net = bitonic_shuffle_program(n).to_network()
        recognised = recognize_iterated_rdn(net)
        # the program's comparisons are the bitonic sorter's
        assert recognised.to_network().size == net.size


class TestRecognitionDiagnostics:
    def test_out_of_class_carries_diagnostics(self):
        from repro.errors import LintError

        with pytest.raises(TopologyError) as excinfo:
            recognize_iterated_rdn(oddeven_merge_sorting_network(8))
        exc = excinfo.value
        assert isinstance(exc, LintError)
        assert len(exc.diagnostics) == 1
        diag = exc.diagnostics[0]
        assert diag.rule == "class/out-of-class"
        assert diag.severity.value == "error"
        assert diag.location.stage == exc.level
        assert exc.level is not None

    def test_non_power_of_two_carries_diagnostics(self):
        from repro.sorters.insertion import insertion_network

        with pytest.raises(TopologyError) as excinfo:
            recognize_iterated_rdn(insertion_network(6))
        assert len(excinfo.value.diagnostics) == 1

    def test_legacy_except_clauses_still_work(self):
        """TopologyError remains catchable as ValueError (back compat)."""
        with pytest.raises(ValueError):
            recognize_iterated_rdn(oddeven_merge_sorting_network(8))


class TestAttack:
    def test_attack_truncated_bitonic_circuit(self, rng):
        n = 16
        flat = bitonic_iterated_rdn(n).truncated(2).to_network()
        outcome = attack_circuit(flat, rng=rng)
        assert outcome.proved_not_sorting

    def test_attack_full_bitonic_inconclusive(self, rng):
        flat = bitonic_iterated_rdn(16).to_network()
        outcome = attack_circuit(flat, rng=rng)
        assert not outcome.proved_not_sorting

    def test_attack_shuffle_program_circuit(self, rng):
        """Attack a strict shuffle-based register-model circuit directly."""
        from repro.networks.shuffle import shuffle_program_from_iterated_rdn

        n = 16
        iterated = bitonic_iterated_rdn(n).truncated(2)
        prog = shuffle_program_from_iterated_rdn(iterated)
        outcome = attack_circuit(prog.to_network(), rng=rng)
        assert outcome.proved_not_sorting

    def test_certificate_valid_on_recognised_form(self, rng):
        n = 16
        flat = bitonic_iterated_rdn(n).truncated(3).to_network()
        outcome = attack_circuit(flat, rng=rng)
        assert outcome.certificate is not None
        # also valid against the original circuit (same comparisons)
        assert outcome.certificate.verify(flat)
