import json
import random

import pytest

from rotsynth.ir import (
    Circuit,
    CircuitError,
    Gate,
    ParseError,
    apply_qubit_permutation,
    parse_circuit,
    parse_rotation_program,
    with_x_detection,
)
from rotsynth.semantics import equal_up_to_global_phase, unitary_of

from oracles import random_fragment_circuit


def cnot(c, t):
    return Gate("CNOT", (c, t))


class TestGateValidation:
    def test_unknown_kind(self):
        with pytest.raises(CircuitError):
            Gate("Hadamard", (0,))

    def test_arity(self):
        with pytest.raises(CircuitError):
            Gate("CNOT", (0,))

    def test_duplicate_operands(self):
        with pytest.raises(CircuitError):
            Gate("CNOT", (1, 1))

    def test_measurement_needs_record(self):
        with pytest.raises(CircuitError):
            Gate("MeasZ", (0,))

    def test_conds_before_measurement(self):
        with pytest.raises(CircuitError):
            Circuit(2, (Gate("CondS", (0,), "m"), Gate("MeasZ", (1,), "m")))

    def test_duplicate_records(self):
        with pytest.raises(CircuitError):
            Circuit(2, (Gate("MeasZ", (0,), "m"), Gate("MeasZ", (1,), "m")))


class TestProgramParsing:
    def test_single_rotation(self):
        p = parse_rotation_program('{"n":4,"rotations":[{"support":"1011","k":1}]}')
        assert p.n == 4
        assert p.rotations[0].support.support() == (0, 2, 3)
        assert p.rotations[0].k == 1

    def test_roundtrip(self):
        text = '{"n": 3, "rotations": [{"support": "110", "k": 7}, {"support": "001", "k": 2}]}'
        p = parse_rotation_program(text)
        assert parse_rotation_program(p.to_json()) == p

    def test_empty_program_valid(self):
        p = parse_rotation_program('{"n":2,"rotations":[]}')
        assert p.rotations == ()

    @pytest.mark.parametrize(
        "text",
        [
            '{"rotations": []}',
            '{"n": 2, "rotations": [{"support": "101", "k": 1}]}',
            '{"n": 3, "rotations": [{"support": "101", "k": 8}]}',
            '{"n": 3, "rotations": [{"support": "1x1", "k": 1}]}',
            '{"n": 3, "rotations": [{"k": 1}]}',
            '{"n": 1, "rotations": [{"support": "1", "k": true}]}',
            "not json",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_rotation_program(text)


class TestCircuitSerialization:
    def test_roundtrip(self):
        c = Circuit(
            3,
            (
                Gate("PrepPlus", (0,)),
                cnot(0, 1),
                Gate("MeasX", (2,), "d0"),
            ),
        )
        assert parse_circuit(c.to_json()) == c

    @pytest.mark.parametrize("record", ['[1]', '{"a": 1}', "7"], ids=["list", "object", "number"])
    def test_non_string_record(self, record):
        text = f'{{"n": 1, "gates": [{{"kind": "MeasZ", "qubits": [0], "record": {record}}}]}}'
        with pytest.raises(ParseError, match="record must be a string"):
            parse_circuit(text)

    def test_record_survives(self):
        c = Circuit(1, (Gate("MeasZ", (0,), "m7"),))
        payload = json.loads(c.to_json())
        assert payload["gates"][0]["record"] == "m7"

    def test_render_has_layer_lines(self):
        c = Circuit(2, (Gate("PrepT", (0,)), cnot(0, 1)))
        text = c.render_text()
        assert "|T>" in text and "L0" in text


class TestDepthMetrics:
    def test_disjoint_cnots_single_layer(self):
        c = Circuit(6, (cnot(0, 1), cnot(2, 3), cnot(4, 5)))
        assert c.cnot_depth() == 1

    def test_chain(self):
        c = Circuit(4, (cnot(0, 1), cnot(1, 2), cnot(2, 3)))
        assert c.cnot_depth() == 3

    def test_clifford_only_t_depth_zero(self):
        c = Circuit(2, (Gate("S", (0,)), cnot(0, 1), Gate("CZ", (0, 1))))
        assert c.t_depth() == 0

    def test_prep_t_counts_as_first_layer(self):
        c = Circuit(2, (Gate("PrepT", (0,)), Gate("PrepT", (1,))))
        assert c.t_depth() == 1

    def test_t_layers_separated_by_cnot(self):
        c = Circuit(2, (Gate("T", (0,)), cnot(0, 1), Gate("T", (1,))))
        assert c.t_depth() == 2

    def test_parallel_t_one_layer(self):
        c = Circuit(3, (Gate("T", (0,)), Gate("T", (1,)), Gate("Tdag", (2,))))
        assert c.t_depth() == 1

    def test_single_qubit_gate_is_barrier_not_layer(self):
        # the T on qubit 0 orders the two CNOTs but consumes no CNOT layer
        c = Circuit(3, (cnot(0, 1), Gate("T", (0,)), cnot(0, 2)))
        assert c.cnot_depth() == 2

    def test_depth_invariant_under_relabeling(self):
        rng = random.Random(5)
        for _ in range(30):
            c = random_fragment_circuit(rng, 5, 12)
            perm = list(range(5))
            rng.shuffle(perm)
            relabeled = apply_qubit_permutation(c, perm)
            assert relabeled.cnot_depth() == c.cnot_depth()
            assert relabeled.t_depth() == c.t_depth()

    def test_concat_subadditive(self):
        rng = random.Random(6)
        for _ in range(30):
            a = random_fragment_circuit(rng, 4, 8)
            b = random_fragment_circuit(rng, 4, 8)
            assert a.concat(b).cnot_depth() <= a.cnot_depth() + b.cnot_depth()


class TestPermutation:
    def test_identity(self):
        c = Circuit(3, (cnot(0, 1), Gate("T", (2,))))
        assert apply_qubit_permutation(c, [0, 1, 2]) == c

    def test_swap_involution(self):
        c = Circuit(3, (cnot(0, 1), Gate("T", (2,))))
        perm = [1, 0, 2]
        assert apply_qubit_permutation(apply_qubit_permutation(c, perm), perm) == c

    def test_non_bijective_rejected(self):
        c = Circuit(2, (cnot(0, 1),))
        with pytest.raises(CircuitError):
            apply_qubit_permutation(c, [0, 0])

    def test_conjugation_identity(self):
        # relabeling equals conjugation by the permutation's SWAP circuit
        from rotsynth.compiler import _transpositions

        rng = random.Random(7)
        for _ in range(15):
            n = 4
            c = random_fragment_circuit(rng, n, 8)
            images = list(range(n))
            rng.shuffle(images)
            relabeled = apply_qubit_permutation(c, images)
            swaps = Circuit(n, tuple(Gate("SWAP", p) for p in _transpositions(images)))
            u_perm = unitary_of(swaps)
            lhs = unitary_of(relabeled)
            rhs = u_perm @ unitary_of(c) @ u_perm.conj().T
            assert equal_up_to_global_phase(lhs, rhs, 1e-10)


def test_with_x_detection_appends_records():
    c = Circuit(3, (cnot(0, 1),))
    det = with_x_detection(c, [2, 1])
    assert det.records() == ("det0", "det1")
    assert det.gates[-1].qubits == (1,)
