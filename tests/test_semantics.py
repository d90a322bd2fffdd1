import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotsynth import semantics
from rotsynth.gf2 import BitVec, GF2Matrix
from rotsynth.ir import Circuit, Gate, PhaseRotation, RotationProgram
from rotsynth.compiler import expand_reference
from rotsynth.semantics import (
    NotDiagonalizableError,
    SimulationError,
    TrajectoryKernel,
    enumerate_branches,
    equal_up_to_global_phase,
    phase_polynomial_of,
    poly_equal,
    simulate,
    state_fidelity,
    unitary_of,
)

from oracles import (
    basis_bits,
    ccz_state,
    plus_prep,
    random_fragment_circuit,
    reference_branches,
    reference_simulate,
    reference_unitary,
    rotation_product_unitary,
)


class TestPhasePolynomial:
    def test_single_cnot(self):
        p = phase_polynomial_of(Circuit(2, (Gate("CNOT", (0, 1)),)))
        assert p.linear == GF2Matrix.from_rows([[1, 0], [1, 1]])
        assert not p.affine
        assert p.coeffs == {}
        assert p.global_phase == 0

    def test_single_t(self):
        p = phase_polynomial_of(Circuit(2, (Gate("T", (0,)),)))
        assert p.coeffs == {BitVec.from_string("10"): 1}
        assert p.global_phase == 0

    def test_t_t_equals_s(self):
        a = phase_polynomial_of(Circuit(1, (Gate("T", (0,)), Gate("T", (0,)))))
        b = phase_polynomial_of(Circuit(1, (Gate("S", (0,)),)))
        assert poly_equal(a, b, up_to_global=False)

    def test_rejects_measurement(self):
        with pytest.raises(NotDiagonalizableError):
            phase_polynomial_of(Circuit(1, (Gate("MeasZ", (0,), "m"),)))

    def test_oracle_agreement_with_dense(self):
        # equal and unequal pairs must classify identically under both oracles
        rng = random.Random(12)
        identity_tail = lambda q: (  # noqa: E731
            Gate("T", (q,)), Gate("S", (q,)), Gate("T", (q,)), Gate("Z", (q,)),
        )
        for trial in range(500):
            n = rng.randrange(2, 6)
            c1 = random_fragment_circuit(rng, n, 10)
            if trial % 2 == 0:
                c2 = Circuit(n, c1.gates + identity_tail(rng.randrange(n)))
            else:
                c2 = Circuit(n, c1.gates + (Gate("T", (rng.randrange(n),)),))
            dense_eq = equal_up_to_global_phase(unitary_of(c1), unitary_of(c2), 1e-9)
            poly_eq = poly_equal(
                phase_polynomial_of(c1), phase_polynomial_of(c2), up_to_global=True
            )
            assert dense_eq == poly_eq

    def test_reference_expansion_matches_program_unitary(self):
        rng = random.Random(13)
        for _ in range(25):
            n = rng.randrange(1, 5)
            rotations = []
            for _ in range(rng.randrange(1, 6)):
                bits = 0
                while not bits:
                    bits = rng.getrandbits(n)
                rotations.append(PhaseRotation(BitVec(n, bits), rng.randrange(8)))
            program = RotationProgram(n, tuple(rotations))
            got = unitary_of(expand_reference(program))
            want = rotation_product_unitary(program)
            assert np.max(np.abs(got - want)) < 1e-10


class TestSimulate:
    def test_ccz_state_amplitudes(self):
        c = Circuit(3, plus_prep(3) + (Gate("CCZ", (0, 1, 2)),))
        res = simulate(c)
        assert np.allclose(res.state, ccz_state(), atol=1e-12)

    def test_cciz_equals_cs_times_ccz(self):
        # build the doubly controlled iZ from its 7 parity rotations and
        # enumerate all 8 basis phases
        rotations = (
            PhaseRotation(BitVec.from_string("100"), 2),
            PhaseRotation(BitVec.from_string("010"), 2),
            PhaseRotation(BitVec.from_string("001"), 1),
            PhaseRotation(BitVec.from_string("110"), 6),
            PhaseRotation(BitVec.from_string("101"), 7),
            PhaseRotation(BitVec.from_string("011"), 7),
            PhaseRotation(BitVec.from_string("111"), 1),
        )
        u = unitary_of(expand_reference(RotationProgram(3, rotations)))
        for e in range(8):
            bits = basis_bits(e, 3)
            a, b, c_ = bits[0], bits[1], bits[2]
            want = (1j ** (a * b)) * ((-1) ** (a * b * c_))
            assert abs(u[e, e] - want) < 1e-12

    def test_measurement_probabilities_sum_to_one(self):
        c = Circuit(
            2,
            plus_prep(2) + (Gate("CNOT", (0, 1)), Gate("MeasZ", (0,), "m")),
        )
        acc0 = simulate(c, postselect={"m": 0}).acceptance
        acc1 = simulate(c, postselect={"m": 1}).acceptance
        assert abs(acc0 + acc1 - 1.0) < 1e-9

    def test_zero_probability_postselection(self):
        c = Circuit(1, (Gate("PrepZero", (0,)), Gate("MeasZ", (0,), "m")))
        res = simulate(c, postselect={"m": 1})
        assert res.acceptance == 0.0
        assert not res.valid

    def test_conditional_correction_gives_deterministic_t(self):
        # teleported T: both measurement branches must produce T|+> exactly
        gates = (
            Gate("PrepPlus", (0,)),
            Gate("PrepT", (1,)),
            Gate("CNOT", (0, 1)),
            Gate("MeasZ", (1,), "m"),
            Gate("CondS", (0,), "m"),
        )
        c = Circuit(2, gates)
        t_plus = np.array([1, np.exp(1j * np.pi / 4)], dtype=complex) / math.sqrt(2)
        for outcome in (0, 1):
            res = simulate(c, postselect={"m": outcome})
            assert abs(res.acceptance - 0.5) < 1e-12
            assert state_fidelity(res.state, t_plus, [0], 2) > 1 - 1e-12

    def test_branch_enumeration_total_probability(self):
        gates = plus_prep(2) + (
            Gate("CNOT", (0, 1)),
            Gate("MeasZ", (1,), "a"),
            Gate("MeasX", (0,), "b"),
        )
        branches = enumerate_branches(Circuit(2, gates))
        assert abs(sum(b.acceptance for b in branches) - 1.0) < 1e-9

    def test_determinism(self):
        c = Circuit(2, plus_prep(2) + (Gate("MeasZ", (0,), "m"), Gate("MeasX", (1,), "x")))
        a = simulate(c, seed=5)
        b = simulate(c, seed=5)
        assert a.outcomes == b.outcomes

    def test_qubit_cap(self):
        with pytest.raises(SimulationError):
            simulate(Circuit(13))


class TestStateFidelity:
    def test_self(self):
        s = ccz_state()
        assert abs(state_fidelity(s, s, [0, 1, 2], 3) - 1.0) < 1e-12

    def test_orthogonal(self):
        a = np.zeros(4, dtype=complex)
        a[0] = 1.0
        b = np.zeros(4, dtype=complex)
        b[3] = 1.0
        assert state_fidelity(a, b, [0, 1], 2) < 1e-12

    def test_z_error_on_ccz_output(self):
        # oracle: overlap computed by direct enumeration over the 8 basis
        # states; a single Z anticommutes with the state's X-type stabilizers
        # so the overlap vanishes
        s = ccz_state().copy()
        for e in range(8):
            if basis_bits(e, 3)[0]:
                s[e] *= -1
        expected = abs(np.vdot(ccz_state(), s)) ** 2
        assert abs(expected) < 1e-12
        assert abs(state_fidelity(s, ccz_state(), [0, 1, 2], 3) - expected) < 1e-12

    def test_traced_ancilla(self):
        # |CCZ> on 0-2 with a |+> ancilla: fidelity on outputs unaffected
        c = Circuit(4, plus_prep(4) + (Gate("CCZ", (0, 1, 2)),))
        res = simulate(c)
        assert abs(state_fidelity(res.state, ccz_state(), [0, 1, 2], 4) - 1.0) < 1e-10

    def test_x_error_fidelity_value(self):
        # enumeration oracle: <CCZ|X0|CCZ> = 1/2, fidelity 1/4
        s = ccz_state().reshape(2, 2, 2)[::-1].reshape(8)
        assert abs(state_fidelity(s, ccz_state(), [0, 1, 2], 3) - 0.25) < 1e-12


# ---------------------------------------------------------------------------
# the dense kernel against the per-branch reference executor
# ---------------------------------------------------------------------------

_PREP_CHOICES = (None, "PrepPlus", "PrepZero", "PrepT", "PrepTdag")


@st.composite
def dense_circuits(draw, max_qubits: int = 6, unitary: bool = False) -> Circuit:
    """Random circuits on 0..max_qubits qubits. Gates touch only the drawn
    active qubits, so the others stay untouched. Unless `unitary`, each
    qubit may get any of the four preparations (or none) anywhere before
    its first gate, and measurements (a qubit may be measured twice or used
    after its measurement) and CondS on earlier records join the gates."""
    n = draw(st.integers(0, max_qubits))
    active = draw(st.lists(st.integers(0, n - 1), unique=True)) if n else []
    kinds = []
    if active:
        kinds += ["X", "Z", "S", "Sdag", "T", "Tdag"]
        if not unitary:
            kinds += ["MeasZ", "MeasX", "MeasZ", "MeasX", "CondS"]
    if len(active) >= 2:
        kinds += ["CNOT", "CNOT", "SWAP", "CZ", "CS"]
    if len(active) >= 3:
        kinds += ["CCZ"]
    gates: list[Gate] = []
    records: list[str] = []
    for _ in range(draw(st.integers(0, 14)) if kinds else 0):
        kind = draw(st.sampled_from(kinds))
        if kind == "CondS" and not records:
            kind = "MeasZ"
        arity = {"CNOT": 2, "SWAP": 2, "CZ": 2, "CS": 2, "CCZ": 3}.get(kind, 1)
        qubits = tuple(draw(st.permutations(active))[:arity])
        if kind in ("MeasZ", "MeasX"):
            records.append(f"m{len(records)}")
            gates.append(Gate(kind, qubits, records[-1]))
        elif kind == "CondS":
            gates.append(Gate(kind, qubits, draw(st.sampled_from(records))))
        else:
            gates.append(Gate(kind, qubits))
    if not unitary:
        inserts = []
        for q in range(n):
            prep = draw(st.sampled_from(_PREP_CHOICES))
            if prep is not None:
                first = next((i for i, g in enumerate(gates) if q in g.qubits), len(gates))
                inserts.append((draw(st.integers(0, first)), Gate(prep, (q,))))
        for pos, g in sorted(inserts, key=lambda item: item[0], reverse=True):
            gates.insert(pos, g)
    return Circuit(n, tuple(gates))


def _postselection(data, c: Circuit) -> dict[str, int]:
    chosen = data.draw(st.lists(st.sampled_from(c.records()), unique=True)) if c.records() else []
    return {r: data.draw(st.integers(0, 1)) for r in chosen}


def _assert_same_result(got, want):
    assert got.valid == want.valid
    assert list(got.outcomes.items()) == list(want.outcomes.items())
    assert abs(got.acceptance - want.acceptance) <= 1e-12
    if want.valid:
        assert got.state.shape == want.state.shape
        assert np.max(np.abs(got.state - want.state), initial=0.0) <= 1e-12


class TestDenseAgainstReference:
    """`simulate`, `enumerate_branches` and `unitary_of` run on the
    trajectory kernel; the reference runs one tensor per branch."""

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_simulate(self, data):
        c = data.draw(dense_circuits())
        post = _postselection(data, c)
        seed = data.draw(st.integers(0, 2**32 - 1))
        _assert_same_result(simulate(c, post, seed=seed), reference_simulate(c, post, seed))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_enumerate_branches(self, data):
        c = data.draw(dense_circuits())
        post = _postselection(data, c)
        got, want = enumerate_branches(c, post), reference_branches(c, post)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_result(g, w)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(c=dense_circuits(unitary=True))
    def test_unitary_of(self, c):
        assert np.max(np.abs(unitary_of(c) - reference_unitary(c))) <= 1e-12

    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_unitary_of_wide(self, n):
        c = random_fragment_circuit(random.Random(n), n, 60)
        assert np.max(np.abs(unitary_of(c) - reference_unitary(c))) <= 1e-12

    def test_teleported_t_branch_order(self):
        gates = plus_prep(1) + (
            Gate("PrepT", (1,)),
            Gate("CNOT", (0, 1)),
            Gate("MeasZ", (1,), "a"),
            Gate("CondS", (0,), "a"),
            Gate("MeasX", (0,), "b"),
        )
        branches = enumerate_branches(Circuit(2, gates))
        assert [b.outcomes for b in branches] == [
            {"a": a, "b": b} for a in (0, 1) for b in (0, 1)
        ]

    def test_dead_branches_pruned_at_once(self, monkeypatch):
        # twenty measurements of |0>: one branch, and no measurement ever
        # holds more than the row and its two children would
        seen = []
        measure = semantics._measure_rows

        def counted(states, *args):
            seen.append(len(states))
            return measure(states, *args)

        monkeypatch.setattr(semantics, "_measure_rows", counted)
        gates = (Gate("PrepZero", (0,)),) + tuple(
            Gate("MeasZ", (0,), f"m{i}") for i in range(20)
        )
        branches = enumerate_branches(Circuit(1, gates))
        assert len(branches) == 1
        assert branches[0].outcomes == {f"m{i}": 0 for i in range(20)}
        assert branches[0].acceptance == 1.0
        assert len(seen) == 20 and max(seen) <= 2

    @pytest.mark.parametrize(
        "gates",
        [
            (Gate("X", (0,)), Gate("PrepPlus", (0,))),
            (Gate("PrepPlus", (0,)), Gate("PrepZero", (0,))),
            (Gate("MeasZ", (0,), "m"), Gate("PrepT", (0,))),
        ],
        ids=["after-x", "after-prep", "after-measurement"],
    )
    def test_prep_after_other_gates(self, gates):
        c = Circuit(1, gates)
        for run in (simulate, enumerate_branches):
            with pytest.raises(SimulationError, match="after other gates"):
                run(c)

    def test_caps(self):
        for run in (simulate, enumerate_branches):
            with pytest.raises(SimulationError, match="13"):
                run(Circuit(13))
        with pytest.raises(SimulationError, match="10 qubits"):
            unitary_of(Circuit(11))
        with pytest.raises(SimulationError, match="no unitary"):
            unitary_of(Circuit(1, (Gate("MeasZ", (0,), "m"),)))

    def test_unknown_postselected_record(self):
        c = Circuit(1, (Gate("MeasZ", (0,), "m"),))
        for run in (simulate, enumerate_branches):
            with pytest.raises(SimulationError, match="not in circuit"):
                run(c, {"x": 0})


# ---------------------------------------------------------------------------
# Pauli frames: a fault placed by the kernel against the same fault, and its
# frame at its stop, as gates in the per-branch reference
# ---------------------------------------------------------------------------

_FRAME_KINDS = {
    "X", "Z", "S", "Sdag", "T", "Tdag", "CNOT", "SWAP", "CZ", "CS", "CCZ",
    "MeasZ", "MeasX", "CondS",
}


def _frame_circuit(seed: int) -> Circuit:
    """A random fragment circuit on 4 prepared qubits, extended with CZ, S,
    T, three measurements (a measured qubit is used again) and CondS on
    their records."""
    rng = random.Random(seed)
    n = 4
    gates = list(random_fragment_circuit(rng, n, 16).gates)
    extra = ("CZ", "S", "T", "MeasZ", "MeasX", "MeasZ", "CondS", "CondS")
    for i, kind in enumerate(extra):
        at = rng.randrange(len(gates) + 1)
        qubits = tuple(rng.sample(range(n), 2 if kind == "CZ" else 1))
        if kind.startswith("Meas"):
            gates.insert(at, Gate(kind, qubits, f"m{i}"))
        elif kind == "CondS":
            # after the first measurement, conditioned on one before it
            first = next(i for i, g in enumerate(gates) if g.kind in ("MeasZ", "MeasX"))
            at = rng.randrange(first + 1, len(gates) + 1)
            record = rng.choice([g.record for g in gates[:at] if g.record])
            gates.insert(at, Gate(kind, qubits, record))
        else:
            gates.insert(at, Gate(kind, qubits))
    preps = tuple(Gate(rng.choice(["PrepPlus", "PrepZero", "PrepT"]), (q,)) for q in range(n))
    return Circuit(n, preps + tuple(gates))


def _with_paulis(c: Circuit, pos: int, paulis) -> Circuit:
    """c with (pauli, qubit) gates right after gate pos (-1: before the
    first); Y goes in as Z then X."""
    extra = tuple(
        Gate(kind, (q,)) for pauli, q in paulis for kind in {"X": "X", "Y": "ZX", "Z": "Z"}[pauli]
    )
    return Circuit(c.n, c.gates[: pos + 1] + extra + c.gates[pos + 1 :])


def _assert_same_branches(got, want):
    """Equal branch lists, each state up to its own global phase."""
    assert [b.outcomes for b in got] == [b.outcomes for b in want]
    for g, w in zip(got, want):
        assert abs(g.acceptance - w.acceptance) <= 1e-12
        assert equal_up_to_global_phase(g.state, w.state, 1e-12)


class TestPauliFrames:
    """A Pauli inserted before a gate goes into the kernel as its frame at
    its stop (`TrajectoryKernel.frames`). Both are checked against the
    per-branch reference with the Paulis as gates: the frame at its stop
    has the fault's effect on every branch, and the kernel's branches equal
    the reference's, each up to a global phase."""

    seeds = range(6)

    def test_every_gate_kind_drawn(self):
        kinds = {g.kind for seed in self.seeds for g in _frame_circuit(seed).gates}
        assert kinds - semantics.PREP_KINDS == _FRAME_KINDS

    @pytest.mark.parametrize("seed", seeds)
    def test_fault_before_each_gate(self, seed):
        c = _frame_circuit(seed)
        kernel = TrajectoryKernel(c, range(c.n))
        nan = np.full((1, len(c.records())), np.nan)
        to_qubits = kernel.permutation(range(c.n))
        for g_pos, g in enumerate(c.gates):
            if g.kind in semantics.PREP_KINDS:
                continue
            for q in g.qubits:
                for pauli in range(3):
                    fault = _with_paulis(c, g_pos - 1, [("XYZ"[pauli], q)])
                    want = reference_branches(fault)
                    # the frame at its stop, as gates: stop 2p is before gate p
                    insertion = tuple(np.array([v]) for v in (0, g_pos - 1, pauli, q))
                    _, stop, x, z = kernel.frames(*insertion)
                    assert len(stop) <= 1 and (stop % 2 == 0).all()
                    frame = reference_branches(c)
                    if len(stop):
                        layout = kernel.layout(stop[0])
                        bits = [1 << (len(layout) - 1 - a) for a in range(len(layout))]
                        paulis = [
                            ("IZXY"[bool(x[0] & b) * 2 + bool(z[0] & b)], layout[a])
                            for a, b in enumerate(bits)
                        ]
                        paulis = [(p, qubit) for p, qubit in paulis if p != "I"]
                        frame = reference_branches(_with_paulis(c, stop[0] // 2 - 1, paulis))
                    _assert_same_branches(frame, want)
                    # the kernel's branches, fault placed by the kernel
                    alive, weight, states, outcomes = kernel.run(
                        nan, None, kernel.frames(*insertion)
                    )
                    got = [
                        semantics.SimResult(
                            states[i, to_qubits], float(weight[i]),
                            {r: int(o[i]) for r, o in outcomes.items()}, True,
                        )
                        for i in range(len(alive))
                    ]
                    _assert_same_branches(got, want)
