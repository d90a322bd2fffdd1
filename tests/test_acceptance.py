"""Acceptance suite: one test per release criterion, with a PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import random
import time

import numpy as np

from rotsynth.gf2 import GF2Matrix, is_permutation, random_invertible
from rotsynth.ir import Circuit, Gate, PhaseRotation, RotationProgram, with_x_detection
from rotsynth.compiler import (
    cnot_synthesize,
    compile_program,
    compile_to_unitary,
    expand_reference,
    parallelize_block,
    replay_row_ops,
)
from rotsynth.semantics import (
    equal_up_to_global_phase,
    phase_polynomial_of,
    poly_equal,
    simulate,
    state_fidelity,
    unitary_of,
)
from rotsynth.faults import (
    NoiseModel,
    TGadgetChannel,
    channel_superoperator,
    enumerate_pair_faults,
    enumerate_single_faults,
    first_order_oracle,
    gadgetize,
    monte_carlo_infidelity,
    spacetime_cost,
)
from rotsynth import programs
from rotsynth.cli import main as cli_main

from oracles import ccz_state, plus_prep, rotation_product_unitary

U0 = GF2Matrix.from_rows([[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 1, 0], [1, 1, 1, 1]])
U1 = GF2Matrix.from_rows([[0, 0, 0, 1], [0, 0, 1, 1], [1, 0, 0, 0], [1, 1, 1, 1]])


def _compiled(name: str, **kwargs):
    rep = compile_program(programs.load(name), **kwargs)
    outputs, detectors = programs.DESIGNATIONS[name]
    return rep, with_x_detection(rep.circuit, detectors), list(outputs)


def test_criterion_1_parallelization_property():
    """200 random independent rotation sets compile to the exact product."""
    start = time.time()
    rng = random.Random(101)
    for trial in range(200):
        n = rng.choice([1, 2, 3, 4])
        u = random_invertible(n, rng.randrange(10**6))
        ks = [rng.randrange(8) for _ in range(n)]
        fragment = parallelize_block(u, ks)
        program = RotationProgram(
            n, tuple(PhaseRotation(u.col(j), ks[j]) for j in range(n))
        )
        got = unitary_of(fragment)
        want = rotation_product_unitary(program)
        assert equal_up_to_global_phase(got, want, 1e-10), f"trial {trial}"
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: 200/200 blocks exact up to global phase ({elapsed:.1f}s)")


def test_criterion_2_synthesis_reconstruction():
    """500 random invertible matrices: exact reconstruction, no stalls."""
    start = time.time()
    rng = random.Random(202)
    for trial in range(500):
        n = rng.randrange(1, 9)
        u = random_invertible(n, rng.randrange(10**6))
        res = cnot_synthesize(u)  # raises SynthesisStallError on a cap hit
        assert is_permutation(res.perm)
        assert replay_row_ops(res) == u.transpose(), f"trial {trial}"
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 2: 500/500 exact reconstructions ({elapsed:.1f}s)")


def test_criterion_3_ccz_golden():
    """Fixed-order compile reproduces the reference CCZ circuit shape."""
    rep, circuit, outputs = _compiled("ccz", budget=1)
    assert rep.t_depth == 2
    assert rep.circuit.n == 4  # no auxiliary qubits
    assert rep.partition.blocks == (U0, U1)

    res = simulate(rep.circuit)
    fidelity = state_fidelity(res.state, ccz_state(), outputs, 4)
    assert fidelity > 1 - 1e-10

    gates = rep.circuit.gates
    i = 0
    while i < len(gates) and gates[i].kind != "CNOT":
        i += 1
    first_block = []
    while i < len(gates) and gates[i].kind in ("CNOT", "X"):
        if gates[i].kind == "CNOT":
            first_block.append(gates[i])
        i += 1
    depth = Circuit(4, tuple(first_block)).cnot_depth()
    assert depth == 3
    print(
        f"\nPASS criterion 3: t_depth=2, blocks=(U0,U1), fidelity={fidelity:.12f}, "
        f"first CNOT block depth={depth}"
    )


def test_criterion_4_t15_golden():
    rep, circuit, outputs = _compiled("t15", budget=800, seed=0)
    assert rep.t_depth == 3
    assert rep.cnot_depth <= 11

    unitary_circ = compile_to_unitary(programs.load("t15"), budget=800, seed=0)
    assert poly_equal(
        phase_polynomial_of(unitary_circ),
        phase_polynomial_of(expand_reference(programs.load("t15"))),
        up_to_global=True,
    )
    print(
        f"\nPASS criterion 4: t_depth=3, cnot_depth={rep.cnot_depth} <= 11, "
        "reference-equivalent"
    )


def test_criterion_5_fault_detection():
    start = time.time()
    _, ccz, ccz_out = _compiled("ccz", budget=1)
    singles = enumerate_single_faults(ccz, ccz_out, sites="tprep")
    assert len(singles.entries) == 8
    assert singles.count("detected") == 8
    assert singles.count("harmful") == 0
    pairs = enumerate_pair_faults(ccz, ccz_out)
    assert pairs.total == 28 and pairs.harmful == 28

    _, t15, t15_out = _compiled("t15", budget=1)
    singles15 = enumerate_single_faults(t15, t15_out, sites="tprep")
    assert singles15.count("harmful") == 0
    pairs15 = enumerate_pair_faults(t15, t15_out)
    assert pairs15.total == 105 and pairs15.harmful == 0
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 5: CCZ 8/8 detected + 28 harmful pairs; "
        f"15-to-1 0 harmful among singles and 105 pairs ({elapsed:.1f}s)"
    )


def test_criterion_6_monte_carlo_vs_oracle():
    start = time.time()
    _, ccz, outputs = _compiled("ccz", budget=1)
    impl = gadgetize(ccz)

    # second-order regime: only preparation faults, harmful pairs dominate
    pair_count = enumerate_pair_faults(ccz, outputs).harmful
    nm_t = NoiseModel(0.0, 1e-2, 1)
    mc_t = monte_carlo_infidelity(impl, outputs, nm_t, shots=10**6, seed=61)
    target = pair_count * nm_t.p_t**2
    assert abs(mc_t.infidelity - target) < 3 * mc_t.stderr, (
        f"{mc_t.infidelity} vs {target} +- {3 * mc_t.stderr}"
    )

    # first-order regime: depolarizing only, checked against the exact
    # enumeration (binding) and the reported 11.25 coefficient (15%)
    nm_l = NoiseModel(1e-4, 0.0, 1)
    oracle = first_order_oracle(impl, outputs, nm_l)
    assert abs(oracle.coefficient - 11.25) / 11.25 < 0.15
    mc_l = monte_carlo_infidelity(impl, outputs, nm_l, shots=10**7, seed=62)
    assert abs(mc_l.infidelity - 11.25 * nm_l.p_l) / (11.25 * nm_l.p_l) < 0.15
    assert abs(mc_l.infidelity - oracle.coefficient * nm_l.p_l) < 3 * mc_l.stderr
    elapsed = time.time() - start
    assert elapsed < 45.0  # 4.6-6 s on a 2-core VM; a per-shot trajectory loop takes 54-61 s
    print(
        f"\nPASS criterion 6: pair regime {mc_t.infidelity:.3e} ~ {target:.3e}; "
        f"linear regime {mc_l.infidelity:.3e} ~ {oracle.coefficient:.4f}*p_L "
        f"(reported 11.25) ({elapsed:.0f}s)"
    )


class TestCriterion7RewriteIdentities:
    """Local rewrite rules hold on minimal witness circuits."""

    def test_a_offloaded_phase_rotation(self):
        # T applied out of place through an ancilla prepared in |0>
        direct = Circuit(2, (Gate("T", (0,)),))
        offloaded = Circuit(
            2, (Gate("CNOT", (0, 1)), Gate("T", (1,)), Gate("CNOT", (0, 1)))
        )
        ua, ub = unitary_of(direct), unitary_of(offloaded)
        anc0 = [0, 2]  # basis indices with the ancilla in |0>
        assert np.allclose(ua[np.ix_(anc0, anc0)], ub[np.ix_(anc0, anc0)])

    def test_b_x_through_ccz(self):
        lhs = Circuit(3, (Gate("X", (0,)), Gate("CCZ", (0, 1, 2))))
        rhs = Circuit(3, (Gate("CCZ", (0, 1, 2)), Gate("CZ", (1, 2)), Gate("X", (0,))))
        assert poly_equal(
            phase_polynomial_of(lhs), phase_polynomial_of(rhs), up_to_global=False
        )

    def test_c_commuting_cnots(self):
        lhs = Circuit(3, (Gate("CNOT", (0, 1)), Gate("CNOT", (1, 2))))
        rhs = Circuit(
            3, (Gate("CNOT", (1, 2)), Gate("CNOT", (0, 1)), Gate("CNOT", (0, 2)))
        )
        assert np.allclose(unitary_of(lhs), unitary_of(rhs))
        # reversed-direction pair turns into a SWAP
        lhs2 = Circuit(2, (Gate("CNOT", (0, 1)), Gate("CNOT", (1, 0))))
        rhs2 = Circuit(2, (Gate("SWAP", (0, 1)), Gate("CNOT", (0, 1))))
        assert np.allclose(unitary_of(lhs2), unitary_of(rhs2))

    def test_d_cnot_trivial_on_plus(self):
        with_cnot = Circuit(2, plus_prep(2) + (Gate("CNOT", (0, 1)),))
        without = Circuit(2, plus_prep(2))
        sa, sb = simulate(with_cnot), simulate(without)
        assert np.allclose(sa.state, sb.state)

    def test_e_cnot_through_ccz(self):
        lhs = Circuit(3, (Gate("CNOT", (0, 1)), Gate("CCZ", (0, 1, 2))))
        rhs = Circuit(
            3, (Gate("CCZ", (0, 1, 2)), Gate("CZ", (0, 2)), Gate("CNOT", (0, 1)))
        )
        assert poly_equal(
            phase_polynomial_of(lhs), phase_polynomial_of(rhs), up_to_global=False
        )
        # acting on the prepared CCZ state the CNOT reduces to a CZ dressing
        state_lhs = simulate(
            Circuit(3, plus_prep(3) + (Gate("CCZ", (0, 1, 2)), Gate("CNOT", (0, 1))))
        ).state
        state_rhs = simulate(
            Circuit(3, plus_prep(3) + (Gate("CCZ", (0, 1, 2)), Gate("CZ", (0, 2))))
        ).state
        assert np.allclose(state_lhs, state_rhs)

    def test_f_x_conjugation_of_t(self):
        xtx = phase_polynomial_of(
            Circuit(1, (Gate("X", (0,)), Gate("T", (0,)), Gate("X", (0,))))
        )
        tdag = phase_polynomial_of(Circuit(1, (Gate("Tdag", (0,)),)))
        assert poly_equal(xtx, tdag, up_to_global=True)
        # the conjugation contributes exactly a quarter-pi global phase
        assert (xtx.global_phase - tdag.global_phase) % 16 == 2
        # state form: X|T> equals |Tdag> up to phase
        a = simulate(Circuit(1, (Gate("PrepT", (0,)), Gate("X", (0,))))).state
        b = simulate(Circuit(1, (Gate("PrepTdag", (0,)),))).state
        assert equal_up_to_global_phase(a, b, 1e-12)

    def test_g_cs_through_cnot(self):
        lhs = Circuit(2, (Gate("CNOT", (0, 1)), Gate("CS", (0, 1))))
        rhs = Circuit(
            2,
            (Gate("CS", (0, 1)), Gate("S", (0,)), Gate("CZ", (0, 1)), Gate("CNOT", (0, 1))),
        )
        assert poly_equal(
            phase_polynomial_of(lhs), phase_polynomial_of(rhs), up_to_global=False
        )

    def test_channel_identity(self):
        # balanced S/Sdag phase noise equals plain Z noise, as superoperators
        q = 0.13
        mixed = TGadgetChannel(1 - 2 * q, q, q, 0.0)
        plain = TGadgetChannel(1 - q, 0.0, 0.0, q)
        delta = channel_superoperator(mixed) - channel_superoperator(plain)
        assert np.max(np.abs(delta)) < 1e-12
        print("\nPASS criterion 7: rewrite identities (a)-(g) and channel identity")


def test_criterion_8_cost_model():
    for d in (1, 3, 5, 7):
        assert spacetime_cost(d) == 168 * d * d
    print("\nPASS criterion 8: spacetime cost = 168 d^2 for d in {1,3,5,7}")


def test_criterion_9_cli_determinism(tmp_path):
    prog_path = tmp_path / "ccz.json"
    prog_path.write_text(programs.program_text("ccz"))

    def run_all(workdir):
        workdir.mkdir()
        circ = workdir / "circuit.json"
        report = workdir / "report.json"
        faults = workdir / "faults.json"
        sweep = workdir / "sweep.csv"
        assert cli_main([
            "compile", "--in", str(prog_path), "--out", str(circ),
            "--report", str(report), "--budget", "40", "--seed", "7",
            "--measure-x", "3",
        ]) == 0
        assert cli_main([
            "faults", "--circuit", str(circ), "--outputs", "0,1,2",
            "--singles", "--pairs", "--out", str(faults),
        ]) == 0
        assert cli_main([
            "sweep", "--circuit", str(circ), "--outputs", "0,1,2",
            "--pl", "1e-3", "--r", "1,3", "--shots", "2e3", "--seed", "5",
            "--gadgetize", "--out", str(sweep),
        ]) == 0
        return [p.read_bytes() for p in (circ, report, faults, sweep)]

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    assert first == second
    print("\nPASS criterion 9: byte-identical artifacts across reruns")
