import hashlib
import math
import random
from itertools import permutations

import numpy as np
import pytest

from rotsynth.gf2 import (
    BitVec,
    GF2Matrix,
    SingularMatrixError,
    invert,
    is_invertible,
    is_permutation,
    random_invertible,
)
from rotsynth.ir import Circuit, Gate, PhaseRotation, RotationProgram
from rotsynth.compiler import (
    PartitionError,
    _bits,
    _padded,
    absorb_into_prep,
    cnot_synthesize,
    compile_program,
    compile_to_unitary,
    eliminate_tdag,
    expand_reference,
    hoist_permutations,
    merge_adjacent_blocks,
    parallelize_block,
    partition_rotations,
    replay_row_ops,
    synthesis_gates,
)
from rotsynth.semantics import (
    equal_up_to_global_phase,
    phase_polynomial_of,
    poly_equal,
    simulate,
    state_fidelity,
    unitary_of,
)
from rotsynth import programs

from oracles import (
    ccz_state,
    cs_state,
    cx_unitary,
    permutation_matrix,
    plus_prep,
    random_program,
    reference_emit,
    reference_merged,
    reference_pad_residual,
    reference_split,
    rotation_product_unitary,
    t_state,
)


def _matrix(bits: list[list[int]]) -> GF2Matrix:
    """A square GF2Matrix from the 0/1 rows of a tensor entry."""
    return GF2Matrix(len(bits), len(bits), tuple(sum(b << j for j, b in enumerate(row)) for row in bits))


U0 = GF2Matrix.from_rows([[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 1, 0], [1, 1, 1, 1]])
U1 = GF2Matrix.from_rows([[0, 0, 0, 1], [0, 0, 1, 1], [1, 0, 0, 0], [1, 1, 1, 1]])


def gaussian_op_count(u: GF2Matrix) -> int:
    """Row-operation count of plain Gaussian elimination to the identity."""
    n = u.n_rows
    rows = list(u.transpose().rows)
    count = 0
    for col in range(n):
        if not (rows[col] >> col) & 1:
            src = next(r for r in range(n) if r != col and (rows[r] >> col) & 1 and r >= col)
            rows[col] ^= rows[src]
            count += 1
        for r in range(n):
            if r != col and (rows[r] >> col) & 1:
                rows[r] ^= rows[col]
                count += 1
    assert rows == list(GF2Matrix.identity(n).rows)
    return count


class TestCnotSynthesize:
    def test_identity_is_fixed_point(self):
        res = cnot_synthesize(GF2Matrix.identity(4))
        assert res.perm == GF2Matrix.identity(4)
        assert res.ops == ()

    def test_permutation_input(self):
        p = permutation_matrix([1, 2, 0, 3])
        res = cnot_synthesize(p)
        assert res.perm == p.transpose()
        assert res.ops == ()

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            cnot_synthesize(GF2Matrix.zeros(3, 3))
        # rows 0b11 and 0: as many ones as rows, but no permutation
        with pytest.raises(ValueError):
            synthesis_gates(GF2Matrix(2, 2, (3, 0)), depth_opt=False)

    def test_reconstruction_random(self):
        for seed in range(100):
            u = random_invertible(6, seed)
            res = cnot_synthesize(u)
            assert is_permutation(res.perm)
            assert replay_row_ops(res) == u.transpose()

    def test_op_count_vs_gaussian_baseline(self):
        # regression guard: greedy should beat plain elimination nearly always
        wins = 0
        for seed in range(100):
            u = random_invertible(6, seed)
            if len(cnot_synthesize(u).ops) <= gaussian_op_count(u):
                wins += 1
        assert wins >= 90

    @pytest.mark.parametrize("depth_opt", [False, True])
    def test_singular_operator_one_rule(self, depth_opt):
        # every size and objective, the depth table (n <= 4 under
        # cnot-depth) included: a singular operator is a SingularMatrixError
        rng = random.Random(23)
        for n in range(2, 7):
            for _ in range(4):
                rows = list(random_invertible(n, rng.randrange(10**6)).rows)
                i, j = rng.sample(range(n), 2)
                rows[j] = rows[i]
                with pytest.raises(SingularMatrixError):
                    synthesis_gates(GF2Matrix(n, n, tuple(rows)), depth_opt)
        with pytest.raises(ValueError):
            synthesis_gates(GF2Matrix(2, 2, (3, 0)), depth_opt)

    @pytest.mark.parametrize("depth_opt", [False, True])
    def test_empty_operator(self, depth_opt):
        # the 0 x 0 matrix is already a permutation: nothing to emit
        empty = GF2Matrix(0, 0, ())
        assert synthesis_gates(empty, depth_opt) == ()
        assert parallelize_block(empty, [], depth_opt) == Circuit(0, ())

    def test_empty_operator_greedy(self):
        res = cnot_synthesize(GF2Matrix(0, 0, ()))
        assert res.perm == GF2Matrix(0, 0, ())
        assert res.ops == ()

    @pytest.mark.parametrize("depth_opt", [False, True])
    @pytest.mark.parametrize("n", [4, 6])
    def test_synthesize_in_chunks(self, monkeypatch, n, depth_opt):
        # chunks of 3 realize 10 operators as one call per operator does;
        # only the greedy batches them (n = 4 under cnot-depth reads the
        # table), one batch per chunk and score holding every form
        from rotsynth import compiler

        us = [random_invertible(n, seed) for seed in range(10)]
        ops, invs = _bits(us), _bits([invert(u) for u in us])
        want = [compiler._synthesize(ops[k : k + 1], invs[k : k + 1], depth_opt)[0] for k in range(10)]
        batches = []
        greedy = compiler._greedy_batch

        def recorded(a, score):
            batches.append(len(a))
            return greedy(a, score)

        # the batch bound counts operators x n^2 entries: room for 3
        monkeypatch.setattr(compiler, "_SYNTHESIS_CELLS", 3 * n * n + n)
        monkeypatch.setattr(compiler, "_greedy_batch", recorded)
        assert compiler._synthesize(ops, invs, depth_opt) == want
        forms = 3 if depth_opt else 1  # u, u^-1, u^T; and as many scores
        if depth_opt and n <= compiler.DEPTH_OPT_LIMIT:
            assert batches == []
        else:
            assert batches == [forms * size for size in (3, 3, 3, 1) for _ in range(forms)]
        assert compiler._synthesize(ops[:0], invs[:0], depth_opt) == []

    @pytest.mark.parametrize("depth_opt", [False, True])
    def test_gates_realize_operator(self, depth_opt):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.choice([2, 3, 4, 5])
            u = random_invertible(n, rng.randrange(10**6))
            c = Circuit(n, synthesis_gates(u, depth_opt))
            assert np.allclose(unitary_of(c), cx_unitary(u))


class TestParallelizeBlock:
    def test_identity_block_bare_t(self):
        frag = parallelize_block(GF2Matrix.identity(3), [1, 0, 0])
        assert frag.gates == (Gate("T", (0,)),)

    def test_parity_gadget(self):
        u = GF2Matrix.from_cols([[1, 1], [0, 1]])
        frag = parallelize_block(u, [1, 0])
        prog = RotationProgram(
            2, (PhaseRotation(BitVec.from_string("11"), 1),)
        )
        assert equal_up_to_global_phase(
            unitary_of(frag), rotation_product_unitary(prog), 1e-10
        )

    def test_block_against_dense_product(self):
        rng = random.Random(22)
        for _ in range(30):
            n = rng.choice([2, 3, 4])
            u = random_invertible(n, rng.randrange(10**6))
            ks = [rng.randrange(8) for _ in range(n)]
            prog = RotationProgram(
                n,
                tuple(PhaseRotation(u.col(j), ks[j]) for j in range(n)),
            )
            frag = parallelize_block(u, ks)
            assert equal_up_to_global_phase(
                unitary_of(frag), rotation_product_unitary(prog), 1e-10
            )

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            parallelize_block(GF2Matrix.zeros(2, 2), [1, 1])


class TestCircuitPasses:
    def test_merge_cancels_inverse_blocks(self):
        u = random_invertible(4, 5)
        c = Circuit(4, synthesis_gates(u) + synthesis_gates(invert(u)))
        assert merge_adjacent_blocks(c).gates == ()

    def test_merge_three_blocks(self):
        a, b, c_ = (random_invertible(4, s) for s in (1, 2, 3))
        circ = Circuit(4, synthesis_gates(a) + synthesis_gates(b) + synthesis_gates(c_))
        merged = merge_adjacent_blocks(circ)
        assert np.allclose(unitary_of(merged), cx_unitary(c_ @ b @ a))

    def test_merge_preserves_mixed_circuits(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.choice([3, 4])
            u1, u2 = (random_invertible(n, rng.randrange(10**6)) for _ in range(2))
            mid = tuple(Gate("T", (q,)) for q in range(n))
            c = Circuit(n, synthesis_gates(u1) + mid + synthesis_gates(u2))
            assert equal_up_to_global_phase(
                unitary_of(merge_adjacent_blocks(c)), unitary_of(c), 1e-9
            )

    def test_hoist_cancelling_permutations(self):
        c = Circuit(
            3,
            (Gate("SWAP", (0, 1)), Gate("CNOT", (0, 2)), Gate("SWAP", (0, 1))),
        )
        hoisted = hoist_permutations(c)
        assert all(g.kind != "SWAP" for g in hoisted.gates)
        assert equal_up_to_global_phase(unitary_of(hoisted), unitary_of(c), 1e-10)

    def test_hoist_single_swap(self):
        c = Circuit(2, (Gate("SWAP", (0, 1)), Gate("CNOT", (0, 1))))
        hoisted = hoist_permutations(c)
        assert hoisted.gates[0].kind == "SWAP"
        assert equal_up_to_global_phase(unitary_of(hoisted), unitary_of(c), 1e-10)

    def test_hoist_random_pipelines(self):
        rng = random.Random(24)
        for _ in range(20):
            n = 4
            gates = []
            for _ in range(12):
                if rng.random() < 0.3:
                    gates.append(Gate("SWAP", tuple(rng.sample(range(n), 2))))
                elif rng.random() < 0.6:
                    gates.append(Gate("CNOT", tuple(rng.sample(range(n), 2))))
                else:
                    gates.append(Gate(rng.choice(["T", "S", "X"]), (rng.randrange(n),)))
            c = Circuit(n, tuple(gates))
            hoisted = hoist_permutations(c)
            swaps = [i for i, g in enumerate(hoisted.gates) if g.kind == "SWAP"]
            non_swaps = [i for i, g in enumerate(hoisted.gates) if g.kind != "SWAP"]
            assert not swaps or not non_swaps or max(swaps) < min(non_swaps)
            assert equal_up_to_global_phase(unitary_of(hoisted), unitary_of(c), 1e-9)

    def test_absorb_deletes_cnots_on_plus(self):
        u = random_invertible(4, 9)
        c = Circuit(4, synthesis_gates(u))
        absorbed = absorb_into_prep(hoist_permutations(c))
        assert absorbed.gates == tuple(Gate("PrepPlus", (q,)) for q in range(4))

    def test_absorb_oracle_equivalence(self):
        rng = random.Random(25)
        for _ in range(25):
            n = rng.choice([2, 3, 4])
            gates = list(synthesis_gates(random_invertible(n, rng.randrange(10**6))))
            for q in range(n):
                gates.extend(Gate(k, (q,)) for k in rng.choice(
                    [(), ("T",), ("Tdag",), ("S",), ("T", "S")]
                ))
            gates += [Gate("CNOT", tuple(rng.sample(range(n), 2)))]
            c = hoist_permutations(Circuit(n, tuple(gates)))
            absorbed = absorb_into_prep(c)
            reference = Circuit(n, plus_prep(n) + c.gates)
            sa = simulate(absorbed)
            sb = simulate(reference)
            assert equal_up_to_global_phase(sa.state, sb.state, 1e-9)

    def test_absorb_noop_with_warning_on_prepped_circuit(self):
        c = Circuit(1, (Gate("PrepPlus", (0,)), Gate("T", (0,))))
        with pytest.warns(UserWarning):
            assert absorb_into_prep(c) == c

    def test_eliminate_tdag(self):
        c = Circuit(1, (Gate("Tdag", (0,)),))
        out = eliminate_tdag(c)
        assert tuple(g.kind for g in out.gates) == ("X", "T", "X")
        assert equal_up_to_global_phase(unitary_of(out), unitary_of(c), 1e-12)


class TestPartition:
    def test_ccz_identity_ordering_gives_reference_blocks(self):
        part = partition_rotations(programs.load("ccz"), budget=1)
        assert part.blocks == (U0, U1)
        assert part.residual == ()
        assert part.exponent_maps == ((7, 7, 1, 1), (1, 7, 1, 7))

    def test_basis_vector_program_single_identity_block(self):
        n = 4
        prog = RotationProgram(
            n, tuple(PhaseRotation(BitVec.basis(n, q), 1) for q in range(n))
        )
        part = partition_rotations(prog, budget=1)
        assert part.blocks == (GF2Matrix.identity(n),)

    def test_t15_three_blocks(self):
        part = partition_rotations(programs.load("t15"), budget=1)
        assert len(part.blocks) == 3
        assert all(is_invertible(b) for b in part.blocks)
        assert part.residual == ()

    def test_budget_counts_every_ordering(self, monkeypatch):
        # the program order plus budget - 1 seeded shuffles, however few
        # rotations there are: ccz has 8! orderings, three rotations 3!;
        # a repeated ordering counts and is cut again
        from rotsynth import compiler

        part = partition_rotations(programs.load("ccz"), budget=40)
        assert (part.orderings_valid, part.orderings_tried) == (33, 40)
        cut = []
        batched = compiler._cut
        monkeypatch.setattr(compiler, "_cut", lambda p, orders: cut.extend(map(tuple, orders.tolist()))
                            or batched(p, orders))
        basis = RotationProgram(3, tuple(PhaseRotation(BitVec.basis(3, q), 1) for q in range(3)))
        part = partition_rotations(basis, budget=40)
        assert (part.orderings_valid, part.orderings_tried) == (40, 40)
        assert len(cut) == 40 and set(cut) == set(permutations(range(3)))

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        # as the CLI's --budget check: no search, not the program order
        # reported with a budget it never had
        for compile_fn in (compile_program, partition_rotations, compile_to_unitary):
            for prog in (programs.load("ccz"), RotationProgram(2, ())):
                with pytest.raises(ValueError, match=f"budget must be at least 1, got {budget}"):
                    compile_fn(prog, budget=budget)

    def test_partition_failure(self):
        # the supports span both dimensions, but every cut into two blocks
        # of two puts two "10" together: infeasible, yet no proof below
        # covers it, so the search decides
        prog = RotationProgram(2, tuple(
            PhaseRotation(BitVec.from_string(v), 1) for v in ("10", "10", "10", "01")
        ))
        with pytest.raises(PartitionError, match="among 50 sampled ordering"):
            partition_rotations(prog, budget=50)
        # feasible (10 01 | 10 01), but the program order is not
        lucky = RotationProgram(2, tuple(
            PhaseRotation(BitVec.from_string(v), 1) for v in ("10", "10", "01", "01")
        ))
        with pytest.raises(PartitionError, match="among 1 sampled ordering"):
            partition_rotations(lucky, budget=1)
        assert partition_rotations(lucky, budget=50).orderings_valid > 0

    @pytest.mark.parametrize(
        "n, supports, cause",
        [
            (3, ["000"], "rotation 0 has an empty support"),
            (3, ["110", "101", "011", "000"], "rotation 3 has an empty support"),
            (3, ["110", "110"], "all form the residual"),
            (4, ["1100", "0110", "1010"], "all form the residual"),
            (2, ["11"] * 4, "4 supports span 1 of 2 dimensions"),
            (3, ["110", "011", "101"], "3 supports span 2 of 3 dimensions"),
            (3, ["110", "011", "101", "110", "011"], "5 supports span 2 of 3 dimensions"),
            (4, ["1000", "0100", "1100"] * 3, "9 supports span 2 of 4 dimensions"),
        ],
    )
    def test_no_partition_exists(self, n, supports, cause, monkeypatch):
        # proven before any search, so no ordering is ever cut
        from rotsynth import compiler

        cut = []
        batched = compiler._cut
        monkeypatch.setattr(compiler, "_cut", lambda p, orders: cut.extend(map(tuple, orders.tolist()))
                            or batched(p, orders))
        prog = RotationProgram(
            n, tuple(PhaseRotation(BitVec.from_string(v), int("1" in v)) for v in supports)
        )
        with pytest.raises(PartitionError, match=f"no block partition exists: .*{cause}"):
            partition_rotations(prog, budget=200)
        assert cut == []
        # fewer rotations than qubits with independent supports are a residual
        head = RotationProgram(n, prog.rotations[:1])
        if supports[0].count("1"):
            assert partition_rotations(head, budget=1).residual == head.rotations

    def test_pad_residual_against_span_oracle(self):
        # residuals of 0..n supports, zero and repeated ones included
        rng = random.Random(27)
        padded = dependent = 0
        for _ in range(400):
            n = rng.randrange(1, 7)
            supports = [rng.getrandbits(n) for _ in range(rng.randrange(0, n + 1))]
            residual = [PhaseRotation(BitVec(n, v), int(v > 0)) for v in supports]
            want = reference_pad_residual(residual, n)
            basis, independent = _padded(_bits([GF2Matrix(len(supports), n, tuple(supports))]))
            got = list(_matrix(basis[0].tolist()).rows)
            assert (got if independent[0] else None) == want
            if want is None:
                dependent += 1
            else:
                padded += 1
                assert len(got) == n and is_invertible(GF2Matrix(n, n, tuple(got)))
        assert padded > 100 and dependent > 50

    def test_residual_padding(self):
        rng = random.Random(26)
        prog = random_program(rng, 4, 6)  # 6 = 4 + residual 2
        try:
            part = partition_rotations(prog, budget=100, seed=0)
        except PartitionError:
            pytest.skip("no valid ordering for this sample")
        assert len(part.residual) == 2


class TestCompile:
    def test_empty_program(self):
        # the identity on |+>^n: n preparations, as for rotations with k = 0
        prog = RotationProgram(3, ())
        rep = compile_program(prog)
        assert rep.circuit.gates == plus_prep(3)
        assert rep.t_depth == rep.cnot_depth == rep.cnot_count == 0
        assert rep.partition.ordering == () and rep.orderings_tried == 0
        plus = np.full(8, 1 / math.sqrt(8))
        state = simulate(rep.circuit).state
        assert equal_up_to_global_phase(state, rotation_product_unitary(prog) @ plus, 1e-10)
        assert compile_program(RotationProgram(0, ())).circuit == Circuit(0)
        assert compile_to_unitary(prog) == Circuit(3)

    def test_ccz_golden_metrics(self):
        rep = compile_program(programs.load("ccz"), budget=1)
        assert rep.t_depth == 2
        assert rep.circuit.n == 4
        assert rep.t_count == 8
        res = simulate(rep.circuit)
        assert state_fidelity(res.state, ccz_state(), [0, 1, 2], 4) > 1 - 1e-10

    def test_cs_golden(self):
        rep = compile_program(programs.load("cs"), budget=1)
        assert rep.t_depth == 3
        assert rep.t_count == 12
        res = simulate(rep.circuit)
        assert state_fidelity(res.state, cs_state(), [0, 1], 4) > 1 - 1e-10

    def test_t15_golden(self):
        rep = compile_program(programs.load("t15"), budget=1)
        assert rep.t_depth == 3
        assert rep.t_count == 15
        res = simulate(rep.circuit)
        assert state_fidelity(res.state, t_state(), [4], 5) > 1 - 1e-10

    def test_normal_form_gate_set(self):
        for name in ("ccz", "cs", "t15"):
            rep = compile_program(programs.load(name), budget=1)
            kinds = {g.kind for g in rep.circuit.gates}
            assert kinds <= {"PrepT", "PrepPlus", "T", "CNOT", "X", "S", "Z", "Sdag"}
            assert "SWAP" not in kinds and "Tdag" not in kinds

    def test_t_count_conservation_distinct_supports(self):
        # with distinct supports no two equal-parity rotations can meet, so
        # every odd exponent costs exactly one magic resource
        rng = random.Random(27)
        checked = 0
        while checked < 12:
            n = rng.randrange(2, 5)
            m = rng.randrange(1, min(11, (1 << n)))
            supports = rng.sample(range(1, 1 << n), m)
            prog = RotationProgram(
                n,
                tuple(PhaseRotation(BitVec(n, s), rng.randrange(8)) for s in supports),
            )
            try:
                rep = compile_program(prog, budget=30, seed=1)
            except PartitionError:
                continue
            checked += 1
            odd = sum(1 for r in prog.rotations if r.k % 2 == 1)
            assert rep.t_count == odd

    def test_compile_oracle_equivalence_random(self):
        # duplicate supports allowed: equal-parity rotations may fuse, but the
        # prepared state must match the reference expansion exactly
        rng = random.Random(30)
        checked = 0
        while checked < 12:
            n = rng.randrange(2, 5)
            m = rng.randrange(1, 11)
            prog = random_program(rng, n, m)
            try:
                rep = compile_program(prog, budget=30, seed=1)
            except PartitionError:
                continue
            checked += 1
            odd = sum(1 for r in prog.rotations if r.k % 2 == 1)
            assert rep.t_count <= odd
            res = simulate(rep.circuit)
            ref = Circuit(n, plus_prep(n) + expand_reference(prog).gates)
            res_ref = simulate(ref)
            assert equal_up_to_global_phase(res.state, res_ref.state, 1e-9)

    def test_unitary_pipeline_phase_polynomial_invariant(self):
        rng = random.Random(28)
        checked = 0
        while checked < 12:
            n = rng.randrange(2, 7)
            m = rng.randrange(1, min(21, 3 * n + 1))
            prog = random_program(rng, n, m)
            try:
                circ = compile_to_unitary(prog, budget=30, seed=2)
            except PartitionError:
                continue
            checked += 1
            assert poly_equal(
                phase_polynomial_of(circ),
                phase_polynomial_of(expand_reference(prog)),
                up_to_global=True,
            )

    def test_t_depth_is_block_count(self):
        rng = random.Random(29)
        checked = 0
        while checked < 8:
            n = rng.randrange(2, 5)
            m = n * rng.randrange(1, 4)
            prog = random_program(rng, n, m)
            if any(r.k % 2 == 0 for r in prog.rotations):
                continue  # the ceiling argument assumes odd exponents
            try:
                rep = compile_program(prog, budget=50, seed=3)
            except PartitionError:
                continue
            checked += 1
            assert rep.t_depth == math.ceil(m / n)

    def test_determinism(self):
        prog = programs.load("t15")
        a = compile_program(prog, budget=60, seed=4)
        b = compile_program(prog, budget=60, seed=4)
        assert a == b

    def test_metrics_match_circuit(self):
        rep = compile_program(programs.load("ccz"), budget=1)
        assert rep.cnot_depth == rep.circuit.cnot_depth()
        assert rep.cnot_count == rep.circuit.cnot_count()
        assert rep.t_depth == rep.circuit.t_depth()

    def test_objectives_preserve_t_count(self):
        prog = programs.load("ccz")
        a = compile_program(prog, budget=40, seed=5, objective="cnot-depth")
        b = compile_program(prog, budget=40, seed=5, objective="cnot-count")
        assert a.t_count == b.t_count == 8
        assert b.cnot_count <= a.cnot_count

    def test_search_scorer_matches_emitted_circuit(self):
        # the search scores the gate list that the circuit is emitted from;
        # both emitted forms must be byte-identical to the public passes
        rng = random.Random(31)
        checked = 0
        while checked < 25:
            n = rng.randrange(2, 6)
            m = rng.randrange(1, 3 * n + 1)
            prog = random_program(rng, n, m)
            split = reference_split(prog, tuple(range(m)))
            if split is None:
                continue
            checked += 1
            for objective in ("cnot-depth", "cnot-count"):
                depth_opt = objective == "cnot-depth"
                rep = compile_program(prog, budget=1, objective=objective)
                want = reference_emit(split, n, True, depth_opt)
                assert rep.circuit.to_json() == want.to_json()
                assert (rep.cnot_depth, rep.cnot_count) == (want.cnot_depth(), want.cnot_count())
                got = compile_to_unitary(prog, budget=1, objective=objective)
                assert got.to_json() == reference_emit(split, n, False, depth_opt).to_json()

    def test_blocks_carry_their_inverses(self):
        # one elimination per cut: each block's operator F has the rotation
        # supports as rows and comes with F^-1, and every merged operator of
        # a candidate with its inverse; a window of orderings, valid and
        # not, is cut in one batch as each ordering is on its own
        from rotsynth import compiler

        rng = random.Random(32)
        checked = 0
        while checked < 40:
            n = rng.randrange(1, 7)
            m = rng.randrange(1, 3 * n + 1)
            prog = random_program(rng, n, m)
            orders = [tuple(rng.sample(range(m), m)) for _ in range(4)]
            ops, invs, exps, valid = compiler._cut(prog, np.array(orders))
            for k, order in enumerate(orders):
                split = reference_split(prog, order)
                assert valid[k] == (split is not None)
                if split is None:
                    continue
                checked += 1
                identity = GF2Matrix.identity(n)
                blocks = [(_matrix(op), _matrix(inv)) for op, inv in zip(ops[k].tolist(), invs[k].tolist())]
                assert [b[0] for b in blocks] == [b.op for b in split]
                assert exps[k].tolist() == [list(b.exponents) for b in split]
                for b, start in zip(blocks, range(0, m, n)):
                    supports = [prog.rotations[i].support.bits for i in order[start : start + n]]
                    assert list(b[0].rows[: len(supports)]) == supports
                at, merged, merged_inv = compiler._merged(ops[k : k + 1], invs[k : k + 1], exps[k : k + 1])
                live, want = reference_merged(split)
                assert len(want) == (len(live) + 1 if live else 0)
                assert len(at) == len(live) and len(merged) == len(want[1:])
                pairs = [(_matrix(op), _matrix(inv)) for op, inv in zip(merged.tolist(), merged_inv.tolist())]
                assert pairs == want[1:]
                for op, inv in blocks + pairs:
                    assert op @ inv == identity and inv @ op == identity

    def test_depth_synthesis_only_where_it_counts(self, monkeypatch):
        # under cnot-depth the search hands the synthesizer, in one call, the
        # merged operators that absorption keeps (2 onward) of every valid
        # candidate, in candidate order, repeats included, and emission
        # synthesizes nothing; the unitary adds one call after the search,
        # holding the winner's leading operator alone
        from rotsynth import compiler

        calls = []
        synthesize, search = compiler._synthesize, compiler._search

        def recorded_synthesize(ops, invs, depth_opt):
            pairs = [(_matrix(op), _matrix(inv)) for op, inv in zip(ops.tolist(), invs.tolist())]
            calls.append((pairs, depth_opt))
            return synthesize(ops, invs, depth_opt)

        def searched(*args, **kwargs):
            found = search(*args, **kwargs)
            calls.append("emit")
            return found

        monkeypatch.setattr(compiler, "_synthesize", recorded_synthesize)
        monkeypatch.setattr(compiler, "_search", searched)
        prog = programs.load("t15")
        m = len(prog.rotations)
        _, merged = reference_merged(reference_split(prog, tuple(range(m))))
        assert len(merged) == 4

        compile_program(prog, budget=1, objective="cnot-depth")
        assert calls == [(merged[1:], True), "emit"]

        calls.clear()
        compile_to_unitary(prog, budget=1, objective="cnot-depth")
        assert calls == [(merged[1:], True), "emit", (merged[:1], True)]

        # many candidates: one call with their operators 2 onward, candidate
        # by candidate; the unitary's second call holds the winner's first.
        # ccz's candidates share many operators
        prog = programs.load("ccz")
        orders = list(compiler._candidate_orderings(len(prog.rotations), 40, 3))
        splits = [s for s in (reference_split(prog, o) for o in orders) if s is not None]
        want = [op for split in splits for op in reference_merged(split)[1][1:]]
        assert len(set(want)) < len(want)  # an operator met again is synthesized again
        calls.clear()
        winner = compile_program(prog, budget=40, seed=3, objective="cnot-depth").partition.ordering
        assert calls == [(want, True), "emit"]
        calls.clear()
        compile_to_unitary(prog, budget=40, seed=3, objective="cnot-depth")
        lead = reference_merged(reference_split(prog, winner))[1][:1]
        assert calls == [(want, True), "emit", (lead, True)]

        # no live block: nothing to synthesize, before or after the search
        idle = RotationProgram(3, tuple(PhaseRotation(BitVec(3, b), 0) for b in (1, 2, 4)))
        calls.clear()
        compile_to_unitary(idle, budget=1, objective="cnot-depth")
        assert calls == [([], True), "emit", ([], True)]

    @pytest.mark.parametrize("objective", ["cnot-depth", "cnot-count"])
    def test_unitary_absorbs_to_the_compiled_circuit(self, objective):
        # the two emitters share one search: the unitary, absorbed into |+>
        # preparations, is the compiled circuit, byte for byte
        idle_first = RotationProgram(3, tuple(
            PhaseRotation(BitVec(3, b), k) for b, k in ((1, 0), (2, 0), (4, 0), (3, 1), (5, 3), (7, 7))
        ))
        residual = RotationProgram(4, tuple(
            PhaseRotation(BitVec(4, b), k)
            for b, k in ((1, 1), (2, 1), (4, 3), (8, 1), (3, 1), (6, 5), (12, 1), (13, 7), (7, 1), (14, 3))
        ))
        cases = [(programs.load(name), budget, seed)
                 for name in ("ccz", "cs", "t15") for budget in (1, 40) for seed in (0, 5)]
        cases += [(idle_first, 1, 0), (idle_first, 40, 2), (residual, 1, 0), (residual, 40, 2)]
        for prog, budget, seed in cases:
            want = compile_program(prog, budget, seed, objective).circuit
            got = compile_to_unitary(prog, budget, seed, objective)
            assert eliminate_tdag(absorb_into_prep(got)).to_json() == want.to_json()


# SHA-256 of the emitted JSON: compile_program(...).circuit, then
# compile_to_unitary(...), for each bundled program, budget and objective
EMITTED_SHA256 = {
    ("ccz", 1, "cnot-depth"): (
        "39f9af2e4de8d29bbeb1dec47e415d1839c02b3ceed0cb5682514cd67e013fba",
        "6b6679f6e1e09ecba3e0e68836cd37a82e0077aa381fc380486a571a5d93d1e2",
    ),
    ("ccz", 1, "cnot-count"): (
        "1f49a80981317a9c2011a4cc84d55c24a450c757a7eca85ba150cd04855c0815",
        "981215c4fb60155cdc62fad77d28303de864edfdc07cf44de0cc64788a5e8c7e",
    ),
    ("ccz", 200, "cnot-depth"): (
        "39f9af2e4de8d29bbeb1dec47e415d1839c02b3ceed0cb5682514cd67e013fba",
        "6b6679f6e1e09ecba3e0e68836cd37a82e0077aa381fc380486a571a5d93d1e2",
    ),
    ("ccz", 200, "cnot-count"): (
        "1f49a80981317a9c2011a4cc84d55c24a450c757a7eca85ba150cd04855c0815",
        "981215c4fb60155cdc62fad77d28303de864edfdc07cf44de0cc64788a5e8c7e",
    ),
    ("cs", 1, "cnot-depth"): (
        "57b55d216b80409ec0a8ace5a0515609c85855fff6556b7e2cdb8ff5d74eb8a5",
        "ecef016b1f98c31468245e7b5c14c40b90aa4fa26ccd1ac3b99db2b1dd573de9",
    ),
    ("cs", 1, "cnot-count"): (
        "cd3be3ec84e98886819fede56ec6774dc1595538dc432ded91990a35dd9277cd",
        "67648c76f411aa47fc353b65d5fcf0fc5620ed31e2f1bc74fe23601cd81d8450",
    ),
    ("cs", 200, "cnot-depth"): (
        "265860e9905f2351c7d71e37d5cdd40da2213ee40f20834e780382cc364f5094",
        "8213ce2f8d5b3bbf7dbbe7de6598da923b233efbcbe8e559f37ae39435a2fcdb",
    ),
    ("cs", 200, "cnot-count"): (
        "ad0b7167b7d3d91f481bacc56e5e2f42cb35a0ce6b89572e1f0f62f9d96ac011",
        "a9893abdf2a9891a5ae9bdb4389011dec256bad71d38a35deac60cc1bce3a02e",
    ),
    ("t15", 1, "cnot-depth"): (
        "25bdd2b6ac6f9001ea763b4b18282cbbb1a71d5160fb422ecd8307dbbf1fbc49",
        "c8402f784c6b89ed65fa1fcc2de2ba1228cb29a4521afa08bffc5cdc79c8d9f9",
    ),
    ("t15", 1, "cnot-count"): (
        "448c3579c2bc819dfdaa8abcfe5a3aa3102bbd0ca5ad7b78f5630bb036dc2c56",
        "20210ec051afc0c8cf9294c99143cbced2eee7a516ce28e05cf4bd0089d02bcf",
    ),
    ("t15", 200, "cnot-depth"): (
        "814b8d8a86f3c1660aed3334dc23b6bb11a204de4f415cd3cd6c150299900892",
        "069f9b1a6d163f01131f1f00ce52473de467e02c7a2391b4aeac5a21da3b5715",
    ),
    ("t15", 200, "cnot-count"): (
        "7fce04db2c9bc489575f595a51c1f98fe78032b39d556237567d409784cdc016",
        "01bc237e04177271822ba50d538b798e74717234407e4b5806a9cfcdca88af4b",
    ),
}


@pytest.mark.parametrize("name, budget, objective", sorted(EMITTED_SHA256))
def test_emitted_circuits_pinned(name, budget, objective):
    # pins the emitted bytes, which the search tests (compared against the
    # same emission code) cannot see change
    prog = programs.load(name)
    got = (
        compile_program(prog, budget=budget, objective=objective).circuit.to_json(),
        compile_to_unitary(prog, budget=budget, objective=objective).to_json(),
    )
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in got)
    assert digests == EMITTED_SHA256[name, budget, objective]


def _unitary_cases() -> dict:
    """(program, budget) by name: programs whose leading block is dead (all
    k = 0), whose blocks are all dead, that are all residual, and budget-7
    searches with several valid candidates, some won by a shuffle."""
    rng = random.Random(26)
    cases = {}
    for name in programs.NAMES:
        prog = programs.load(name)
        n, rots = prog.n, prog.rotations
        dead = tuple(PhaseRotation(r.support, 0) for r in rots[:n]) + rots[n:]
        cases[f"{name}-dead-lead"] = (RotationProgram(n, dead), 1)
        cases[f"{name}-dead-lead-7"] = (RotationProgram(n, dead), 7)
        all_dead = tuple(PhaseRotation(r.support, 0) for r in rots)
        cases[f"{name}-all-dead"] = (RotationProgram(n, all_dead), 7)
        cases[f"{name}-residual"] = (RotationProgram(n, rots[: n - 1]), 1)
        cases[f"{name}-7"] = (prog, 7)
    for n in range(2, 7):
        u = random_invertible(n, rng.getrandbits(32))
        ks = [rng.randrange(8) for _ in range(2 * n)]
        v = random_invertible(n, rng.getrandbits(32))
        cols = [u.col(j) for j in range(n)] + [v.col(j) for j in range(n)]
        full = tuple(PhaseRotation(c, k) for c, k in zip(cols, ks))
        cases[f"rand{n}-residual"] = (RotationProgram(n, full[: n - 1]), 7)
        lead = tuple(PhaseRotation(c, 0) for c in cols[:n]) + full[n:]
        cases[f"rand{n}-dead-lead"] = (RotationProgram(n, lead), 1)
        cases[f"rand{n}-7"] = (RotationProgram(n, full + full[:2]), 7)
    return cases


# SHA-256 of compile_to_unitary(...).to_json() at seed 2 for each case of
# `_unitary_cases` and objective, recorded from the implementation that cut
# the search's winner again and synthesized its operators in a second call:
# synthesizing them in the search's own batch must emit the same bytes
UNITARY_SHA256 = {
    ("ccz-7", "cnot-depth"): "6b6679f6e1e09ecba3e0e68836cd37a82e0077aa381fc380486a571a5d93d1e2",
    ("ccz-7", "cnot-count"): "981215c4fb60155cdc62fad77d28303de864edfdc07cf44de0cc64788a5e8c7e",
    ("ccz-all-dead", "cnot-depth"): "55dc37ea9d717d95fbbf117d90f37d507ecfdd57f0d0cfdda26a22ca04e97909",
    ("ccz-all-dead", "cnot-count"): "55dc37ea9d717d95fbbf117d90f37d507ecfdd57f0d0cfdda26a22ca04e97909",
    ("ccz-dead-lead", "cnot-depth"): "c3dd007e3dcceab8ba036b7cf3e7697d62c9bf4fd6da9715415cd7fac655e9da",
    ("ccz-dead-lead", "cnot-count"): "17a5ed40859d3b724cc01f68029dd02643546adbf8bf2425fa8795e9823892c8",
    ("ccz-dead-lead-7", "cnot-depth"): "c3dd007e3dcceab8ba036b7cf3e7697d62c9bf4fd6da9715415cd7fac655e9da",
    ("ccz-dead-lead-7", "cnot-count"): "17a5ed40859d3b724cc01f68029dd02643546adbf8bf2425fa8795e9823892c8",
    ("ccz-residual", "cnot-depth"): "e484c1301fd431a62a8aa34fdef1642a339d720562749f428b51a99df16b32ae",
    ("ccz-residual", "cnot-count"): "fca24a6a415b19dc2a4020d1cee0d6e00f0fa2c9fc0d349878796f4ef5b1ae00",
    ("cs-7", "cnot-depth"): "ecef016b1f98c31468245e7b5c14c40b90aa4fa26ccd1ac3b99db2b1dd573de9",
    ("cs-7", "cnot-count"): "67648c76f411aa47fc353b65d5fcf0fc5620ed31e2f1bc74fe23601cd81d8450",
    ("cs-all-dead", "cnot-depth"): "55dc37ea9d717d95fbbf117d90f37d507ecfdd57f0d0cfdda26a22ca04e97909",
    ("cs-all-dead", "cnot-count"): "55dc37ea9d717d95fbbf117d90f37d507ecfdd57f0d0cfdda26a22ca04e97909",
    ("cs-dead-lead", "cnot-depth"): "6f9604eb40e7ecdc87d414207d15c9c31ed24e4a16c36593bcbe63051033758c",
    ("cs-dead-lead", "cnot-count"): "730c8a2f0fae792d7c74c62d5740893d6a5c968c0ab0ddbbd1a730f877f3c51b",
    ("cs-dead-lead-7", "cnot-depth"): "6f9604eb40e7ecdc87d414207d15c9c31ed24e4a16c36593bcbe63051033758c",
    ("cs-dead-lead-7", "cnot-count"): "730c8a2f0fae792d7c74c62d5740893d6a5c968c0ab0ddbbd1a730f877f3c51b",
    ("cs-residual", "cnot-depth"): "7301bb63985aa3cddfa7dcc89c99f29912e1b3fb9d5afb595e9f3134a5d3d5ae",
    ("cs-residual", "cnot-count"): "ee704f7104ed3b6db44fa49b494bcacd550548f8c9ca37d9589248f0e98a94aa",
    ("rand2-7", "cnot-depth"): "806afb3b012d0b221b3b560ae5403b0dd2a55ed99fa228c9b0d9389915890879",
    ("rand2-7", "cnot-count"): "806afb3b012d0b221b3b560ae5403b0dd2a55ed99fa228c9b0d9389915890879",
    ("rand2-dead-lead", "cnot-depth"): "a1e1b9995cbf1123442799b45e8abe9b5cbabf51f8a87b05dc707d76fc377136",
    ("rand2-dead-lead", "cnot-count"): "a1e1b9995cbf1123442799b45e8abe9b5cbabf51f8a87b05dc707d76fc377136",
    ("rand2-residual", "cnot-depth"): "83783b74882970cd42edd801d8fcacec337e795811a3567ef44b02b9d0ff59fa",
    ("rand2-residual", "cnot-count"): "83783b74882970cd42edd801d8fcacec337e795811a3567ef44b02b9d0ff59fa",
    ("rand3-7", "cnot-depth"): "f15164da84b54d6ae74cce694bf6af4f1a03829325d1b85f0af20287a26988bc",
    ("rand3-7", "cnot-count"): "f15164da84b54d6ae74cce694bf6af4f1a03829325d1b85f0af20287a26988bc",
    ("rand3-dead-lead", "cnot-depth"): "f958f48f4559ca8c414d97e08762a021025c954c180ab1433a15a77676a37ac5",
    ("rand3-dead-lead", "cnot-count"): "f958f48f4559ca8c414d97e08762a021025c954c180ab1433a15a77676a37ac5",
    ("rand3-residual", "cnot-depth"): "e33b5cc814401d57f440781b251c9c442f5ed3562f69f122743ca2de0e6a7fdb",
    ("rand3-residual", "cnot-count"): "e33b5cc814401d57f440781b251c9c442f5ed3562f69f122743ca2de0e6a7fdb",
    ("rand4-7", "cnot-depth"): "bef3ce3eac287a111f040435c49516c81292b1033aeb641ad66f0f75076e97a5",
    ("rand4-7", "cnot-count"): "2a81af24a08fdd4a2a009d92272c8eac9626e19c0e8f0d09ebb099fd999044e3",
    ("rand4-dead-lead", "cnot-depth"): "85bb5ba98f1ef3b616aa5f065fa878cc24ce4e5fa63c726eb99bf5c6a8fe8dac",
    ("rand4-dead-lead", "cnot-count"): "fc1a05efa20a15c170ade87eef9ebcf897a136c89f32534a9e8c01ac7fd59794",
    ("rand4-residual", "cnot-depth"): "ef4279c594d02e9c01bdeb0702f4b05a41895e12fc3d7caf3310060d1293548c",
    ("rand4-residual", "cnot-count"): "748e450c7a79f1cc2da4311a6e6d729b23f0c136ebe2090cbc41a73240e9fbe2",
    ("rand5-7", "cnot-depth"): "98a9fb197fa3603c86b588e27f8f2b6fbc7ff5bec1b2b573816a04ad6baaf602",
    ("rand5-7", "cnot-count"): "228a6f04a0b7aae5aa4e8f85b37733577f24137f31f73d9baf5b178af0fb1050",
    ("rand5-dead-lead", "cnot-depth"): "d535862dcb8cddb84cc5c8e7119cea047116736008d171e2f6b4cbeab7fdbe02",
    ("rand5-dead-lead", "cnot-count"): "8f86eefdf4d88a84bd5e425c9d1ee24857ec61ab0c1455bd76aa4265147b5b41",
    ("rand5-residual", "cnot-depth"): "6f42e65a8807abbd97ce282b35affc3394a1c753cfc60c13349d72bdb443e6ea",
    ("rand5-residual", "cnot-count"): "372d7c37378720c9d31cd614dc39e281dfe9dd199b9f8f9e3afaf9b1ce3030f8",
    ("rand6-7", "cnot-depth"): "6809a9b97f795bcb7670156ae5b5edf255ea098a088680d3cb11289ea01af2a6",
    ("rand6-7", "cnot-count"): "c076ab3ef38dc3225cdbb410bd3b77202117ca33c3193c2ecff3030c89a9b4de",
    ("rand6-dead-lead", "cnot-depth"): "bc99f5eda9023231c42e3bdf00a8e5996e3378811099241db4238cbaa6458baa",
    ("rand6-dead-lead", "cnot-count"): "0b60f1013bc4ad08a836441955b7334fb0bfa543d077491f2af15bf56a588da5",
    ("rand6-residual", "cnot-depth"): "550ff149b812828188380687c511ddb4c99e0625008c4062a5b8aaa1563a6191",
    ("rand6-residual", "cnot-count"): "550ff149b812828188380687c511ddb4c99e0625008c4062a5b8aaa1563a6191",
    ("t15-7", "cnot-depth"): "4fbb39ec191aaebf3fc20660e4e3461cece10b1fdcad8717386c2685508da29a",
    ("t15-7", "cnot-count"): "20210ec051afc0c8cf9294c99143cbced2eee7a516ce28e05cf4bd0089d02bcf",
    ("t15-all-dead", "cnot-depth"): "815c4bdd87a7cf7a20765db780a5408742e1e0a685ca15de7a2cd0f99f20297e",
    ("t15-all-dead", "cnot-count"): "815c4bdd87a7cf7a20765db780a5408742e1e0a685ca15de7a2cd0f99f20297e",
    ("t15-dead-lead", "cnot-depth"): "bd13435534b1e8251aeb127078405252cbd8f789902265e4f6d7d6bc882d23ca",
    ("t15-dead-lead", "cnot-count"): "bd13435534b1e8251aeb127078405252cbd8f789902265e4f6d7d6bc882d23ca",
    ("t15-dead-lead-7", "cnot-depth"): "bd13435534b1e8251aeb127078405252cbd8f789902265e4f6d7d6bc882d23ca",
    ("t15-dead-lead-7", "cnot-count"): "bd13435534b1e8251aeb127078405252cbd8f789902265e4f6d7d6bc882d23ca",
    ("t15-residual", "cnot-depth"): "787b30c2e5b30d48e4dc066b2576dc9286529266f8d2f6a8e70e4cc8d6eb03c0",
    ("t15-residual", "cnot-count"): "787b30c2e5b30d48e4dc066b2576dc9286529266f8d2f6a8e70e4cc8d6eb03c0",
}


@pytest.mark.parametrize("name, objective", sorted(UNITARY_SHA256))
def test_unitary_edge_cases_pinned(name, objective):
    prog, budget = _unitary_cases()[name]
    text = compile_to_unitary(prog, budget=budget, seed=2, objective=objective).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == UNITARY_SHA256[name, objective]
