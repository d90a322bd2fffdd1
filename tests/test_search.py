"""The compile search against its references in tests/oracles.py.

The greedy synthesizer scores every candidate of a batch of matrices at
once and stops a matrix when it cycles; the ordering loop scores candidates
on plain tuples; the depth table ships as package data, generated from a
Dijkstra search over plain tuples; the circuit is emitted from the gate
list the search scored. Each must return exactly what the plain loops and
the public circuit passes return: same operations, same partition, same
circuit, same table.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rotsynth import programs
from rotsynth.compiler import (
    _EMISSION_SCORES,
    PartitionError,
    _bits,
    _candidate_orderings,
    _carry,
    _cnot_key,
    _depth_table,
    _greedy_batch,
    _greedy_rows,
    _hoisted,
    _inverse,
    _lex_argmin,
    _pack_levels,
    _score_concat,
    _score_maxsum,
    _score_total,
    _table_realization,
    _weights,
    cnot_synthesize,
    compile_program,
    compile_to_unitary,
    expand_reference,
    partition_rotations,
)
from rotsynth.gf2 import BitVec, GF2Matrix, SingularMatrixError, random_invertible, random_matrix
from rotsynth.ir import Circuit, Gate, PhaseRotation, RotationProgram
from rotsynth.semantics import phase_polynomial_of, poly_equal

from oracles import (
    DEPTH_TABLES_COMMAND,
    DEPTH_TABLES_PATH,
    depth_tables_text,
    random_program,
    reference_depth_table,
    reference_greedy_rows,
    reference_invert,
    reference_orderings,
    reference_pack_levels,
    reference_partition_rotations,
)


# rows of a 5x5 matrix on which the maxsum and total greedies cycle
CYCLING_5 = (12, 19, 10, 11, 22)


def _batch_results(us: list[GF2Matrix], score) -> list:
    """`_greedy_batch` of the matrices u^T of one lockstep batch, in the
    form of `reference_greedy_rows`: the rows reached (a permutation, as its
    wire map) and the operations, or None for a matrix that cycles."""
    steps, images, (ops_i, ops_j) = _greedy_batch(_bits(us).swapaxes(1, 2), score)
    return [
        None if size < 0 else ([1 << c for c in wires], list(zip(i[:size], j[:size])))
        for size, wires, i, j in zip(steps.tolist(), images.tolist(), ops_i.tolist(), ops_j.tolist())
    ]


class TestGreedyKernel:
    def test_matches_reference(self):
        rng = random.Random(2024)
        stalls = {score: 0 for score in _EMISSION_SCORES}
        for trial in range(150):
            n = rng.randrange(1, 11)
            u = random_invertible(n, rng.randrange(10**6))
            for score in _EMISSION_SCORES:
                got = _greedy_rows(u, score)
                assert got == reference_greedy_rows(u, score), (trial, n, score.__name__)
                stalls[score] += got is None
        # the cycle exit must be exercised, not only the converging path
        assert sum(stalls.values()) >= 10, stalls

    def test_mixed_batch_matches_reference(self):
        # one lockstep batch of converging and cycling matrices that finish
        # at different steps: each result is the per-matrix reference, so the
        # batch's other contents never change a result; the batch gives each
        # permutation reached as its wire map, the reference as its rows
        rng = random.Random(11)
        us = [random_invertible(5, rng.randrange(10**6)) for _ in range(40)]
        us.append(GF2Matrix(5, 5, CYCLING_5))
        for score in _EMISSION_SCORES:
            want = [reference_greedy_rows(u, score) for u in us]
            assert _batch_results(us, score) == want, score.__name__
            assert len({None if r is None else len(r[1]) for r in want}) > 2
        assert want[-1] is None  # total, as maxsum, cycles on the last matrix

    @pytest.mark.parametrize(
        "score, sizes",
        [(_score_concat, (12, 13)), (_score_maxsum, (9, 10, 11, 12, 13))],
        ids=["concat", "maxsum"],
    )
    def test_multi_digit_keys(self, score, sizes):
        # the sizes where the weights overflow int64 and split into digits,
        # each matrix alone and all in one lockstep batch whose matrices
        # finish at different steps, so that the kept sums are compacted
        # with the batch
        for n in sizes:
            rng = random.Random(n)
            us = [random_invertible(n, rng.randrange(10**6)) for _ in range(4)]
            # the identity is done at once, a near-identity within a few steps
            near = [1 << r for r in range(n)]
            near[-1] ^= 1
            us += [GF2Matrix.identity(n), GF2Matrix(n, n, tuple(near))]
            want = [reference_greedy_rows(u, score) for u in us]
            for u, rows in zip(us, want):
                assert _greedy_rows(u, score) == rows, n
            assert _batch_results(us, score) == want, n
            assert len({None if r is None else len(r[1]) for r in want}) > 2, n
        # one size smaller still fits in one int64 column
        assert _weights(11, 23, range(12, -1, -1)).shape[1] == 1
        assert _weights(12, 25, range(13, -1, -1)).shape[1] > 1
        assert _weights(8, 9, range(18)).shape[1] == 1
        assert _weights(9, 10, range(20)).shape[1] > 1

    def test_digit_keys_order_like_integers(self):
        # scores add signed digits of radix 2^31 without carrying; after
        # `_carry` they must compare like the integers they encode, the
        # first of equal ones winning
        rng = np.random.default_rng(3)
        digits = rng.integers(-(2**33), 2**33, size=(200, 12, 3))
        digits[:, :, 0] = rng.integers(-1, 2, size=(200, 12))  # leading digits tie often
        # equal values in other digits: 2^31 * d0 + d1 = 2^31 * (d0 + 1) + (d1 - 2^31)
        digits[:, 7] = digits[:, 2] + [1, -(2**31), 0]
        values = [[(int(a) << 62) + (int(b) << 31) + int(c) for a, b, c in row] for row in digits]
        got = _lex_argmin(_carry(digits.copy()))
        assert got.tolist() == [row.index(min(row)) for row in values]
        assert any(row[2] == min(row) for row in values)  # the tie is exercised

    def test_one_qubit_and_cycle(self):
        for score in _EMISSION_SCORES:
            assert _greedy_rows(GF2Matrix.identity(1), score) == ([1], [])
        # maxsum and total enter a 2-cycle after one step; concat converges
        u = GF2Matrix(5, 5, CYCLING_5)
        assert _greedy_rows(u, _score_maxsum) is None
        assert _greedy_rows(u, _score_total) is None
        assert _greedy_rows(u, _score_concat) == reference_greedy_rows(u, _score_concat)

    @pytest.mark.parametrize("n", [64, 66])
    def test_near_identity_wide(self, n):
        # rows wider than one machine word load and unpack
        rng = random.Random(n)
        rows = [1 << i for i in range(n)]
        for _ in range(3):
            c, t = rng.sample(range(n), 2)
            rows[t] ^= rows[c]
        u = GF2Matrix(n, n, tuple(rows))
        for score in _EMISSION_SCORES:
            got = _greedy_rows(u, score)
            assert got is not None and got == reference_greedy_rows(u, score), score.__name__

    def test_cycle_check_sees_high_bits(self):
        # operations among qubits 63 to 65 change no bit below 63: the cycle
        # check compares whole rows, so no step looks like a repeated state
        n = 66
        rows = [1 << i for i in range(n)]
        rows[65] ^= rows[64]
        rows[64] ^= rows[63]
        rows[63] ^= rows[65]
        u = GF2Matrix(n, n, tuple(rows))
        for score in _EMISSION_SCORES:
            got = _greedy_rows(u, score)
            assert got is not None and len(got[1]) > 1, score.__name__
            assert got == reference_greedy_rows(u, score), score.__name__

    def test_cnot_synthesize_wraps_concat_greedy(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randrange(1, 9)
            u = random_invertible(n, rng.randrange(10**6))
            rows, ops = reference_greedy_rows(u, _score_concat)
            res = cnot_synthesize(u)
            assert res.perm.rows == tuple(rows)
            assert res.ops == tuple(reversed(ops))


@pytest.mark.parametrize("m", [0, 1, 2, 3, 8, 15, 80])
def test_candidate_orderings_are_stdlib_shuffles(m):
    # the candidate stream is a contract: the program order, then the
    # orderings that random.Random(seed).shuffle makes, one after another
    for seed in (0, 1, 7, 2**40 + 3, -5):
        assert list(_candidate_orderings(m, 25, seed)) == list(reference_orderings(m, 25, seed)), seed
    assert list(_candidate_orderings(m, 1, 3)) == [tuple(range(m))]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_cnot_key_is_the_hoisted_circuits_metric(n):
    # the search scores a candidate from its realized CNOT lists alone; the
    # key must be the CNOT depth or count of the gate list `_hoisted` builds
    # from them, phase gates and relabeling included
    rng = random.Random(n)
    for trial in range(40):
        blocks = rng.randrange(0, 5)
        realized = []
        for _ in range(blocks):
            images = list(range(n))
            rng.shuffle(images)
            cnots = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(3 * n if n > 1 else 1))]
            realized.append((tuple(images), tuple(cnots)))
        layers = [[rng.randrange(8) for _ in range(n)] for _ in range(blocks)]
        gates, _ = _hoisted(layers, realized, n)
        circuit = Circuit(n, tuple(Gate(kind, qubits) for kind, qubits in gates))
        assert _cnot_key(realized, n, True) == circuit.cnot_depth(), trial
        assert _cnot_key(realized, n, False) == circuit.cnot_count(), trial


class TestBatchedKernels:
    @pytest.mark.parametrize("n", list(range(1, 13)) + [64, 66])
    def test_inverse_matches_reference(self, n):
        # one lockstep elimination of invertible and singular matrices:
        # each flag and each inverse as Gauss-Jordan on that matrix alone
        rng = random.Random(n)
        us = [random_invertible(n, rng.randrange(10**6)) for _ in range(6)]
        us += [random_matrix(n, n, rng) for _ in range(10)]
        for u in us[:3]:  # a repeated row, a zero row
            rows = list(u.rows)
            rows[rng.randrange(n)] = rows[0] if n > 1 else 0
            us.append(GF2Matrix(n, n, tuple(rows)))
        us.append(GF2Matrix(n, n, (0,) * n))
        invs, ok = _inverse(_bits(us))
        kinds = set()
        for u, inv, valid in zip(us, invs.tolist(), ok.tolist()):
            try:
                want = reference_invert(u)
            except SingularMatrixError:
                assert not valid
                kinds.add("singular")
                continue
            assert valid
            assert inv == [[(row >> j) & 1 for j in range(n)] for row in want.rows]
            kinds.add("invertible")
        assert kinds == {"invertible", "singular"}

    @pytest.mark.parametrize("n", range(1, 13))
    def test_pack_levels_matches_reference(self, n):
        # lists of 0-60 CNOTs packed together, shorter ones padded on
        # qubit n; the empty list has no level, so depth 0
        rng = random.Random(n)
        lists = [[]] + [
            [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(61))]
            for _ in range(40 if n > 1 else 0)
        ]
        length = max(map(len, lists))
        controls = np.full((len(lists), length), n)
        targets = np.full((len(lists), length), n)
        for v, pairs in enumerate(lists):
            if pairs:
                controls[v, : len(pairs)], targets[v, : len(pairs)] = zip(*pairs)
        levels = _pack_levels(controls, targets, n)
        assert levels.shape == (len(lists), length)
        for v, pairs in enumerate(lists):
            want = reference_pack_levels(pairs)
            assert levels[v, : len(pairs)].tolist() == want
            depth = max(want) + 1 if want else 0
            assert depth == (int(levels[v, : len(pairs)].max()) + 1 if pairs else 0)
        assert _pack_levels(controls[:, :0], targets[:, :0], n).shape == (len(lists), 0)


def _assert_same_search(prog, budget, objective, seed=0, reference=None):
    """compile_program's partition equals the reference loop's, its circuit
    included: the reference emits it by the public circuit passes."""
    want = reference or reference_partition_rotations(
        prog, budget=budget, seed=seed, objective=objective
    )
    got = compile_program(prog, budget=budget, seed=seed, objective=objective)
    assert got.partition == want
    assert got.circuit is got.partition.circuit
    return got.partition


class TestDepthTable:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_reference_dijkstra(self, n):
        _, want = reference_depth_table(n)

        def pack(rows):
            return sum(row << (n * i) for i, row in enumerate(rows))

        # the shipped arrays decoded: every reached state, None for a permutation
        moves, pred, move = _depth_table(n)
        assert pred.dtype == np.int32 and move.dtype == np.int8
        assert pred.shape == move.shape == (1 << (n * n),)
        assert not pred.flags.writeable and not move.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            move[0] = 0
        got = {
            state: None if pred[state] == state else (int(pred[state]), moves[move[state]])
            for state in np.flatnonzero(pred >= 0).tolist()
        }
        assert got == {
            pack(state): None if step is None else (pack(step[0]), step[1])
            for state, step in want.items()
        }
        for state in want:
            layers = []
            start = state
            while want[start] is not None:
                start, move = want[start]
                layers.append(move)
            images = [0] * n
            for row, bits in enumerate(start):
                images[bits.bit_length() - 1] = row
            cnots = tuple(pair for move in reversed(layers) for pair in move)
            assert _table_realization(n, pack(state)) == (tuple(images), cnots)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_singular_state_unreached(self, n):
        # two equal rows: a state the search never reaches
        rng = random.Random(n)
        for _ in range(10):
            rows = list(random_invertible(n, rng.randrange(10**6)).rows)
            i, j = rng.sample(range(n), 2)
            rows[j] = rows[i]
            with pytest.raises(SingularMatrixError):
                _table_realization(n, sum(row << (n * i) for i, row in enumerate(rows)))
        with pytest.raises(SingularMatrixError):
            _table_realization(n, 0)

    def test_shipped_file_is_generated(self):
        # the package-data file is exactly what the reference search writes
        text = DEPTH_TABLES_PATH.read_text()
        assert text == depth_tables_text(), (
            f"{DEPTH_TABLES_PATH.name} is stale; regenerate it with `{DEPTH_TABLES_COMMAND}`"
        )

    def test_oversized_rejected(self):
        with pytest.raises(ValueError, match="up to 4 qubits"):
            _depth_table(5)


class TestPartitionExactness:
    @pytest.mark.parametrize("objective", ["cnot-depth", "cnot-count"])
    @pytest.mark.parametrize("budget", [1, 40, 200, 800])
    def test_ccz_all_plus(self, budget, objective):
        part = _assert_same_search(programs.load("ccz"), budget, objective)
        assert part.orderings_tried == budget

    @pytest.mark.parametrize("objective", ["cnot-depth", "cnot-count"])
    @pytest.mark.parametrize("budget", [1, 40, 200, 800])
    # every compile is for a |+>^n input, which the ids name
    @pytest.mark.parametrize("name", ["cs", "t15"], ids=["all-plus-cs", "all-plus-t15"])
    def test_bundled(self, name, budget, objective):
        _assert_same_search(programs.load(name), budget, objective)

    @pytest.mark.parametrize("objective", ["cnot-depth", "cnot-count"])
    def test_random_programs(self, objective):
        # short programs (m <= 6) have fewer orderings than the budget of 30
        # when m <= 4, so their shuffles repeat; long ones (m >= 9) have more
        rng = random.Random(55)
        short = long = 0
        while short < 6 or long < 6:
            n = rng.randrange(1, 6)
            is_short = short < 6
            m = rng.randrange(1, 7) if is_short else rng.randrange(9, 4 * n + 10)
            prog = random_program(rng, n, m)
            try:
                reference = reference_partition_rotations(
                    prog, budget=30, seed=m, objective=objective
                )
            except PartitionError:  # no valid ordering: both sides must fail
                with pytest.raises(PartitionError):
                    partition_rotations(prog, budget=30, seed=m, objective=objective)
                continue
            _assert_same_search(prog, 30, objective, seed=m, reference=reference)
            if is_short:
                short += 1
            else:
                long += 1


def _residual_or_dead_program(rng: random.Random, n: int, dead: bool) -> RotationProgram:
    """One or two invertible blocks in program order, then (for n > 1) a
    residual of 1 to n - 1 independent supports; with `dead`, the first
    block's exponents are all 0 and most others too."""
    blocks = [random_invertible(n, rng.randrange(10**6)) for _ in range(rng.randrange(1, 3))]
    supports = [u.col(j) for u in blocks for j in range(n)]
    residual = random_invertible(n, rng.randrange(10**6))
    supports += [residual.col(j) for j in range(rng.randrange(1, n) if n > 1 else 0)]
    ks = [0 if dead and (i < n or rng.random() < 0.6) else rng.randrange(8) for i in range(len(supports))]
    return RotationProgram(n, tuple(PhaseRotation(v, k) for v, k in zip(supports, ks)))


@pytest.mark.parametrize("objective", ["cnot-depth", "cnot-count"])
@pytest.mark.parametrize("budget", [1, 7, 40])
def test_residual_and_dead_blocks_match_reference(budget, objective):
    # where the batched cut differs most from one ordering at a time: the
    # padded residual and blocks whose phase layers are all empty
    rng = random.Random(budget)
    seen = {"residual": 0, "dead": 0, "failed": 0}
    for trial in range(16):
        n = 1 + trial // 2
        prog = _residual_or_dead_program(rng, n, dead=trial % 2 == 1)
        try:
            reference = reference_partition_rotations(prog, budget=budget, seed=trial, objective=objective)
        except PartitionError:  # no valid ordering: both sides must fail
            with pytest.raises(PartitionError):
                partition_rotations(prog, budget=budget, seed=trial, objective=objective)
            seen["failed"] += 1
            continue
        part = _assert_same_search(prog, budget, objective, seed=trial, reference=reference)
        seen["residual"] += bool(part.residual)
        blocks = [part.ordering[s : s + n] for s in range(0, len(part.ordering), n)]
        seen["dead"] += any(all(prog.rotations[i].k % 8 == 0 for i in b) for b in blocks)
    assert seen["residual"] >= 8 and seen["dead"] >= 4, seen


@pytest.mark.parametrize("objective", ["cnot-depth", "cnot-count"])
def test_repeats_within_and_across_windows(monkeypatch, objective):
    # 3 and 4 rotations have 6 and 24 orderings, fewer than the budget, so
    # orderings repeat inside a window of 7 and across windows; some are
    # invalid (two equal supports in one block), and a repeat counts as its
    # first occurrence, valid or not
    from rotsynth import compiler

    monkeypatch.setattr(compiler, "_SEARCH_WINDOW", 7)
    programs_ = [
        RotationProgram(2, tuple(PhaseRotation(BitVec.from_string(v), 1) for v in ("10", "10", "01"))),
        RotationProgram(2, tuple(PhaseRotation(BitVec.from_string(v), k)
                                 for v, k in (("10", 1), ("10", 3), ("01", 5), ("11", 0)))),
        RotationProgram(3, tuple(PhaseRotation(BitVec.from_string(v), 7) for v in ("100", "010", "111"))),
    ]
    valid = []
    for prog in programs_:
        m = len(prog.rotations)
        orders = list(compiler._candidate_orderings(m, 40, 0))
        windows = [orders[s : s + 7] for s in range(0, 40, 7)]
        assert any(len(set(w)) < len(w) for w in windows)  # a repeat inside a window
        assert any(o in orders[:s] for s in range(7, 40, 7) for o in orders[s : s + 7])  # and across
        part = _assert_same_search(prog, 40, objective)
        assert part.orderings_tried == 40
        valid.append(part.orderings_valid)
    assert any(0 < v < 40 for v in valid), valid


@pytest.mark.parametrize("objective", ["cnot-depth", "cnot-count"])
def test_search_windows_match_reference(monkeypatch, objective):
    # a budget over several windows: the scores, the tie-break toward the
    # earlier candidate and the counts carry across window boundaries
    from rotsynth import compiler

    monkeypatch.setattr(compiler, "_SEARCH_WINDOW", 7)
    for name in ("ccz", "cs"):
        _assert_same_search(programs.load(name), 40, objective)


def _blocks_program(n: int, seeds: list[int], residual_seed: int, residual: int, ks: list[int]):
    """Invertible blocks in program order, then `residual` independent columns."""
    supports = [random_invertible(n, s).col(j) for s in seeds for j in range(n)]
    supports += [random_invertible(n, residual_seed).col(j) for j in range(residual)]
    rotations = tuple(PhaseRotation(v, ks[i % len(ks)]) for i, v in enumerate(supports))
    return RotationProgram(n, rotations)


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(5, 8),
    seeds=st.lists(st.integers(0, 10**6), min_size=1, max_size=2),
    residual_seed=st.integers(0, 10**6),
    residual=st.integers(0, 4),
    ks=st.lists(st.integers(0, 7), min_size=1, max_size=6),
)
def test_compiled_unitary_equals_reference(n, seeds, residual_seed, residual, ks):
    # n = 5-8 puts every CNOT operator through `_synthesize`'s greedy: the
    # emission variants under cnot-depth, the operator alone under the concat
    # score under cnot-count
    prog = _blocks_program(n, seeds, residual_seed, residual, ks)
    want = phase_polynomial_of(expand_reference(prog))
    for objective in ("cnot-depth", "cnot-count"):
        circuit = compile_to_unitary(prog, budget=1, objective=objective)
        assert poly_equal(phase_polynomial_of(circuit), want), objective
