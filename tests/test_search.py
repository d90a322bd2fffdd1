"""The compile search against its references in tests/oracles.py.

The greedy synthesizer scores every candidate of a batch of matrices at
once and stops a matrix when it cycles; the ordering loop scores candidates
on plain tuples; the depth table is a breadth-first search; the circuit is
emitted from the gate list the search scored. Each must return exactly
what the plain loops and the public circuit passes return: same operations,
same partition, same circuit, same table.
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
    _carry,
    _depth_table,
    _greedy_batch,
    _greedy_rows,
    _lex_argmin,
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
from rotsynth.gf2 import GF2Matrix, SingularMatrixError, random_invertible
from rotsynth.ir import PhaseRotation, RotationProgram
from rotsynth.semantics import phase_polynomial_of, poly_equal

from oracles import (
    random_program,
    reference_depth_table,
    reference_greedy_rows,
    reference_partition_rotations,
)


# rows of a 5x5 matrix on which the maxsum and total greedies cycle
CYCLING_5 = (12, 19, 10, 11, 22)


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
        rows = _bits(us).swapaxes(1, 2)
        for score in _EMISSION_SCORES:
            got = [r and ([1 << c for c in r[0]], r[1]) for r in _greedy_batch(rows, score)]
            want = [reference_greedy_rows(u, score) for u in us]
            assert got == want, score.__name__
            assert len({None if r is None else len(r[1]) for r in want}) > 2
        assert want[-1] is None  # total, as maxsum, cycles on the last matrix

    @pytest.mark.parametrize(
        "score, sizes",
        [(_score_concat, (12, 13)), (_score_maxsum, (9, 10, 11, 12))],
        ids=["concat", "maxsum"],
    )
    def test_multi_digit_keys(self, score, sizes):
        # the sizes where the weights overflow int64 and split into digits
        for n in sizes:
            rng = random.Random(n)
            us = [random_invertible(n, rng.randrange(10**6)) for _ in range(4)]
            for u in us:
                assert _greedy_rows(u, score) == reference_greedy_rows(u, score), n
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

    def test_cnot_synthesize_wraps_concat_greedy(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randrange(1, 9)
            u = random_invertible(n, rng.randrange(10**6))
            rows, ops = reference_greedy_rows(u, _score_concat)
            res = cnot_synthesize(u)
            assert res.perm.rows == tuple(rows)
            assert res.ops == tuple(reversed(ops))


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
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_reference_dijkstra(self, n):
        _, want = reference_depth_table(n)

        def pack(rows):
            return sum(row << (n * i) for i, row in enumerate(rows))

        # the arrays decoded: every reached state, None for a permutation
        moves, pred, move = _depth_table(n)
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
            assert _table_realization(GF2Matrix(n, n, state)) == (tuple(images), cnots)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_singular_state_unreached(self, n):
        # two equal rows: a state the search never reaches
        rng = random.Random(n)
        for _ in range(10):
            rows = list(random_invertible(n, rng.randrange(10**6)).rows)
            i, j = rng.sample(range(n), 2)
            rows[j] = rows[i]
            with pytest.raises(SingularMatrixError):
                _table_realization(GF2Matrix(n, n, tuple(rows)))
        with pytest.raises(SingularMatrixError):
            _table_realization(GF2Matrix(n, n, (0,) * n))

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
