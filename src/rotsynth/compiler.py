"""Recompilation of rotation programs into minimal-T-depth circuits.

Pipeline: partition the rotations into invertible blocks, realize each block
as CX(F)^-1 (parallel phase layer) CX(F), merge adjacent CNOT operators,
synthesize every merged operator as a qubit permutation followed by few
CNOTs, hoist all permutations to time zero, and absorb the leading
permutation and CNOT operator into state preparation. Every program is
compiled for an all-|+> input, the U|+>^n form of the magic states it
prepares: a permutation or CNOT operator maps |+>^n to itself, so the
leading one is deleted outright.

The search holds a window of candidate orderings as numpy tensors from the
cut to synthesis. `_cut` gathers every block of every ordering into one
(orderings x blocks, n, n) tensor of CNOT operators F (rows: the rotation
supports; the residual padded to a basis), and one batched GF(2)
elimination gives each F^-1 and tests it (`_eliminate`). `_merged` forms
the merged operators of the live blocks, M_b = F_{b+1} F_b^-1 with their
inverses, as batched products mod 2: M_1 onward, the operators that
absorption keeps. Those of every valid candidate, in candidate order and
repeats included, are the window's one `_synthesize` call, the same for
every caller. There the greedy row reduction runs in lockstep over the
whole batch (`_greedy_batch`, which keeps the row, column and pairwise
sums it scores from across its steps), every greedy variant of every
operator is packed into layers at once (`_pack_levels`) and ranked on
index arrays, and only each operator's winner becomes Python tuples; under
cnot-depth, operators on up to DEPTH_OPT_LIMIT qubits are read instead
from a depth-optimal table, two flat arrays that the package ships as data
and loads once per process (`_depth_table`). An operator's realization
depends on the operator alone, so a batch gives each operator what it
would get on its own. The search scores each valid candidate from its
realized CNOT lists alone (`_cnot_key`), and `_hoisted` builds one gate
list, the winner's, which is handed over, absorbed, as the compiled
circuit. The winner also carries its leading operator M_0 = F_1, which
absorption deletes: `compile_to_unitary` synthesizes that one operator
after the search and emits the winner with no second cut.
Nothing else is cached between calls. The circuit passes below
(`parallelize_block`, `merge_adjacent_blocks`, `hoist_permutations`) are
its reference in the tests.

Matrix/gate conventions used throughout (exercised by the oracle tests):
  * CX(M) |e> = |M e> for invertible M over GF(2).
  * A CNOT gate with control c and target t is CX(I + E_{t,c}).
  * A permutation gate with wire map s (content of wire i moves to wire
    s(i)) is CX(P) with P e_i = e_{s(i)}.
"""

from __future__ import annotations

import base64
import json
import random
import warnings
import zlib
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import compress, islice, permutations

import numpy as np

from .gf2 import GF2Matrix, SingularMatrixError, invert, is_invertible, rank
from .ir import (
    Circuit,
    CNOT_LIKE_KINDS,
    DIAG1_EXPONENT,
    EXPONENT_GATES,
    Gate,
    PREP_KINDS,
    PhaseRotation,
    RotationProgram,
    phase_gates,
)

class PartitionError(ValueError):
    """No block partition: none exists ("no block partition exists"), or no
    sampled ordering produced one."""


class SynthesisStallError(RuntimeError):
    """Greedy CNOT synthesis exceeded its iteration cap without converging."""


# ---------------------------------------------------------------------------
# CNOT synthesis (greedy row reduction to a permutation matrix)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthesisResult:
    """Permutation matrix plus row operations regenerating transpose(U).

    Applying `ops` in order as row operations (row j ^= row i) to `perm`
    reconstructs transpose(U) exactly.
    """

    perm: GF2Matrix
    ops: tuple[tuple[int, int], ...]


def cnot_synthesize(u: GF2Matrix) -> SynthesisResult:
    """Greedy synthesis of CX(u) into a permutation plus CNOT row operations.

    At each step every ordered pair (i, j), i != j, is scored by the sorted
    concatenation of column and row sums after row j ^= row i; the
    lexicographically smallest (score, i, j) wins. Terminates when the
    working matrix has exactly one 1 per row and column.
    """
    if not is_invertible(u):
        raise ValueError("CNOT synthesis needs an invertible matrix")
    n = u.n_rows
    reduced = _greedy_rows(u, _score_concat)
    if reduced is None:
        raise SynthesisStallError(
            f"greedy row reduction cycles before a permutation (cap {4 * n * n} steps)"
        )
    rows, ops = reduced
    return SynthesisResult(GF2Matrix(n, n, tuple(rows)), tuple(reversed(ops)))


def replay_row_ops(result: SynthesisResult) -> GF2Matrix:
    """Apply the returned ops to the permutation; recovers transpose(U)."""
    rows = list(result.perm.rows)
    for i, j in result.ops:
        rows[j] ^= rows[i]
    return GF2Matrix(result.perm.n_rows, result.perm.n_cols, tuple(rows))


def _transpositions(images: list[int]) -> list[tuple[int, int]]:
    """Transpositions t_1..t_m with t_m o ... o t_1 equal to the wire map."""
    n = len(images)
    swaps: list[tuple[int, int]] = []
    seen = [False] * n
    for start in range(n):
        if seen[start] or images[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        cur = images[start]
        while cur != start:
            cycle.append(cur)
            seen[cur] = True
            cur = images[cur]
        for node in cycle[1:]:
            swaps.append((cycle[0], node))
    return swaps


# The greedy scores rank every candidate row operation "row j ^= row i" of a
# whole batch of matrices at once, without building its column and row sums.
# A score that compares sorted tuples of sums is a comparison of the value
# histograms of those sums; weighting each value by a power of a base larger
# than any count turns the histogram into an integer with the same order, so
# a candidate's score is the change of that integer, summed over the few sums
# the operation moves. Row i's bits change the column sums: +1 where row j
# lacks the bit, -1 where it has it; row j's sum becomes
# popcount(row i ^ row j). A score maps a (B, n, n) 0/1 int64 tensor of rows,
# its row sums rs and column sums cs (B, n) and x = popcount(row i ^ row j)
# (B, n, n) to the (B, n, n, L) keys of every (i, j). L = 1 while a key fits
# in int64; beyond that every weight is split into L digits of radix 2^31,
# most significant first, and digits add separately until `_carry`.

_DIGIT_BITS = 31
_DIGIT_MASK = (1 << _DIGIT_BITS) - 1
_NEVER = np.iinfo(np.int64).max  # a key no candidate reaches


@lru_cache(maxsize=None)
def _weights(n: int, base: int, exponents: range) -> np.ndarray:
    """(len, L) int64 table of w[v] = base^exponents[v] for n x n keys.

    A key adds up at most 2n + 2 weights and differences of weights, so one
    column holds it when (2n + 2) max(w) fits in int64.
    """
    values = [base**e for e in exponents]
    top = max(values)
    if (2 * n + 2) * top < 2**63:
        return np.array(values, dtype=np.int64)[:, None]
    digits = -(-top.bit_length() // _DIGIT_BITS)
    shifts = [_DIGIT_BITS * d for d in reversed(range(digits))]
    return np.array([[(v >> s) & _DIGIT_MASK for s in shifts] for v in values], dtype=np.int64)


def _over_bits(a: np.ndarray, up: np.ndarray, dd: np.ndarray) -> np.ndarray:
    """(B, n, n, L): the sum of up[b] over the set bits b of row i, plus
    dd[b] over those that row j shares, as one product a @ (up + dd a^T)."""
    count, n = a.shape[:2]
    per_j = up[:, :, None] + dd[:, :, None] * a.swapaxes(1, 2)[..., None]  # (B, b, j, L)
    return (a @ per_j.reshape(count, n, -1)).reshape(count, n, n, -1)


def _score_concat(a: np.ndarray, rs: np.ndarray, cs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Keys ordering (tuple(sorted(cs + rs)), i, j) after row j ^= row i.

    Ascending sorted tuples of equal length order like their histograms read
    from the smallest value, more copies first: with base = 2n + 1, the sum
    of w[v] = base^(n+1-v) over all 2n sums is larger exactly when the tuple
    is smaller.
    """
    n = a.shape[1]
    # w[n + 1] and w[-1] enter only terms that cancel or are never read
    w = _weights(n, 2 * n + 1, range(n + 1, -1, -1))
    up = w.take(cs + 1, axis=0) - w.take(cs, axis=0)
    # a bit of row i that row j shares lowers its column sum instead
    dd = w.take(cs - 1, axis=0) - w.take(cs + 1, axis=0)
    return w.take(rs, axis=0)[:, None] - w.take(x, axis=0) - _over_bits(a, up, dd)


def _score_maxsum(a: np.ndarray, rs: np.ndarray, cs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Keys ordering (tuple(sorted(cs[k] + rs[k], reverse=True)), i, j).

    Descending sorted tuples order like their histograms read from the
    largest value, fewer copies first: with base = n + 1, the sum of
    w[v] = base^v over the n sums s[k] = cs[k] + rs[k] orders them the same
    way.
    """
    n = a.shape[1]
    # w[2n + 1] and w[-1] enter only terms that cancel or are never read
    w = _weights(n, n + 1, range(2 * n + 2))
    s = cs + rs
    up = w.take(s + 1, axis=0) - w.take(s, axis=0)
    dd = w.take(s - 1, axis=0) - w.take(s + 1, axis=0)
    # s[j] moves by its column change (counted above) and its row change
    sj = s[:, None, :] + a * (1 - 2 * np.diagonal(a, axis1=1, axis2=2)[:, None, :])
    moved = w.take(sj + x - rs[:, None, :], axis=0) - w.take(sj, axis=0)
    return _over_bits(a, up, dd) + moved


def _score_total(a: np.ndarray, rs: np.ndarray, cs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Keys ordering (sum(cs) + sum(rs), i, j): both sums move by
    popcount(row i ^ row j) - rs[j]."""
    return (x - rs[:, None, :])[..., None]


_EMISSION_SCORES = (_score_concat, _score_maxsum, _score_total)


def _carry(key: np.ndarray) -> np.ndarray:
    """Keys with L > 1 digits carried in place, so that every digit but the
    leading one lies in [0, 2^31) and keys compare digit by digit."""
    for d in range(key.shape[-1] - 1, 0, -1):
        key[..., d - 1] += key[..., d] >> _DIGIT_BITS
        key[..., d] &= _DIGIT_MASK
    return key


def _lex_argmin(key: np.ndarray) -> np.ndarray:
    """Index of the first smallest of the carried (B, P, L) keys along P."""
    if key.shape[2] == 1:
        return key[:, :, 0].argmin(axis=1)
    best = np.ones(key.shape[:2], dtype=bool)
    for d in range(key.shape[2]):
        digit = np.where(best, key[:, :, d], _NEVER)
        best &= digit == digit.min(axis=1, keepdims=True)
    return best.argmax(axis=1)


def _bits(ms: list[GF2Matrix]) -> np.ndarray:
    """(len(ms), r, c) uint8 tensor of r x c matrices: [k, i, j] = ms[k][i, j]."""
    rows, cols = ms[0].shape
    width = (cols + 7) // 8
    raw = b"".join(r.to_bytes(width, "little") for m in ms for r in m.rows)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(ms), rows, width)
    return np.unpackbits(packed, axis=2, count=cols, bitorder="little")


def _index_dtype(top: int) -> np.dtype:
    """The narrowest signed integer type that holds -1..top."""
    return np.min_scalar_type(-1 - top)


def _greedy_batch(a: np.ndarray, score) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy row reduction of each matrix in a (B, n, n) 0/1 tensor of rows
    to a permutation matrix, all matrices in lockstep.

    Each step applies to every unfinished matrix the row operation (i, j),
    row j ^= row i, of the smallest (score, i, j). Returns (steps, images,
    picks): the number of operations of each matrix (B,), its wire map (the
    column of each row's one in the permutation reached, (B, n)) and the
    (i, j) of its operations in order ((2, B, S), -1 past its last, in the
    narrowest type that holds n). The greedy is a function of the rows
    alone, so a state that comes back means a cycle that never reaches a
    permutation: steps -1, as when the cap of 4 n^2 steps is hit. Each state
    is compared with a snapshot taken at the last power-of-two step, which
    catches a cycle within twice its start plus its length.

    An operation changes row j alone, so the row sums, the column sums and
    x = popcount(row i ^ row j) = rs[i] + rs[j] - 2 (a a^T)[i, j] that the
    scores read are built once and kept: a step updates row sum j, the
    column sums on row i's bits, and row and column j of x from the bits
    that the new row j shares with each row, one batched product.
    """
    count, n = a.shape[:2]
    images = np.zeros((count, n), dtype=np.int64)
    index = _index_dtype(n)
    if not n:  # the 0 x 0 matrix is a permutation: empty wire map, no operations
        return np.zeros(count, dtype=np.int64), images, np.zeros((2, count, 0), dtype=index)
    cap = 4 * n * n
    a = a.astype(np.int64)
    rs, cs = a.sum(axis=2), a.sum(axis=1)
    x = rs[:, :, None] + rs[:, None, :] - 2 * (a @ a.swapaxes(1, 2))
    live = np.arange(count)
    steps = np.full(count, -1)
    picks = []  # per step, i * n + j of every matrix still reducing
    snap = a
    step = 0
    while True:
        done = rs.sum(axis=1) == n
        stop = done | (step >= cap)
        if step:
            stop |= (a == snap).all(axis=(1, 2))
        if stop.any():
            steps[live[done]] = step
            images[live[done]] = a[done].argmax(axis=2)
            keep = ~stop
            live, a, snap = live[keep], a[keep], snap[keep]
            if not live.size:
                break
            rs, cs, x = rs[keep], cs[keep], x[keep]
        if step & (step - 1) == 0:
            snap = a.copy()
        # (i, j) in i-major order, as the tie-break; i == j is no operation
        key = _carry(score(a, rs, cs, x)).reshape(live.size, n * n, -1)
        key[:, :: n + 1, 0] = _NEVER
        pick = _lex_argmin(key)
        record = np.full(count, -1)
        record[live] = pick
        picks.append(record)
        # row j ^= row i, then row sum j, the column sums, row and column j of x
        batch = np.arange(live.size)
        i, j = np.divmod(pick, n)
        before = a[batch, j]
        after = before ^ a[batch, i]
        a[batch, j] = after
        cs += after - before
        rs[batch, j] = sums = x[batch, i, j]
        # popcount(row j ^ row k) = rs[j] + rs[k] - 2 (bits they share)
        x[batch, j] = x[batch, :, j] = sums[:, None] + rs - 2 * (a @ after[:, :, None])[:, :, 0]
        step += 1
    if not picks:
        return steps, images, np.zeros((2, count, 0), dtype=index)
    picks = np.stack(picks, axis=1)
    return steps, images, np.where(picks >= 0, np.divmod(picks, n), -1).astype(index)


def _greedy_rows(u: GF2Matrix, score) -> tuple[list[int], list[tuple[int, int]]] | None:
    """Greedy row reduction of transpose(u) to a permutation matrix: its rows
    and the row operations (i, j), row j ^= row i, that `score` picks at
    each step; None if the greedy cycles or hits its cap (see
    `_greedy_batch`).
    """
    steps, images, (ops_i, ops_j) = _greedy_batch(_bits([u]).swapaxes(1, 2), score)
    if steps[0] < 0:
        return None
    ops = zip(ops_i[0, : steps[0]].tolist(), ops_j[0, : steps[0]].tolist())
    return [1 << c for c in images[0].tolist()], list(ops)


def _pack_levels(controls: np.ndarray, targets: np.ndarray, n: int) -> np.ndarray:
    """Layer of each CNOT of many gate lists at once, when commuting gates
    move as early as they can: (V, S) for the (V, S) controls and targets of
    V lists of S gates, where qubit n pads a list and meets no other qubit.

    Two CNOTs commute unless one's target is the other's control; a gate
    takes the earliest layer after every earlier non-commuting gate that
    shares no qubit with a gate already placed there. A packed list's CNOT
    depth is its largest level plus one. The layers in use are always
    0..(largest), so gate s lands at level s or below.
    """
    count, length = controls.shape
    # qubit q of list v is slot v * (n + 1) + q of the flat state
    base = (n + 1) * np.arange(count)[:, None]
    control_at = np.ascontiguousarray((base + controls).T)
    target_at = np.ascontiguousarray((base + targets).T)
    occupied = np.zeros((count * (n + 1), length), dtype=bool)  # [slot, level]
    # levels, in the narrowest type that holds 0..length
    level_type = _index_dtype(length)
    # slot -> first level after every placed gate that it controls / targets
    after_control = np.zeros(count * (n + 1), dtype=level_type)
    after_target = np.zeros(count * (n + 1), dtype=level_type)
    below = np.arange(length)
    levels = np.empty((length, count), dtype=level_type)
    for s in range(length):
        c, t = control_at[s], target_at[s]
        taken = occupied[c, : s + 1] | occupied[t, : s + 1]
        taken |= below[: s + 1] < np.maximum(after_control[t], after_target[c])[:, None]
        level = taken.argmin(axis=1)
        levels[s] = level
        occupied[c, level] = occupied[t, level] = True
        after_control[c] = np.maximum(after_control[c], level + 1)
        after_target[t] = np.maximum(after_target[t], level + 1)
    return levels.T


DEPTH_OPT_LIMIT = 4
_DEPTH_TABLES = "depth_tables.json"  # package data, written by tests/oracles.py


@lru_cache(maxsize=None)
def _depth_table(n: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """(moves, pred, move): read-only predecessor arrays of (depth, count)-
    optimal realizations of every CX operator on n <= DEPTH_OPT_LIMIT qubits.

    A state packs an n x n matrix into one int, row i in bits n*i to
    n*i + n - 1, and indexes the flat arrays of 2^(n^2) entries. pred (int32)
    holds each state's predecessor, a permutation matrix's own state, and -1
    where the search never reached the state (a singular matrix); move
    (int8) holds the index in `moves` of the layer that leads from pred to
    the state, -1 where there is none. A move is one layer of one or two
    disjoint CNOTs, so a state's depth is its level.

    The package ships move for every n in `_DEPTH_TABLES`, zlib-compressed
    and base64-encoded, from a search of all permutation matrices outward
    that keeps for each state its fewest layers, then fewest CNOTs, with
    the ties of the reference search in the tests. Every layer is its own
    inverse, so pred is rebuilt by re-applying each state's layer.
    """
    if n > DEPTH_OPT_LIMIT:
        raise ValueError(f"depth table only up to {DEPTH_OPT_LIMIT} qubits, not {n}")
    pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
    moves = tuple((p,) for p in pairs) + tuple(
        (p, q) for a, p in enumerate(pairs) for q in pairs[a + 1 :] if not set(p) & set(q)
    )
    tables = json.loads(resources.files(__package__).joinpath(_DEPTH_TABLES).read_text())
    packed = base64.b64decode("".join(tables["move"][str(n)]))
    move = np.frombuffer(zlib.decompress(packed), dtype=np.int8)
    pred = np.full(move.size, -1, dtype=np.int32)
    perms = [sum(1 << (n * row + col) for col, row in enumerate(images))
             for images in permutations(range(n))]
    pred[perms] = perms
    reached = np.flatnonzero(move >= 0).astype(np.int32)
    layer_of = move[reached]
    pred[reached] = reached
    for k, layer in enumerate(moves):
        state = reached[layer_of == k]
        for c, t in layer:
            pred[state] ^= ((state >> (n * c)) & ((1 << n) - 1)) << (n * t)
    pred.flags.writeable = move.flags.writeable = False
    return moves, pred, move


def _table_realization(n: int, state: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Wire map + CNOT list of the depth table's realization of the operator
    packed into `state` (row i in bits n*i to n*i + n - 1)."""
    moves, pred, move = _depth_table(n)
    back = pred.item(state)
    if back < 0:
        raise SingularMatrixError("matrix is singular over GF(2)")
    layers = []
    while back != state:
        layers.append(moves[move.item(state)])
        state, back = back, pred.item(back)
    layers.reverse()
    # start state is a permutation matrix P with P e_col = e_row
    images = [0] * n
    for row in range(n):
        images[((state >> (n * row)) & ((1 << n) - 1)).bit_length() - 1] = row
    cnots = tuple(pair for layer in layers for pair in layer)
    return tuple(images), cnots


# operators x n^2 entries reduced in one greedy batch: bounds the tensors of
# a batch, whatever the qubit count
_SYNTHESIS_CELLS = 1 << 15


def _synthesize(ops: np.ndarray, invs: np.ndarray, depth_opt: bool) -> list[tuple]:
    """Wire map + CNOT list realizing CX(u), permutation gates first, for
    each operator u of a (D, n, n) 0/1 uint8 tensor, given with its inverses
    `invs`, any number of them (none included). Under cnot-depth, operators
    on up to DEPTH_OPT_LIMIT qubits are read from the depth-optimal table;
    every other operator gets the best of its greedy variants
    (`_rank_variants`), reduced and ranked _SYNTHESIS_CELLS // n^2
    operators at a time (1310 of five qubits)."""
    count, n = ops.shape[:2]
    if depth_opt and n <= DEPTH_OPT_LIMIT:
        # row i of u in bits n*i to n*i + n - 1
        states = ops.reshape(count, n * n) @ (1 << np.arange(n * n, dtype=np.int64))
        return [_table_realization(n, state) for state in states.tolist()]
    chunk = max(1, _SYNTHESIS_CELLS // (n * n)) if n else max(1, count)
    out = []
    for start in range(0, count, chunk):
        out += _rank_variants(ops[start : start + chunk], invs[start : start + chunk], depth_opt)
    return out


def _rank_variants(ops: np.ndarray, invs: np.ndarray, depth_opt: bool) -> list[tuple]:
    """The best (fewest layers, fewest CNOTs, first) of the greedy variants
    of each operator u, with its commuting CNOTs ordered by layer.

    Under cnot-depth the greedy reduces transpose(w) for each of the forms
    w = u, u^-1, u^T under each emission score; under cnot-count u alone
    under concat. A reduction with wire map s and operations (i, j) realizes
    CX(u), read as (wire map, CNOT list): from u, (s, (s[j], s[i]) in
    order); from u^-1, the circuit run backwards, (s^-1, (j, i) reversed);
    from u^T, the gates reversed with control and target flipped, (s^-1,
    (i, j) reversed). Variant idx = form * (scores) + score. Relabeling the
    qubits keeps a list's layers, so every variant is packed (`_pack_levels`)
    and ranked on the (i, j) index arrays, and only each operator's winner
    is relabeled and becomes Python tuples.
    """
    count, n = ops.shape[:2]
    forms, scores = [ops.swapaxes(1, 2)], (_score_concat,)
    if depth_opt:
        forms += [invs.swapaxes(1, 2), ops]
        scores = _EMISSION_SCORES
    runs = [_greedy_batch(np.concatenate(forms), score) for score in scores]
    # the longest list that reaches a permutation; cycling ones are never read
    length = max(int(run[0].max(initial=0)) for run in runs)
    shape = (len(forms), len(scores), count)  # form, score, operator
    index = _index_dtype(n)  # qubits, -1 and the padding n
    steps = np.empty(shape, dtype=np.int64)
    images = np.empty(shape + (n,), dtype=index)
    ops_i, ops_j = picks = np.full((2,) + shape + (length,), -1, dtype=index)
    for s, (run_steps, run_images, run_picks) in enumerate(runs):
        steps[:, s] = run_steps.reshape(shape[0], count)
        images[:, s] = run_images.reshape(shape[0], count, n)
        width = min(length, run_picks.shape[2])
        picks[:, :, s, :, :width] = run_picks[:, :, :width].reshape(2, shape[0], count, width)
    # the lists before relabeling, from u, u^-1 and u^T: (j, i), (j, i)
    # reversed, (i, j) reversed; a reversed list leads with its padding
    controls = np.concatenate([ops_j[:1], ops_j[1:2, ..., ::-1], ops_i[2:, ..., ::-1]])
    targets = np.concatenate([ops_i[:1], ops_i[1:2, ..., ::-1], ops_j[2:, ..., ::-1]])
    variants = len(forms) * len(scores)
    controls = controls.reshape(variants * count, length)
    targets = targets.reshape(variants * count, length)
    padding = controls < 0
    controls[padding] = targets[padding] = n
    levels = np.where(padding, length, _pack_levels(controls, targets, n))
    levels = levels.reshape(variants, count, length)
    depth = np.where(levels < length, levels + 1, 0).max(axis=2, initial=0).astype(np.int64)
    steps = steps.reshape(variants, count)
    key = (depth * (4 * n * n + 1) + steps) * variants + np.arange(variants)[:, None]
    key[steps < 0] = _NEVER
    win = (key.argmin(axis=0), np.arange(count))
    if (key[win] == _NEVER).any():
        raise SynthesisStallError(
            f"greedy row reduction cycles before a permutation (cap {4 * n * n} steps)"
        )
    images = images.reshape(variants, count, n)[win]
    from_u = (win[0] < len(scores))[:, None]
    wires = np.where(from_u, images, np.argsort(images, axis=1))  # s or s^-1
    # u's wire map relabels its list; column n keeps the padding
    relabel = np.concatenate([np.where(from_u, images, np.arange(n)), np.full((count, 1), n)], 1)
    # the winner's gates by layer, earlier gates first within one layer
    rows = np.arange(count)[:, None]
    order = (win[0][:, None], win[1][:, None], np.argsort(levels[win], axis=1, kind="stable"))
    controls = relabel[rows, controls.reshape(variants, count, length)[order]]
    targets = relabel[rows, targets.reshape(variants, count, length)[order]]
    winners = zip(wires.tolist(), steps[win].tolist(), controls.tolist(), targets.tolist())
    return [
        (tuple(wire_map), tuple(zip(cs[:size], ts[:size]))) for wire_map, size, cs, ts in winners
    ]


def synthesis_gates(u: GF2Matrix, depth_opt: bool = True) -> tuple[Gate, ...]:
    """Gate realization of CX(u): leading SWAPs then two-qubit CNOTs.

    A singular u raises `SingularMatrixError` (a ValueError) under both
    objectives.
    """
    images, cnots = _synthesize(_bits([u]), _bits([invert(u)]), depth_opt)[0]
    gates = [Gate("SWAP", pair) for pair in _transpositions(list(images))]
    gates.extend(Gate("CNOT", pair) for pair in cnots)
    return tuple(gates)


# ---------------------------------------------------------------------------
# block parallelization and reference expansion
# ---------------------------------------------------------------------------


def parallelize_block(u: GF2Matrix, exponents: list[int], depth_opt: bool = True) -> Circuit:
    """Realize a block of independent rotations (supports = columns of u,
    exponent i routed to qubit i) as CX(u), parallel phases, CX(u)^-1."""
    if u.n_rows != u.n_cols:
        raise ValueError("parity matrix must be square")
    if not is_invertible(u):
        raise ValueError("parity matrix must be invertible")
    n = u.n_rows
    if len(exponents) != n:
        raise ValueError("need one exponent per qubit")
    # qubit i must hold the parity (column i of u) . e, i.e. bit i of u^T e
    forward = synthesis_gates(u.transpose(), depth_opt)
    gates = list(forward)
    for q, k in enumerate(exponents):
        gates.extend(phase_gates(k, q))
    # CNOT and SWAP are self-inverse; reversing the list inverts the block
    gates.extend(reversed(forward))
    return Circuit(n, tuple(gates))


def expand_reference(p: RotationProgram) -> Circuit:
    """Baseline expansion of a program into CNOT-conjugated parity gadgets.

    Independent of the optimizing pipeline; used as the reference side of
    equivalence checks.
    """
    gates: list[Gate] = []
    for rot in p.rotations:
        if rot.k % 8 == 0:
            continue
        qs = rot.support.support()
        pivot = qs[-1]
        chain = [Gate("CNOT", (q, pivot)) for q in qs[:-1]]
        gates.extend(chain)
        gates.extend(phase_gates(rot.k, pivot))
        gates.extend(reversed(chain))
    return Circuit(p.n, tuple(gates))


# ---------------------------------------------------------------------------
# circuit passes: merge, hoist, absorb, normal form
# ---------------------------------------------------------------------------


def _linear_matrix(gates: list[Gate], n: int) -> GF2Matrix:
    """Basis action of a CNOT/SWAP run: returns M with run|e> = |M e>."""
    rows = list(GF2Matrix.identity(n).rows)
    for g in gates:
        if g.kind == "CNOT":
            c, t = g.qubits
            rows[t] ^= rows[c]
        else:  # SWAP
            a, b = g.qubits
            rows[a], rows[b] = rows[b], rows[a]
    return GF2Matrix(n, n, tuple(rows))


def merge_adjacent_blocks(c: Circuit, depth_opt: bool = True) -> Circuit:
    """Collapse each maximal CNOT/SWAP run into one synthesized CX operator."""
    out: list[Gate] = []
    run: list[Gate] = []

    def flush():
        if not run:
            return
        m = _linear_matrix(run, c.n)
        if m != GF2Matrix.identity(c.n):
            out.extend(synthesis_gates(m, depth_opt))
        run.clear()

    for g in c.gates:
        if g.kind in CNOT_LIKE_KINDS:
            run.append(g)
        else:
            flush()
            out.append(g)
    flush()
    return Circuit(c.n, tuple(out))


def _compose_maps(outer: list[int], inner: list[int]) -> list[int]:
    """Wire map of (inner first, then outer)."""
    return [outer[inner[i]] for i in range(len(inner))]


def hoist_permutations(c: Circuit) -> Circuit:
    """Move every SWAP to time zero, relabeling the gates they pass through."""
    n = c.n
    tau = list(range(n))
    emitted: list[Gate] = []
    for g in c.gates:
        if g.kind == "SWAP":
            a, b = g.qubits
            swap = list(range(n))
            swap[a], swap[b] = b, a
            emitted = [
                Gate(e.kind, tuple(swap[q] for q in e.qubits), e.record)
                for e in emitted
            ]
            tau = _compose_maps(swap, tau)
        else:
            emitted.append(g)
    lead = [Gate("SWAP", pair) for pair in _transpositions(tau)]
    return Circuit(n, tuple(lead) + tuple(emitted))


def absorb_into_prep(c: Circuit) -> Circuit:
    """Fold the leading permutation, CNOT operator and phase layer into |+>
    preparations.

    Every qubit starts in |+>. SWAPs and CNOTs map |+>^n to itself, so the
    leading run of them is deleted; each qubit's leading run of single-qubit
    phases becomes a magic-state preparation (odd exponents) or |+> and an
    explicit phase gate (even exponents).
    """
    if any(g.kind in PREP_KINDS for g in c.gates):
        warnings.warn("circuit already contains preparations; absorb skipped")
        return c
    n = c.n
    pos = 0
    while pos < len(c.gates) and c.gates[pos].kind in CNOT_LIKE_KINDS:
        pos += 1

    absorbed_k = [0] * n
    started = [False] * n
    rest: list[Gate] = []
    for g in c.gates[pos:]:
        q = g.qubits[0]
        if g.kind in DIAG1_EXPONENT and len(g.qubits) == 1 and not started[q]:
            absorbed_k[q] = (absorbed_k[q] + DIAG1_EXPONENT[g.kind]) % 8
        else:
            for q in g.qubits:
                started[q] = True
            rest.append(g)

    out: list[Gate] = []
    for q, k in enumerate(absorbed_k):
        if k % 2 == 1:
            out.append(Gate("PrepT", (q,)))
            correction = {1: (), 3: ("S",), 5: ("Z",), 7: ("X",)}[k]
            out.extend(Gate(kind, (q,)) for kind in correction)
        else:
            out.append(Gate("PrepPlus", (q,)))
            out.extend(phase_gates(k, q))
    return Circuit(n, tuple(out) + tuple(rest))


def eliminate_tdag(c: Circuit) -> Circuit:
    """Rewrite Tdag as X T X and PrepTdag as PrepT X (phases dropped)."""
    gates: list[Gate] = []
    for g in c.gates:
        if g.kind == "Tdag":
            q = g.qubits[0]
            gates += [Gate("X", (q,)), Gate("T", (q,)), Gate("X", (q,))]
        elif g.kind == "PrepTdag":
            q = g.qubits[0]
            gates += [Gate("PrepT", (q,)), Gate("X", (q,))]
        else:
            gates.append(g)
    return Circuit(c.n, tuple(gates))


# ---------------------------------------------------------------------------
# partitioning and the full pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Rotations regrouped into invertible blocks plus a residual tail, and
    the circuit emitted from them: the merged and hoisted gate list that
    the search scored, absorbed into |+> preparations."""

    blocks: tuple[GF2Matrix, ...]
    exponent_maps: tuple[tuple[int, ...], ...]
    residual: tuple[PhaseRotation, ...]
    ordering: tuple[int, ...]
    orderings_tried: int
    orderings_valid: int  # candidates whose blocks were all invertible
    circuit: Circuit


@dataclass(frozen=True)
class CompileReport:
    circuit: Circuit
    t_depth: int
    cnot_depth: int
    cnot_count: int
    t_count: int
    orderings_tried: int
    orderings_valid: int
    partition: Partition


def _eliminate(a: np.ndarray, columns) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan elimination over GF(2) of every matrix of a (B, r, w) 0/1
    uint8 tensor of rows in lockstep, pivoting on `columns` in the order
    given and moving no row: the reduced rows and the pivot row of each
    column, (B, w), -1 where the column took none."""
    a = a.copy()
    count, r, w = a.shape
    batch = np.arange(count)
    free = np.ones((count, r), dtype=bool)  # rows that hold no pivot yet
    pivots = np.full((count, w), -1)
    for c in columns if r else ():  # no rows, no pivots
        hit = a[:, :, c].view(bool) & free
        row = hit.argmax(axis=1)
        has = hit[batch, row]
        pivot = a[batch, row]
        # the pivot row clears column c from every other row
        clear = a[:, :, c] & has[:, None]
        clear[batch, row] = 0
        a ^= clear[:, :, None] & pivot[:, None, :]
        free[batch, row] &= ~has
        pivots[:, c] = np.where(has, row, -1)
    return a, pivots


def _inverse(ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(F^-1, invertible) of each F in a (B, n, n) 0/1 uint8 tensor: one
    elimination of every [F | I], whose pivot row of column c is row c of
    F^-1; a singular F's inverse is not one."""
    n = ops.shape[1]
    eye = np.broadcast_to(np.eye(n, dtype=np.uint8), ops.shape)
    reduced, pivots = _eliminate(np.concatenate([ops, eye], axis=2), range(n))
    pivots = pivots[:, :n]
    rows = np.maximum(pivots, 0)
    return reduced[np.arange(len(ops))[:, None], rows, n:], (pivots >= 0).all(axis=1)


def _padded(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual supports, a (k, r, n) tensor with r < n, extended to bases:
    (k, n, n) and whether the supports are independent (k,).

    A basis is the supports, then the unit vectors e_i, lowest i first,
    that lie outside the span of the supports and the e_j before them: the
    e_i whose i is the leading (highest) bit of no vector in the span of the
    supports, which are the pivot columns of an elimination from the highest
    column down.
    """
    k, r, n = rows.shape
    leading = _eliminate(rows, range(n - 1, -1, -1))[1] >= 0
    units = np.argsort(leading, axis=1, kind="stable")[:, : n - r]
    pad = np.eye(n, dtype=np.uint8)[units]
    return np.concatenate([rows, pad], axis=1), leading.sum(axis=1) == r


def _cut(p: RotationProgram, orders: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every block of each ordering of a (k, m) array, cut in lockstep:
    (ops, invs, exps, valid).

    A block is CX(F)^-1 (phase layer) CX(F): ops (k, blocks, n, n) holds F,
    whose rows are the rotation supports (the padded basis for the
    residual), invs F^-1 and exps (k, blocks, n) the exponents, 0 on the
    padding; blocks = ceil(m / n). valid (k,) says that every block is
    invertible and the residual supports are independent. One elimination
    inverts every block and tests it.
    """
    n, m = p.n, len(p.rotations)
    full, blocks, count = m - m % n, -(-m // n), len(orders)
    supports = _bits([GF2Matrix(m, n, tuple(r.support.bits for r in p.rotations))])[0][orders]
    exps = np.zeros((count, blocks * n), dtype=np.int64)
    exps[:, :m] = np.array([r.k for r in p.rotations], dtype=np.int64)[orders]
    ops = supports[:, :full].reshape(count, full // n, n, n)
    independent = True
    if full < m:
        residual, independent = _padded(supports[:, full:])
        ops = np.concatenate([ops, residual[:, None]], axis=1)
    invs, invertible = _inverse(ops.reshape(-1, n, n))
    valid = invertible.reshape(count, blocks).all(axis=1) & independent
    return ops, invs.reshape(ops.shape), exps.reshape(count, blocks, n), valid


def _merged(ops: np.ndarray, invs: np.ndarray, exps: np.ndarray) -> tuple[np.ndarray, ...]:
    """The live blocks of cut candidates (non-empty phase layers P_b) and
    the merged CNOT operators of each one's circuit CX(M_0) P_1 CX(M_1) ...
    P_L CX(M_L): M_0 = F_1, M_b = F_{b+1} F_b^-1 (inverse F_b F_{b+1}^-1),
    M_L = F_L^-1.

    Returns (at, merged, merged_inv): at (T,) the flat index (candidate *
    blocks + block) of every live block, candidate by candidate, and the
    (T, n, n) operators M_b after each with their inverses. M_0 is
    F[at[0]] of a candidate's first entry.
    """
    n = ops.shape[-1]
    # an empty phase layer contributes CX(F)^-1 CX(F) = identity
    at = np.flatnonzero((exps % 8 != 0).any(axis=-1))
    ops, invs = ops.reshape(-1, n, n), invs.reshape(-1, n, n)
    owner = at // exps.shape[1]
    last = np.append(owner[1:] != owner[:-1], True)[:, None, None]
    nxt = np.concatenate([at[1:], at[:1]])
    eye = np.eye(n, dtype=np.uint8)
    # uint8 products wrap mod 256, which keeps their parity
    merged = (np.where(last, eye, ops[nxt]) @ invs[at]) & 1
    merged_inv = (ops[at] @ np.where(last, eye, invs[nxt])) & 1
    return at, merged, merged_inv


def _hoisted(exponents: list, realized: list[tuple], n: int) -> tuple[list, list[int]]:
    """(gates, wire map) of the merged and hoisted circuit of a candidate's
    live blocks, given by their `exponents`: (kind, qubits) CNOTs and phase
    gates in final wire labels, after the wire map hoisted to time zero
    (content of wire i moves to map[i]).

    `realized` holds the `_synthesize` of the last merged operators (see
    `_merged`): all of them, or all but M_0, which maps |+>^n to itself and
    is absorbed. Hoisting M_b's permutation relabels every earlier gate, so
    the walk goes back from M_L composing the wire maps.
    """
    tail = list(range(n))
    runs = []  # the last run first
    first = len(exponents) + 1 - len(realized)
    for b in reversed(range(first, len(exponents) + 1)):
        images, cnots = realized[b - first]
        runs.append([("CNOT", (tail[c], tail[t])) for c, t in cnots])
        tail = [tail[q] for q in images]
        if b:  # P_b, in parallelize_block's order
            runs.append([(kind, (tail[q],)) for q, k in enumerate(exponents[b - 1])
                         for kind in EXPONENT_GATES.get(k % 8, ())])
    return [g for run in reversed(runs) for g in run], tail


def _cnot_key(realized: list[tuple], n: int, depth_opt: bool) -> int:
    """The search's key of a candidate: the CNOT depth or count of the gate
    list that `_hoisted` builds from the same `realized` operators, read off
    their CNOT lists alone. Under cnot-count it is the lists' total length.
    Under cnot-depth the walk goes back from M_L relabeling each CNOT
    through the hoisted wire maps, as `_hoisted` does, and layers the CNOTs
    as early as they go in that reversed order: a gate's layer is one past
    the latest of its two qubits, so the deepest layer is the longest chain
    of gates that share a qubit, the same read from either end."""
    if not depth_opt:
        return sum(len(cnots) for _, cnots in realized)
    tail = list(range(n))
    free = [0] * n  # per qubit, the layer after its last CNOT
    for images, cnots in reversed(realized):
        for c, t in reversed(cnots):
            c, t = tail[c], tail[t]
            free[c] = free[t] = max(free[c], free[t]) + 1
        tail = [tail[q] for q in images]
    return max(free, default=0)


def _candidate_orderings(m: int, budget: int, seed: int):
    """The program order, then `budget - 1` seeded shuffles: the orderings
    that random.Random(seed).shuffle makes of list(range(m)), one call after
    another. CPython's shuffle is inlined: from i = m - 1 down to 1 it swaps
    i with j = getrandbits(k) for k = (i + 1).bit_length(), drawing again
    while j > i."""
    yield tuple(range(m))
    getrandbits = random.Random(seed).getrandbits
    swaps = [(i, (i + 1).bit_length()) for i in reversed(range(1, m))]
    for _ in range(budget - 1):
        order = list(range(m))
        for i, k in swaps:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            order[i], order[j] = order[j], order[i]
        yield tuple(order)


# orderings cut before the merged operators of the valid ones are synthesized
# together; bounds the candidates a search holds at once
_SEARCH_WINDOW = 1024


def partition_rotations(
    p: RotationProgram,
    budget: int = 200,
    seed: int = 0,
    objective: str = "cnot-depth",
) -> Partition:
    """Search orderings of the rotations for the best valid block partition.

    The candidates are the program order and `budget - 1` seeded shuffles,
    whatever the number of rotations, so budget=1 compiles the program order
    as given; a budget below 1 raises ValueError. Each valid candidate is
    scored by the chosen objective of the gate list that its circuit is
    emitted from (`_hoisted`, absorbed), read off its synthesized CNOT lists
    without building that list, and ties break toward the earlier
    candidate; the winner's gate list, absorbed into |+> preparations, is
    the partition's circuit. The candidates are cut a window at a time, and
    the merged operators of a window's valid ones are synthesized together
    before any is scored. A repeated ordering is cut and scored again; it
    ties its first occurrence and loses the tie. The empty program, on any
    number of qubits, needs no search: its circuit is n |+> preparations.
    Where no ordering can be valid (an empty support, or supports that span
    fewer than min(m, n) dimensions), it raises "no block partition exists"
    before any search.
    """
    tried, valid, (order, layers, realized, _, _) = _search(p, budget, seed, objective)
    gates, _ = _hoisted(layers, realized, p.n)
    rots = [p.rotations[i] for i in order]
    # the empty program has no blocks, on any number of qubits
    cut = range(0, len(rots) - len(rots) % p.n, p.n) if rots else ()
    blocks = [rots[s : s + p.n] for s in cut]
    return Partition(
        tuple(GF2Matrix.from_cols([r.support for r in block]) for block in blocks),
        tuple(tuple(r.k for r in block) for block in blocks),
        tuple(rots[len(blocks) * p.n :]),
        order,
        tried,
        valid,
        _absorbed(p.n, gates),
    )


def _search(p: RotationProgram, budget: int, seed: int, objective: str):
    """The search of `partition_rotations`: (tried, valid, winner), the
    winner as (ordering, live phase layers, realized, lead, lead_inv).
    realized holds the `_synthesize` of the winner's merged operators 2
    onward (M_1 .. M_L, see `_merged`) for `_hoisted`; lead and lead_inv
    are its M_0 = F_1 and F_1^-1, a (1, n, n) slice of its window's
    tensors, or (0, n, n) when it has no live block. Each window's valid
    candidates have their merged operators synthesized in one call, in
    candidate order, repeats included, and each is scored from its realized
    CNOT lists alone (`_cnot_key`); only the caller builds the winner's gate
    list."""
    if objective not in ("cnot-depth", "cnot-count"):
        raise ValueError(f"unknown objective {objective!r}")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    m = len(p.rotations)
    if m == 0:
        none = np.zeros((0, p.n, p.n), dtype=np.uint8)
        return 0, 0, ((), [], [], none, none)
    if p.n < 1:
        raise PartitionError("need at least one qubit")
    # no ordering can be valid, whatever the budget: blocks of n and the
    # residual need supports that span min(m, n) dimensions
    empty = [i for i, r in enumerate(p.rotations) if not r.support]
    if empty:
        raise PartitionError(f"no block partition exists: rotation {empty[0]} has an "
                             f"empty support, so every block that holds it is singular")
    span = rank(GF2Matrix(m, p.n, tuple(r.support.bits for r in p.rotations)))
    if m < p.n and span < m:
        raise PartitionError(f"no block partition exists: the {m} rotation(s) on {p.n} qubits "
                             f"all form the residual, and their supports are dependent")
    if span < p.n <= m:
        raise PartitionError(f"no block partition exists: the {m} supports span {span} of "
                             f"{p.n} dimensions, so every block of {p.n} is singular")

    depth_opt = objective == "cnot-depth"
    tried = valid = 0
    best = None
    best_key = None
    orderings = _candidate_orderings(m, budget, seed)
    while window := list(islice(orderings, _SEARCH_WINDOW)):
        tried += len(window)
        ops, invs, exps, ok = _cut(p, np.array(window, dtype=np.intp))
        valid += int(ok.sum())
        ops, invs, exps = ops[ok], invs[ok], exps[ok]
        at, merged, merged_inv = _merged(ops, invs, exps)
        realized = _synthesize(merged, merged_inv, depth_opt)
        # the live blocks of valid candidate c are at[bounds[c] : bounds[c + 1]]
        bounds = np.searchsorted(at // exps.shape[1], np.arange(len(exps) + 1)).tolist()
        live = exps.reshape(-1, p.n)[at].tolist()
        for order, lo, hi in zip(compress(window, ok.tolist()), bounds, bounds[1:]):
            key = _cnot_key(realized[lo:hi], p.n, depth_opt)
            if best_key is None or key < best_key:
                best_key = key
                # M_0 is the operator of the candidate's first live block
                lead = at[lo:hi][:1]
                best = (order, live[lo:hi], realized[lo:hi],
                        ops.reshape(-1, p.n, p.n)[lead], invs.reshape(-1, p.n, p.n)[lead])
    if best is None:
        raise PartitionError(
            f"no valid block partition among {tried} sampled ordering(s) "
            f"(m={m}, n={p.n})"
        )
    return tried, valid, best


def _absorbed(n: int, gates: list) -> Circuit:
    """A (kind, qubits) gate list from `_hoisted`, absorbed into |+>
    preparations."""
    body = Circuit(n, tuple(Gate(kind, qubits) for kind, qubits in gates))
    return eliminate_tdag(absorb_into_prep(body))


def compile_program(
    p: RotationProgram,
    budget: int = 200,
    seed: int = 0,
    objective: str = "cnot-depth",
) -> CompileReport:
    """Full pipeline: partition, synthesize the merged CNOT operators, hoist
    their permutations, absorb into |+> preparations. The circuit is the
    one that the partition search scored and emitted."""
    part = partition_rotations(p, budget=budget, seed=seed, objective=objective)
    circuit = part.circuit
    return CompileReport(
        circuit=circuit,
        t_depth=circuit.t_depth(),
        cnot_depth=circuit.cnot_depth(),
        cnot_count=circuit.cnot_count(),
        t_count=circuit.t_count(),
        orderings_tried=part.orderings_tried,
        orderings_valid=part.orderings_valid,
        partition=part,
    )


def compile_to_unitary(
    p: RotationProgram,
    budget: int = 200,
    seed: int = 0,
    objective: str = "cnot-depth",
) -> Circuit:
    """Pipeline output before preparation absorption: a pure unitary circuit
    operator-equal to the rotation product (useful for exact oracles).

    The winner's leading operator, which absorption deletes and the search
    never synthesizes, is synthesized on its own after the search and put
    in front of the winner's realized operators; the hoisted permutation
    leads as SWAPs.
    """
    _, _, (_, layers, realized, lead, lead_inv) = _search(p, budget, seed, objective)
    realized = _synthesize(lead, lead_inv, objective == "cnot-depth") + realized
    gates, wires = _hoisted(layers, realized, p.n)
    swaps = tuple(Gate("SWAP", pair) for pair in _transpositions(wires))
    return Circuit(p.n, swaps + tuple(Gate(kind, qubits) for kind, qubits in gates))
