"""Recompilation of rotation programs into minimal-T-depth circuits.

Pipeline: partition the rotations into invertible blocks, realize each block
as CX(U)^-1 (parallel phase layer) CX(U), merge adjacent CNOT operators,
synthesize every merged operator as a qubit permutation followed by few
CNOTs, hoist all permutations to time zero, and absorb the leading
permutation and CNOT operator into state preparation. Every program is
compiled for an all-|+> input, the U|+>^n form of the magic states it
prepares: a permutation or CNOT operator maps |+>^n to itself, so the
leading one is deleted outright.

`_hoisted` runs it on a candidate's blocks, synthesizing only the merged
operators: the search scores its gate list, and the circuit is emitted from
it. The circuit passes below (`parallelize_block`, `merge_adjacent_blocks`,
`hoist_permutations`) are its reference in the tests.

Matrix/gate conventions used throughout (exercised by the oracle tests):
  * CX(M) |e> = |M e> for invertible M over GF(2).
  * A CNOT gate with control c and target t is CX(I + E_{t,c}).
  * A permutation gate with wire map s (content of wire i moves to wire
    s(i)) is CX(P) with P e_i = e_{s(i)}.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .gf2 import BitVec, GF2Matrix, invert, is_invertible, rank
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
    """No sampled ordering produced full-rank blocks."""


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


def _bit_sum(bits: int, by_bit: dict[int, int]) -> int:
    """Sum of by_bit[1 << b] over the set bits b."""
    total = 0
    while bits:
        low = bits & -bits
        total += by_bit[low]
        bits ^= low
    return total


def _col_sums(rows: list[int], n: int) -> list[int]:
    cs = [0] * n
    for r in rows:
        while r:
            low = r & -r
            cs[low.bit_length() - 1] += 1
            r ^= low
    return cs


# The greedy scores below rank every candidate row operation "row j ^= row i"
# without building its column and row sums. A score that compares sorted
# tuples of sums is a comparison of the value histograms of those sums;
# weighting each value by a power of a base larger than any count turns the
# histogram into an integer with the same order, so a candidate's score is
# the change of that integer, summed over the few sums the operation moves.
# Row i's bits change the column sums: +1 where row j lacks the bit, -1
# where it has it; row j's sum becomes popcount(row i ^ row j).


@lru_cache(maxsize=None)
def _powers(base: int, count: int) -> tuple[int, ...]:
    """(base^0, ..., base^(count - 1))."""
    return tuple(base**e for e in range(count))


def _score_concat(rows: list[int], n: int) -> tuple[int, int]:
    """(i, j) minimizing (tuple(sorted(cs + rs)), i, j) after row j ^= row i.

    Ascending sorted tuples of equal length order like their histograms read
    from the smallest value, more copies first: with base = 2n + 1, the sum
    of w[v] = base^(n+1-v) over all 2n sums is larger exactly when the tuple
    is smaller.
    """
    # w[n + 1] and w[-1] enter only terms that cancel or are never read
    w = _powers(2 * n + 1, n + 2)[::-1]
    rs = [r.bit_count() for r in rows]
    cs = _col_sums(rows, n)
    up = [w[c + 1] - w[c] for c in cs]
    upl = {1 << b: x for b, x in enumerate(up)}
    # a bit of row i that row j shares lowers its column sum instead
    dd = {1 << b: w[c - 1] - w[c] - up[b] for b, c in enumerate(cs)}
    best = None
    for i in range(n):
        ri = rows[i]
        gain_i = _bit_sum(ri, upl)
        for j in range(n):
            if i == j:
                continue
            rj = rows[j]
            key = w[rs[j]] - w[(ri ^ rj).bit_count()] - gain_i
            both = ri & rj
            while both:
                low = both & -both
                key -= dd[low]
                both ^= low
            if best is None or key < best:
                best, bi, bj = key, i, j
    return bi, bj


def _score_maxsum(rows: list[int], n: int) -> tuple[int, int]:
    """(i, j) minimizing (tuple(sorted(cs[k] + rs[k], reverse=True)), i, j).

    Descending sorted tuples order like their histograms read from the
    largest value, fewer copies first: with base = n + 1, the sum of
    w[v] = base^v over the n sums s[k] = cs[k] + rs[k] orders them the same
    way.
    """
    # w[2n + 1] and w[-1] enter only terms that cancel or are never read
    w = _powers(n + 1, 2 * n + 2)
    rs = [r.bit_count() for r in rows]
    s = [c + r for c, r in zip(_col_sums(rows, n), rs)]
    up = [w[v + 1] - w[v] for v in s]
    upl = {1 << b: x for b, x in enumerate(up)}
    dd = {1 << b: w[v - 1] - w[v] - up[b] for b, v in enumerate(s)}
    best = None
    for i in range(n):
        ri = rows[i]
        gain_i = _bit_sum(ri, upl)
        for j in range(n):
            if i == j:
                continue
            rj = rows[j]
            key = gain_i
            both = ri & rj
            while both:
                low = both & -both
                key += dd[low]
                both ^= low
            # s[j] moves by its column change (counted above) and its row change
            sj = s[j] + (((ri >> j) & 1) and (1 - 2 * ((rj >> j) & 1)))
            key += w[sj + (ri ^ rj).bit_count() - rs[j]] - w[sj]
            if best is None or key < best:
                best, bi, bj = key, i, j
    return bi, bj


def _score_total(rows: list[int], n: int) -> tuple[int, int]:
    """(i, j) minimizing (sum(cs) + sum(rs), i, j): both sums move by
    popcount(row i ^ row j) - rs[j]."""
    rs = [r.bit_count() for r in rows]
    best = None
    for i in range(n):
        ri = rows[i]
        for j in range(n):
            if i == j:
                continue
            key = (ri ^ rows[j]).bit_count() - rs[j]
            if best is None or key < best:
                best, bi, bj = key, i, j
    return bi, bj


_EMISSION_SCORES = (_score_concat, _score_maxsum, _score_total)


def _greedy_rows(u: GF2Matrix, score) -> tuple[list[int], list[tuple[int, int]]] | None:
    """Greedy row reduction of transpose(u) to a permutation matrix.

    `score` picks the row operation (i, j), row j ^= row i, of each step.
    The greedy is a function of the rows alone, so a repeated row state
    means it cycles: None, as when it hits the cap of 4 n^2 steps.
    """
    n = u.n_rows
    rows = list(u.transpose().rows)
    ops: list[tuple[int, int]] = []
    cap = 4 * n * n
    seen: set[tuple[int, ...]] = set()
    while sum(map(int.bit_count, rows)) != n:
        state = tuple(rows)
        if len(ops) >= cap or state in seen:
            return None
        seen.add(state)
        i, j = score(rows, n)
        rows[j] ^= rows[i]
        ops.append((i, j))
    return rows, ops


def _inverse_map(images: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(images)
    for i, img in enumerate(images):
        out[img] = i
    return tuple(out)


def _emission_variants(u: GF2Matrix):
    """Alternative (wire map, CNOT list) realizations of CX(u).

    Besides the direct greedy under several scores, the same operator can be
    realized from a synthesis of its inverse (run the circuit backwards) or
    of its transpose (reverse the gates with control/target flipped); both
    leave a trailing permutation that is folded back to the front.
    """
    for w, backwards, flip in ((u, False, False), (invert(u), True, False),
                               (u.transpose(), True, True)):
        for score in _EMISSION_SCORES:
            reduced = _greedy_rows(w, score)
            if reduced is None:
                continue
            rows, ops = reduced
            images = tuple(r.bit_length() - 1 for r in rows)
            cnots = [(images[j], images[i]) for i, j in ops]
            if flip:
                cnots = [(t, c) for c, t in cnots]
            if not backwards:
                yield images, tuple(cnots)
                continue
            s_inv = _inverse_map(images)
            yield s_inv, tuple((s_inv[c], s_inv[t]) for c, t in reversed(cnots))


def _pack_cnots(pairs: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """Reorder commuting CNOTs so greedy layering packs them tighter.

    Two CNOTs commute unless one's target is the other's control; gates move
    to the earliest layer compatible with every earlier non-commuting gate.
    """
    layer_of: list[int] = []
    used: list[set[int]] = []
    for idx, (c, t) in enumerate(pairs):
        lo = 0
        for j in range(idx):
            c2, t2 = pairs[j]
            if t == c2 or t2 == c:
                lo = max(lo, layer_of[j] + 1)
        level = lo
        while level < len(used) and (c in used[level] or t in used[level]):
            level += 1
        while len(used) <= level:
            used.append(set())
        used[level] |= {c, t}
        layer_of.append(level)
    order = sorted(range(len(pairs)), key=lambda i: (layer_of[i], i))
    return tuple(pairs[i] for i in order)


def _cnot_layers(pairs) -> int:
    free: dict[int, int] = {}
    depth = 0
    for c, t in pairs:
        layer = max(free.get(c, 0), free.get(t, 0))
        free[c] = free[t] = layer + 1
        depth = max(depth, layer + 1)
    return depth


@lru_cache(maxsize=None)
def _depth_table(n: int) -> dict[int, tuple[int, tuple] | None]:
    """Predecessor map of (depth, count)-optimal realizations of every CX
    operator on n qubits: state -> (previous state, CNOT layer), None for a
    permutation matrix.

    A state packs a matrix into one int, row i in bits n*i to n*i + n - 1.
    Breadth-first search from all permutation matrices; every move is one
    layer of one or two disjoint CNOTs, so a state's depth is its level.
    Each level expands in order of (count, order of discovery), and a state
    keeps the first predecessor that reaches it with the fewest CNOTs.
    Feasible for n <= 4 (|GL(4,2)| = 20160).
    """
    pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
    moves = [(p,) for p in pairs] + [
        (p, q) for a, p in enumerate(pairs) for q in pairs[a + 1 :] if not set(p) & set(q)
    ]
    # each move as indices into `pairs`, whose flips a state computes once
    parts = [tuple(pairs.index(p) for p in move) for move in moves]
    shifts = [(n * c, n * t) for c, t in pairs]
    mask = (1 << n) - 1
    level = [
        sum(1 << (n * row + col) for col, row in enumerate(images))
        for images in permutations(range(n))
    ]
    prev: dict[int, tuple[int, tuple] | None] = dict.fromkeys(level)
    count = dict.fromkeys(level, 0)
    while level:
        found: dict[int, None] = {}  # the next level, in order of discovery
        for state in level:
            base = count[state]
            flip = [((state >> c) & mask) << t for c, t in shifts]
            for move, part in zip(moves, parts):
                nxt = state
                for k in part:
                    nxt ^= flip[k]
                cand = base + len(part)
                if nxt in prev and (nxt not in found or count[nxt] <= cand):
                    continue
                found[nxt] = None
                count[nxt] = cand
                prev[nxt] = (state, move)
        level = sorted(found, key=count.__getitem__)  # stable: ties keep discovery order
    return prev


def _table_realization(u: GF2Matrix) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    n = u.n_rows
    prev = _depth_table(n)
    state = sum(row << (n * i) for i, row in enumerate(u.rows))
    layers = []
    while prev[state] is not None:
        state, move = prev[state]
        layers.append(move)
    layers.reverse()
    # start state is a permutation matrix P with P e_col = e_row
    images = [0] * n
    for row in range(n):
        images[((state >> (n * row)) & ((1 << n) - 1)).bit_length() - 1] = row
    cnots = tuple(pair for move in layers for pair in move)
    return tuple(images), cnots


DEPTH_OPT_LIMIT = 4


@lru_cache(maxsize=65536)
def _realize_cx(u: GF2Matrix, depth_opt: bool) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Wire map + CNOT list realizing CX(u): permutation gates first.

    With depth_opt, operators on up to DEPTH_OPT_LIMIT qubits are realized
    depth-optimally from a precomputed table; larger ones take the best of
    several greedy emission variants. Without it, the canonical synthesis is
    used as is (commutation packing only, which never changes the count); its
    CNOTs are conjugated through the leading permutation.
    """
    if not depth_opt:
        res = cnot_synthesize(u)
        images = tuple(r.bit_length() - 1 for r in res.perm.rows)
        return images, _pack_cnots(tuple((images[j], images[i]) for i, j in reversed(res.ops)))
    if u.n_rows <= DEPTH_OPT_LIMIT:
        return _table_realization(u)
    best = None
    for idx, (images, cnots) in enumerate(_emission_variants(u)):
        packed = _pack_cnots(cnots)
        key = (_cnot_layers(packed), len(packed), idx)
        if best is None or key < best[0]:
            best = (key, images, packed)
    if best is None:
        raise SynthesisStallError("all emission variants stalled")
    return best[1], best[2]


def synthesis_gates(u: GF2Matrix, depth_opt: bool = True) -> tuple[Gate, ...]:
    """Gate realization of CX(u): leading SWAPs then two-qubit CNOTs."""
    images, cnots = _realize_cx(u, depth_opt)
    gates = [Gate("SWAP", pair) for pair in _transpositions(list(images))]
    gates.extend(Gate("CNOT", pair) for pair in cnots)
    return tuple(gates)


def _inverse_gates(gates: tuple[Gate, ...]) -> tuple[Gate, ...]:
    # CNOT and SWAP are self-inverse; reversing the list inverts the block
    return tuple(reversed(gates))


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
    gates.extend(_inverse_gates(forward))
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
    """Rotations regrouped into invertible blocks plus a residual tail."""

    blocks: tuple[GF2Matrix, ...]
    exponent_maps: tuple[tuple[int, ...], ...]
    residual: tuple[PhaseRotation, ...]
    ordering: tuple[int, ...]
    orderings_tried: int
    orderings_valid: int  # candidates whose blocks were all invertible


@dataclass(frozen=True)
class CompileReport:
    circuit: Circuit
    t_depth: int
    cnot_depth: int
    cnot_count: int
    t_count: int
    orderings_tried: int
    orderings_valid: int
    seed: int
    budget: int
    objective: str
    partition: Partition | None


def _pad_residual(residual: list[PhaseRotation], n: int) -> tuple[GF2Matrix, tuple[int, ...]] | None:
    """Extend independent residual supports to a basis with identity columns."""
    if not residual:
        return None
    cols = [r.support for r in residual]
    mat = GF2Matrix.from_cols(cols)
    if rank(mat) != len(cols):
        return None
    ks = [r.k for r in residual]
    for i in range(n):
        if len(cols) == n:
            break
        cand = cols + [BitVec.basis(n, i)]
        if rank(GF2Matrix.from_cols(cand)) == len(cand):
            cols = cand
            ks.append(0)
    if len(cols) != n:
        return None
    return GF2Matrix.from_cols(cols), tuple(ks)


@dataclass(frozen=True)
class _Block:
    """One block of a candidate ordering, CX(u^T)^-1 (phase layer) CX(u^T):
    its matrix u (the padded basis for the residual) and exponents."""

    matrix: GF2Matrix
    exponents: tuple[int, ...]

    @property
    def live(self) -> bool:
        # an empty phase layer contributes CX(M)^-1 CX(M) = identity
        return any(k % 8 for k in self.exponents)

    def pair(self) -> tuple[GF2Matrix, GF2Matrix]:
        """(u^T, (u^T)^-1), the block's CNOT operator and its inverse."""
        fwd = self.matrix.transpose()
        return fwd, invert(fwd)


def _split(p: RotationProgram, order: tuple[int, ...]) -> list[_Block] | None:
    """Cut an ordering into n-blocks and the padded residual; None if any
    block is singular or the residual supports are dependent."""
    n = p.n
    blocks = []
    for start in range(0, len(order), n):
        rots = [p.rotations[i] for i in order[start : start + n]]
        if len(rots) < n:
            pad = _pad_residual(rots, n)
            if pad is None:
                return None
            blocks.append(_Block(*pad))
            continue
        mat = GF2Matrix.from_cols([r.support for r in rots])
        if not is_invertible(mat):
            return None
        blocks.append(_Block(mat, tuple(r.k for r in rots)))
    return blocks


def _hoisted(blocks: list[_Block], n: int, depth_opt: bool, absorb: bool) -> tuple[list, list[int]]:
    """(gates, wire map) of the merged and hoisted circuit of a candidate's
    blocks: (kind, qubits) CNOTs and phase gates in final wire labels, after
    the wire map hoisted to time zero (content of wire i moves to map[i]).

    With live blocks 1..L (non-empty phase layers P_b) the merged circuit is
    CX(M_0) P_1 CX(M_1) ... P_L CX(M_L): M_0 = u_1^T, M_b = u_{b+1}^T
    (u_b^T)^-1, M_L = (u_L^T)^-1. Hoisting M_b's permutation relabels every
    earlier gate, so the walk goes back from M_L composing the wire maps.
    With `absorb` it stops before M_0, which maps |+>^n to itself.
    """
    live = [b for b in blocks if b.live]
    if not live:
        return [], list(range(n))
    pairs = [b.pair() for b in live]
    merged = [pairs[0][0]]
    merged += [fwd @ prev_inv for (fwd, _), (_, prev_inv) in zip(pairs[1:], pairs)]
    merged.append(pairs[-1][1])
    tail = list(range(n))
    runs = []  # the last run first
    for b in reversed(range(1 if absorb else 0, len(merged))):
        images, cnots = _realize_cx(merged[b], depth_opt)
        runs.append([("CNOT", (tail[c], tail[t])) for c, t in cnots])
        tail = [tail[q] for q in images]
        if b:  # P_b, in parallelize_block's order
            runs.append([(kind, (tail[q],)) for q, k in enumerate(live[b - 1].exponents)
                         for kind in EXPONENT_GATES.get(k % 8, ())])
    return [g for run in reversed(runs) for g in run], tail


def _candidate_orderings(m: int, budget: int, seed: int):
    """The program order, then `budget - 1` seeded shuffles."""
    yield tuple(range(m))
    rng = random.Random(seed)
    for _ in range(budget - 1):
        order = list(range(m))
        rng.shuffle(order)
        yield tuple(order)


def partition_rotations(
    p: RotationProgram,
    budget: int = 200,
    seed: int = 0,
    objective: str = "cnot-depth",
) -> Partition:
    """Search orderings of the rotations for the best valid block partition.

    The candidates are the program order and `budget - 1` seeded shuffles,
    whatever the number of rotations, so budget=1 compiles the program order
    as given. Each valid candidate is scored by the chosen objective of the
    gate list that its circuit is emitted from (`_hoisted`, absorbed), and
    ties break toward the earlier candidate.
    """
    if p.n < 1:
        raise PartitionError("need at least one qubit")
    if objective not in ("cnot-depth", "cnot-count"):
        raise ValueError(f"unknown objective {objective!r}")
    m = len(p.rotations)
    if m == 0:
        return Partition((), (), (), (), 0, 0)

    depth_opt = objective == "cnot-depth"
    best = None
    best_key = None
    tried = valid = 0
    for order in _candidate_orderings(m, budget, seed):
        tried += 1
        split = _split(p, order)
        if split is None:
            continue
        valid += 1
        gates, _ = _hoisted(split, p.n, depth_opt, absorb=True)
        cnots = [qubits for kind, qubits in gates if kind == "CNOT"]
        key = _cnot_layers(cnots) if depth_opt else len(cnots)
        if best_key is None or key < best_key:
            best_key = key
            best = (split, order)
    if best is None:
        raise PartitionError(
            f"no valid block partition among {tried} sampled ordering(s) "
            f"(m={m}, n={p.n})"
        )
    split, order = best
    full = split[: m // p.n]
    return Partition(
        tuple(b.matrix for b in full),
        tuple(b.exponents for b in full),
        tuple(p.rotations[i] for i in order[m - m % p.n :]),
        order,
        tried,
        valid,
    )


def _compile(
    p: RotationProgram, budget: int, seed: int, objective: str, absorb: bool
) -> tuple[Partition, Circuit]:
    """Search the partition, then emit its gate list: absorbed into |+>
    preparations, or with the leading operator after the hoisted SWAPs."""
    part = partition_rotations(p, budget=budget, seed=seed, objective=objective)
    gates, wires = _hoisted(_split(p, part.ordering), p.n, objective == "cnot-depth", absorb)
    body = tuple(Gate(kind, qubits) for kind, qubits in gates)
    if absorb:
        return part, eliminate_tdag(absorb_into_prep(Circuit(p.n, body)))
    lead = tuple(Gate("SWAP", pair) for pair in _transpositions(wires))
    return part, Circuit(p.n, lead + body)


def compile_program(
    p: RotationProgram,
    budget: int = 200,
    seed: int = 0,
    objective: str = "cnot-depth",
) -> CompileReport:
    """Full pipeline: partition, synthesize the merged CNOT operators, hoist
    their permutations, absorb into |+> preparations."""
    if not p.rotations:
        circuit = Circuit(p.n)
        return CompileReport(circuit, 0, 0, 0, 0, 0, 0, seed, budget, objective, None)
    part, circuit = _compile(p, budget, seed, objective, absorb=True)
    return CompileReport(
        circuit=circuit,
        t_depth=circuit.t_depth(),
        cnot_depth=circuit.cnot_depth(),
        cnot_count=circuit.cnot_count(),
        t_count=circuit.t_count(),
        orderings_tried=part.orderings_tried,
        orderings_valid=part.orderings_valid,
        seed=seed,
        budget=budget,
        objective=objective,
        partition=part,
    )


def compile_to_unitary(
    p: RotationProgram,
    budget: int = 200,
    seed: int = 0,
    objective: str = "cnot-depth",
) -> Circuit:
    """Pipeline output before preparation absorption: a pure unitary circuit
    operator-equal to the rotation product (useful for exact oracles)."""
    return _compile(p, budget, seed, objective, absorb=False)[1]
