"""Ground-truth equivalence oracles and the dense executor.

Two independent backends:
  * a canonical parity-phase form for circuits built from X, CNOT, SWAP and
    diagonal gates (exact integer arithmetic, exponents mod 8, global phase
    mod 16 in units of pi/8), and
  * dense statevector simulation for small qubit counts, with projective
    measurement, postselection and classically controlled corrections.

`TrajectoryKernel` is the one dense executor. It runs rows of trajectories
over the live qubits, with every gate as a gather and a multiply on flat
amplitudes. A row draws each measurement outcome from a uniform, or branches
into one row per possible outcome where its uniform is NaN; postselection
drops the branches it does not name. `simulate` is one row that branches
only on postselected measurements, `enumerate_branches` one row that
branches on every measurement, and `unitary_of` composes the gates'
monomials at full width; the fault analyzer runs its faulty trajectories
and its exact branch sums on the same kernel. A Pauli fault enters the
kernel as its Pauli frame: carried forward through the gates it passes, and
applied at the first gate that stops it (see `TrajectoryKernel.frames`). A
caller can walk a row's branches (`BranchTree`) up to any half-step itself
(`TrajectoryKernel.walk`) and start other rows from them (`run`'s `start`),
so that the fault analyzer runs the fault-free prefix of its exact rows
once.

Basis convention: basis index bit q is qubit q (support strings read left
to right); dense states are ndarrays of shape (2,)*n with axis q = qubit q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .gf2 import BitVec, GF2Matrix
from .ir import Circuit, DIAG1_EXPONENT, Gate, MEAS_KINDS, PREP_AMPLITUDES, PREP_KINDS

MAX_DENSE_QUBITS = 12

# parity-phase expansions of the multi-qubit diagonal gates, as
# (exponent, operand subset) terms; subsets index into gate.qubits
_DIAG_EXPANSIONS = {
    "CZ": ((2, (0,)), (2, (1,)), (6, (0, 1))),
    "CS": ((1, (0,)), (1, (1,)), (7, (0, 1))),
    "CCZ": (
        (1, (0,)), (1, (1,)), (1, (2,)),
        (7, (0, 1)), (7, (0, 2)), (7, (1, 2)),
        (1, (0, 1, 2)),
    ),
}


class NotDiagonalizableError(ValueError):
    """Circuit leaves the X + CNOT + SWAP + diagonal fragment."""


class SimulationError(ValueError):
    """Invalid simulation request."""


# ---------------------------------------------------------------------------
# canonical parity-phase form
# ---------------------------------------------------------------------------


@dataclass
class PhasePolynomial:
    """Canonical form: |e> -> w^global * prod_v exp(i pi/4 k_v (v.e)) |Ae + b>,
    with w = exp(i pi / 8)."""

    n: int
    linear: GF2Matrix
    affine: BitVec
    coeffs: dict[BitVec, int] = field(default_factory=dict)
    global_phase: int = 0  # mod 16, units of pi/8


class _PolyBuilder:
    def __init__(self, n: int):
        self.n = n
        self.rows = [1 << i for i in range(n)]  # wire q = parity rows[q] of input
        self.b = 0
        self.coeffs: dict[int, int] = {}
        self.global16 = 0

    def add_term(self, vbits: int, offset: int, k: int):
        k %= 8
        if k == 0:
            return
        if offset:
            # k * (v.e xor 1) == k - k * (v.e): constant k in pi/4 units
            self.global16 = (self.global16 + 2 * k) % 16
            k = (-k) % 8
        if vbits == 0 or k == 0:
            return
        new = (self.coeffs.get(vbits, 0) + k) % 8
        if new:
            self.coeffs[vbits] = new
        else:
            self.coeffs.pop(vbits, None)

    def feed(self, g: Gate):
        if g.kind == "CNOT":
            c, t = g.qubits
            self.rows[t] ^= self.rows[c]
            self.b ^= ((self.b >> c) & 1) << t
        elif g.kind == "SWAP":
            a, bq = g.qubits
            self.rows[a], self.rows[bq] = self.rows[bq], self.rows[a]
            ba, bb = (self.b >> a) & 1, (self.b >> bq) & 1
            self.b ^= (ba ^ bb) << a
            self.b ^= (ba ^ bb) << bq
        elif g.kind == "X":
            self.b ^= 1 << g.qubits[0]
        elif g.kind in DIAG1_EXPONENT:
            q = g.qubits[0]
            self.add_term(self.rows[q], (self.b >> q) & 1, DIAG1_EXPONENT[g.kind])
        elif g.kind in _DIAG_EXPANSIONS:
            for k, subset in _DIAG_EXPANSIONS[g.kind]:
                vbits = 0
                offset = 0
                for s in subset:
                    q = g.qubits[s]
                    vbits ^= self.rows[q]
                    offset ^= (self.b >> q) & 1
                self.add_term(vbits, offset, k)
        else:
            raise NotDiagonalizableError(
                f"{g.kind} is outside the X/CNOT/SWAP/diagonal fragment"
            )

    def result(self) -> PhasePolynomial:
        return PhasePolynomial(
            self.n,
            GF2Matrix(self.n, self.n, tuple(self.rows)),
            BitVec(self.n, self.b),
            {BitVec(self.n, v): k for v, k in self.coeffs.items()},
            self.global16 % 16,
        )


def phase_polynomial_of(c: Circuit) -> PhasePolynomial:
    builder = _PolyBuilder(c.n)
    for g in c.gates:
        builder.feed(g)
    return builder.result()


def _monomial_form(coeffs: dict[BitVec, int]) -> dict[int, int]:
    """Unique multilinear reduction of a parity-phase sum, keyed by subset mask.

    Parity coefficient vectors are not unique mod 8 (for any u, v the
    combination 4[u] + 4[v] + 4[u xor v] vanishes pointwise), but the
    multilinear expansion is: (xor of x_i over S) contributes (-2)^(|T|-1)
    on each nonempty subset T of S, and terms of degree four and higher drop
    mod 8. Comparing these forms decides operator equality exactly.
    """
    mono: dict[int, int] = {}
    for vec, k in coeffs.items():
        qs = vec.support()
        w = len(qs)
        for i in range(w):
            m = 1 << qs[i]
            mono[m] = (mono.get(m, 0) + k) % 8
        for i in range(w):
            for j in range(i + 1, w):
                m = (1 << qs[i]) | (1 << qs[j])
                mono[m] = (mono.get(m, 0) - 2 * k) % 8
        for i in range(w):
            for j in range(i + 1, w):
                for l in range(j + 1, w):
                    m = (1 << qs[i]) | (1 << qs[j]) | (1 << qs[l])
                    mono[m] = (mono.get(m, 0) + 4 * k) % 8
    return {m: v for m, v in mono.items() if v}


def poly_equal(a: PhasePolynomial, b: PhasePolynomial, up_to_global: bool = True) -> bool:
    if a.n != b.n:
        raise NotDiagonalizableError("qubit count mismatch")
    if a.linear != b.linear or a.affine != b.affine:
        return False
    if _monomial_form(a.coeffs) != _monomial_form(b.coeffs):
        return False
    return up_to_global or a.global_phase == b.global_phase


# ---------------------------------------------------------------------------
# dense simulation
# ---------------------------------------------------------------------------


@dataclass
class SimResult:
    state: np.ndarray           # flat, length 2^n; meaningless if not valid
    acceptance: float           # probability of the requested postselection
    outcomes: dict[str, int]
    valid: bool                 # False when a kept outcome had probability below 1e-14


# amplitudes held by one chunk of trajectory rows (1 MiB of complex128)
_CHUNK_AMPLITUDES = 1 << 16
MAX_UNITARY_QUBITS = 10
# flat basis indices of each width, shared by every monomial of that width
_INDEX = tuple(np.arange(1 << k) for k in range(MAX_DENSE_QUBITS + 1))
for _index in _INDEX:  # shared by every monomial and permutation: never written
    _index.flags.writeable = False
# (1, phase) of each diagonal gate, indexed by whether all its qubits are 1
_DIAG_PHASES = {
    kind: np.array([1.0, p], dtype=np.complex128)
    for kind, p in [
        *((kind, np.exp(1j * math.pi * k / 4)) for kind, k in DIAG1_EXPONENT.items()),
        ("CZ", -1.0), ("CS", 1j), ("CCZ", -1.0),
    ]
}
_NO_FRAMES = (np.zeros(0, dtype=np.int64),) * 4
# (-1)^(number of set bits) of every flat index of the widest layout
_PARITY_SIGN = np.ones(1)
for _ in range(MAX_DENSE_QUBITS):
    _PARITY_SIGN = np.concatenate([_PARITY_SIGN, -_PARITY_SIGN])


@lru_cache(maxsize=None)
def _bit(k: int, s: int) -> np.ndarray:
    """Bit s of every flat index of width k."""
    bit = (_INDEX[k] >> s) & 1
    bit.flags.writeable = False
    return bit


def _monomial(g: Gate, axes, k: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """A unitary gate on flat amplitudes of width k as new = old[src] *
    phase; None stands for the identity permutation or unit phases. Axis a
    (the gate's qubits sit on `axes`) is bit k-1-a of the flat index."""
    s = [k - 1 - a for a in axes]
    if g.kind == "X":
        return _INDEX[k] ^ (1 << s[0]), None
    if g.kind == "CNOT":
        return _INDEX[k] ^ (_bit(k, s[0]) << s[1]), None
    if g.kind == "SWAP":
        d = _bit(k, s[0]) ^ _bit(k, s[1])
        return _INDEX[k] ^ ((d << s[0]) | (d << s[1])), None
    if g.kind in _DIAG_PHASES:
        on = _bit(k, s[0])
        for t in s[1:]:
            on = on & _bit(k, t)
        return None, _DIAG_PHASES[g.kind][on]
    raise SimulationError(f"gate {g.kind} is not unitary")


def _compose(steps) -> tuple[np.ndarray | None, np.ndarray | None]:
    """One monomial (src, phase) for a sequence of them, first applied first."""
    src = phase = None
    for h_src, h_phase in steps:
        if h_src is not None:
            src = h_src if src is None else src.take(h_src)
            if phase is not None:
                phase = phase.take(h_src)
        if h_phase is not None:
            phase = h_phase if phase is None else phase * h_phase
    return src, phase


@dataclass
class BranchTree:
    """Rows of trajectories after half-step `h` of a kernel's walk. State
    row i comes from input row alive[i] (ascending), has weight weight[i]
    and holds states[of[i]] (states[i] where `of` is None); `outcomes`
    holds the outcomes of each state, by record."""

    h: int
    alive: np.ndarray
    weight: np.ndarray
    states: np.ndarray
    of: np.ndarray | None
    outcomes: dict[str, np.ndarray]

    @classmethod
    def root(cls, rows: int) -> "BranchTree":
        """`rows` input rows before the first half-step, sharing one empty
        state."""
        return cls(
            -1, np.arange(rows), np.ones(rows), np.ones((1, 1), dtype=np.complex128),
            np.zeros(rows, dtype=np.intp), {},
        )

    def final(self):
        """(alive, weight, the state of each state row, its outcomes by
        record), as `TrajectoryKernel.run` returns them."""
        if self.of is None:
            return self.alive, self.weight, self.states, self.outcomes
        of = self.of
        return self.alive, self.weight, self.states[of], {r: o[of] for r, o in self.outcomes.items()}


class TrajectoryKernel:
    """Dense executor: rows of trajectories through one circuit, held as one
    (rows x 2^w) array over the w live qubits.

    The kernel owns the qubits' lifetimes. A qubit's axis is made at its
    first gate other than a preparation, from its preparation's amplitudes,
    or at the end for a qubit in `keep` that no gate touches; it is dropped
    at a measurement that no later gate reads, unless the qubit is kept.
    Other qubits never get an axis, and the kernel keeps no table for them,
    so a circuit's declared width costs nothing.

    The kernel walks half-steps. Half-step 2p creates the axes born at gate
    p (p = len(gates): the kept qubits no gate touches). Half-step 2p + 1
    applies gate p and drops the axes it ends. New axes go last (least
    significant); dropped ones leave the others in order. The dense cap
    applies to the peak live width.
    """

    def __init__(self, c: Circuit, keep):
        gates = c.gates
        keep = set(keep)
        never = len(gates) + 1
        born: dict[int, int] = {}      # first gate other than a preparation
        dies: dict[int, int] = {}      # the measurement that drops the axis
        prepared: dict[int, int] = {}  # the preparation, and its amplitudes
        amps: dict[int, tuple] = {}
        for pos, g in enumerate(gates):
            if g.kind in PREP_KINDS:
                q = g.qubits[0]
                if q in prepared or q in born:
                    raise SimulationError(f"{g.kind} on qubit {q} after other gates")
                prepared[q], amps[q] = pos, PREP_AMPLITUDES[g.kind]
                continue
            dropped = g.kind in MEAS_KINDS
            for q in g.qubits:
                born.setdefault(q, pos)
                dies[q] = pos if dropped and q not in keep else never
        for q in keep:
            born.setdefault(q, len(gates))
        self.circuit = c
        # the qubits that get an axis, ascending, and their lifetimes
        self._qubits = np.array(sorted(born), dtype=np.int64)
        qubits = self._qubits.tolist()
        self._born = np.array([born[q] for q in qubits], dtype=np.int64)
        self._dies = np.array([dies.get(q, never) for q in qubits], dtype=np.int64)
        self._prepared = np.array([prepared.get(q, -1) for q in qubits], dtype=np.int64)
        self._amps = [amps.get(q, (1.0, 0.0)) for q in qubits]

        # slots in creation order, and which hold an axis after each half-step
        self._order = np.argsort(self._born, kind="stable")
        half = np.arange(2 * len(gates) + 1)[:, None]
        ranked_born, ranked_dies = self._born[self._order], self._dies[self._order]
        self._live = (2 * ranked_born <= half) & (half < 2 * ranked_dies + 1)
        self._width = self._live.sum(axis=1).tolist()
        self.peak = max(self._width)
        if self.peak > MAX_DENSE_QUBITS:
            raise SimulationError(
                f"dense simulation capped at {MAX_DENSE_QUBITS} live qubits, "
                f"the circuit holds {self.peak} at once"
            )
        # axis of each ranked slot after each half-step (-1: none), and the
        # column of each slot in that table
        self._axis = np.where(self._live, np.cumsum(self._live, axis=1) - 1, -1)
        self._col = np.argsort(self._order)
        self._born_at: dict[int, list[int]] = {}
        for i in self._order.tolist():
            self._born_at.setdefault(born[qubits[i]], []).append(i)

        # last half-step of the unitary run starting at each half-step
        self._run_end = [0] * len(half)
        end = len(half) - 1
        for h in range(len(half) - 1, -1, -1):
            if h % 2 and (gates[h // 2].kind in MEAS_KINDS or gates[h // 2].kind == "CondS"):
                end = h - 1
            self._run_end[h] = end
        meas_positions = [i for i, g in enumerate(gates) if g.kind in MEAS_KINDS]
        self._meas_col = {pos: col for col, pos in enumerate(meas_positions)}
        self._runs: dict[tuple[int, int], tuple] = {}  # see _apply_run
        self._tails: dict[frozenset, list[int]] = {}   # see tail_rows

    @property
    def axis_qubits(self) -> list[int]:
        """The qubits that get an axis, ascending."""
        return self._qubits.tolist()

    @property
    def chunk_rows(self) -> int:
        """Rows per chunk, so that one chunk holds `_CHUNK_AMPLITUDES`."""
        return max(1, _CHUNK_AMPLITUDES >> self.peak)

    def acting_qubits(self, pos: int) -> list[int]:
        """The qubits, ascending, on which a Pauli right after gate `pos` has
        an effect (see `run`)."""
        return self._qubits[self._acts(slice(None), pos)].tolist()

    def axis_bit(self, h: int, qubit: int) -> int:
        """The flat index bit of `qubit`'s axis in the layout after
        half-step h, as the masks of `frames` hold it; the qubit must have
        an axis there."""
        axis = self._axis[h, self._col[self._qubits.searchsorted(qubit)]]
        return 1 << (self._width[h] - 1 - int(axis))

    def tail_rows(self, tree: BranchTree, postselect: dict[str, int]) -> int:
        """Rows that `run` may start from the one-row `tree` in one call
        (at least 1) and hold at most `_CHUNK_AMPLITUDES` amplitudes at every
        later half-step, where each NaN row has at most len(tree.alive) times
        2^(measurements since tree.h that `postselect` does not name) state
        rows of 2^(live width) amplitudes."""
        key = frozenset(postselect)
        tail = self._tails.get(key)
        if tail is None:   # the most amplitudes per state row from h on
            tail = self._tails[key] = [0] * len(self._live)
            peak = 0
            for h in range(len(self._live) - 1, -1, -1):
                peak = tail[h] = max(peak, 1 << self._width[h])
                g = self.circuit.gates[h // 2] if h % 2 else None
                if g and g.kind in MEAS_KINDS and g.record not in key:
                    peak *= 2
        return max(1, _CHUNK_AMPLITUDES // (len(tree.alive) * tail[tree.h]))

    def keeps(self, tree: BranchTree, outcome: int) -> bool:
        """Whether `run` keeps some state row of `tree`, walked to right
        before a measurement, with that measurement's `outcome`: whether the
        outcome has probability 1e-14 or more in some state row. `tree` is
        not written."""
        g = self.circuit.gates[tree.h // 2]
        i = self._qubits.searchsorted(g.qubits[0])
        _, origin, _, _, _, _ = _measure_rows(
            tree.states, tree.of, g.kind, self._axis[tree.h, self._col[i]], False,
            np.full(len(tree.alive), np.nan), outcome,
        )
        return len(origin) > 0

    def layout(self, h: int) -> tuple[int, ...]:
        """Live qubits after half-step h, in axis order."""
        return tuple(self._qubits[self._order[self._live[h]]].tolist())

    def permutation(self, first) -> np.ndarray:
        """Gather index that reorders a final state so that the qubits in
        `first` lead, in that order, and the other live qubits follow."""
        final = self.layout(len(self._live) - 1)
        axes = [final.index(q) for q in first]
        axes += [a for a in range(len(final)) if a not in axes]
        return _INDEX[len(final)].reshape((2,) * len(final)).transpose(axes).reshape(-1)

    def run(
        self, uniforms, postselect: dict[str, int] | None = None, frames=_NO_FRAMES,
        start: BranchTree | None = None,
    ):
        """Rows through the whole circuit, one per row of `uniforms`.

        Row i consumes uniforms[i], one value per measurement in circuit
        order. A number in [0, 1) draws the outcome: 1 where it is below the
        outcome's probability. NaN branches the row into one state row per
        outcome, each with its weight multiplied by that outcome's
        probability; the branches stay adjacent, outcome 0 first. A state
        row is dropped when its outcome has probability below 1e-14 or
        differs from the one `postselect` names for its record.

        `frames` (optional) holds Pauli frames as `frames` returns them for
        the faults of these rows: (row, stop, X mask, Z mask), sorted by row
        and then stop. Each acts on every branch of its row after its stop,
        up to a sign that may differ between the branches of a row: a
        global phase of each state row.

        `start` (optional) is a `BranchTree` of one input row, as `walk`
        leaves it. Every row then begins as a copy of its branches after
        half-step start.h, its frames at that stop applied (`_branch`), and
        consumes its uniforms from there on; no frame may stop earlier, and
        `start` is left as it was.

        Returns (input row of each surviving state row, in ascending order;
        their weights; their final states in the final layout; their
        outcomes by record). Each run of half-steps between break points
        (measurements, CondS, the stops of the frames) is one cached gather
        and multiply; dropped rows leave the array at once.

        State rows share states. Until its first stop a row's state depends
        only on its outcomes so far, so the half-steps act on one state per
        distinct outcome history: at a measurement a drawn row takes the
        history that its uniform selects against that state's
        probabilities, a NaN row every branch, and the rows of one state
        that take one outcome share the new state (`_measure_rows`). At its
        first stop a row takes a state of its own (`_fork`).
        """
        postselect = postselect or {}
        row, stop, x, z = frames
        order = np.argsort(stop, kind="stable")   # by stop, rows ascending in each
        row, stop, x, z = row[order], stop[order], x[order], z[order]
        head = np.ones(len(stop), dtype=bool)
        head[1:] = stop[1:] != stop[:-1]
        bounds = np.append(np.flatnonzero(head), len(stop))
        if start is None:
            tree = BranchTree.root(len(uniforms))
        else:
            if len(stop) and stop[0] < start.h:
                raise SimulationError(f"a frame stops at {stop[0]}, before the start {start.h}")
            at = int(stop.searchsorted(start.h, side="right"))
            tree = _branch(start, len(uniforms), row[:at], x[:at], z[:at])
            bounds = bounds[bounds >= at]
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):   # the frames of one stop
            self.walk(tree, uniforms, postselect, int(stop[lo]))
            if not len(tree.alive):
                break
            hit, which = _spread(tree.alive, row[lo:hi])
            which += lo
            tree.states, tree.of, origin = _fork(tree.states, tree.of, hit, x[which], z[which])
            if origin is not None:
                tree.outcomes = {r: o[origin] for r, o in tree.outcomes.items()}
        self.walk(tree, uniforms, postselect)
        return tree.final()

    def walk(self, tree: BranchTree, uniforms, postselect: dict[str, int], to: int | None = None):
        """Advance `tree` in place through half-steps tree.h + 1 .. `to`
        (default: the last), or until no state row is left, as `run` does
        between frame stops: input row i consumes uniforms[i], and
        `postselect` names the kept outcome of its records. A walk to
        tree.h or earlier changes nothing. Where a walk ends, the gathers
        and phases that `_apply_run` composes into one also end."""
        if to is None:
            to = len(self._live) - 1
        gates = self.circuit.gates
        while tree.h < to and len(tree.alive):
            h = tree.h + 1
            g = gates[h // 2] if h % 2 else None   # even half-steps make axes
            kind = g.kind if g else None
            if kind in MEAS_KINDS:
                i = self._qubits.searchsorted(g.qubits[0])
                tree.states, origin, outcome, tree.of, parent, factor = _measure_rows(
                    tree.states, tree.of, kind, self._axis[h - 1, self._col[i]],
                    self._dies[i] == h // 2, uniforms[tree.alive, self._meas_col[h // 2]],
                    postselect.get(g.record),
                )
                tree.alive, tree.weight = tree.alive[parent], tree.weight[parent] * factor
                tree.outcomes = {r: o[origin] for r, o in tree.outcomes.items()}
                tree.outcomes[g.record] = outcome
                tree.h = h
            elif kind == "CondS":
                flip = tree.outcomes[g.record]
                axis = self._axis[h, self._col[self._qubits.searchsorted(g.qubits[0])]]
                view = tree.states.reshape(len(tree.states), 1 << axis, 2, -1)
                view[flip, :, 1] *= _DIAG_PHASES["S"][1]
                tree.h = h
            else:
                tree.h = min(self._run_end[h], to)
                tree.states = self._apply_run(tree.states, h, tree.h)

    def frames(self, row, pos, pauli, qubit):
        """The Pauli frames of inserted Paulis, combined per row and stop,
        as `run` takes them: (row, stop, X mask, Z mask), sorted by row and
        then stop, without the identity. Their product at stop h is X^x Z^z
        after half-step h, the masks over the flat index bits of the layout
        there.

        The insertions are four equal-length integer arrays (row, gate
        position, Pauli index into "XYZ", qubit); each inserts that Pauli
        on that qubit right after that gate (position -1: before the first
        gate). A Pauli before the qubit's preparation (which resets it), at
        or after the measurement that drops its axis, or on a qubit that
        never gets an axis has no effect. Any other is carried forward from
        the first gate that it
        meets. X, Z, CNOT, SWAP, CZ, S and Sdag conjugate it; its Z part
        passes T, Tdag, CS, CCZ and CondS; a measurement drops the part that
        commutes with it. It stops at half-step 2g, before gate g, where g is
        a measurement that anticommutes with it, or a T, Tdag, CS, CCZ or
        CondS that meets its X part, and otherwise at the last half-step.
        Up to a global phase of each branch, the frame there has the
        inserted Pauli's effect.
        """
        row, pos, pauli, qubit = (np.asarray(a, dtype=np.int64) for a in (row, pos, pauli, qubit))
        if not len(row):
            return _NO_FRAMES
        slot = np.minimum(self._qubits.searchsorted(qubit), len(self._qubits) - 1)
        kept = (self._qubits[slot] == qubit) & self._acts(slot, pos)
        touches, table_stop, table_x, table_z = self._frame_table
        first = touches.searchsorted(self._col[slot[kept]] * len(self._live) + pos[kept] + 1)
        i = 3 * first + pauli[kept]
        row, stop, x, z = row[kept], table_stop[i], table_x[i], table_z[i]
        order = np.lexsort((stop, row))
        row, stop, x, z = row[order], stop[order], x[order], z[order]
        head = np.ones(len(row), dtype=bool)   # the first Pauli of each row and stop
        head[1:] = (row[1:] != row[:-1]) | (stop[1:] != stop[:-1])
        firsts = np.flatnonzero(head)
        if len(firsts):
            row, stop = row[firsts], stop[firsts]
            x, z = np.bitwise_xor.reduceat(x, firsts), np.bitwise_xor.reduceat(z, firsts)
        effect = (x | z) != 0
        return row[effect], stop[effect], x[effect], z[effect]

    @cached_property
    def _frame_table(self):
        """The frame of each Pauli by the first gate that it meets: (sorted
        keys col * len(half-steps) + g of each gate g that touches the slot
        in ranked column col, with g = len(gates) ending each column; then
        stop, X mask and Z mask of each key's X, Y and Z, at index 3 * key
        + Pauli). All frames are carried through the gates at once."""
        gates = self.circuit.gates
        end = len(gates)
        met = [
            (self._col[self._qubits.searchsorted(q)], pos)
            for pos, g in enumerate(gates) if g.kind not in PREP_KINDS for q in g.qubits
        ]
        met += [(col, end) for col in range(len(self._qubits))]
        col, first = np.array(met, dtype=np.int64).reshape(-1, 2).T
        touches = col * len(self._live) + first
        by_key = np.argsort(touches, kind="stable")
        by_gate = np.argsort(first, kind="stable")   # frames that met gate g: a prefix
        # frame rows in gate order, three per touch: X, Y, Z on its column
        rows = 3 * len(met)
        on = col[by_gate].repeat(3)
        pauli = np.tile(np.arange(3), len(met))
        x = np.zeros((rows, len(self._qubits)), dtype=bool)
        z = np.zeros_like(x)
        x[np.arange(rows), on] = pauli != 2
        z[np.arange(rows), on] = pauli != 0
        stop = np.full(rows, 2 * end)
        stopped = np.zeros(rows, dtype=bool)
        out_x, out_z = np.zeros_like(x), np.zeros_like(z)
        started = 3 * first[by_gate].searchsorted(np.arange(end), side="right")
        for pos, g in enumerate(gates):
            k = started[pos]
            if not k or g.kind in PREP_KINDS or g.kind in ("X", "Z"):
                continue
            a = self._col[self._qubits.searchsorted(g.qubits)]
            gx, gz = x[:k], z[:k]
            if g.kind == "CNOT":
                gx[:, a[1]] ^= gx[:, a[0]]
                gz[:, a[0]] ^= gz[:, a[1]]
            elif g.kind == "SWAP":
                gx[:, a] = gx[:, a[::-1]]
                gz[:, a] = gz[:, a[::-1]]
            elif g.kind in ("S", "Sdag"):
                gz[:, a[0]] ^= gx[:, a[0]]
            elif g.kind == "CZ":
                gz[:, a[0]] ^= gx[:, a[1]]
                gz[:, a[1]] ^= gx[:, a[0]]
            else:  # a measurement, or T, Tdag, CS, CCZ or CondS
                blocking = gz if g.kind == "MeasX" else gx
                hit = np.flatnonzero(blocking[:, a].any(axis=1) & ~stopped[:k])
                stop[hit], out_x[hit], out_z[hit], stopped[hit] = 2 * pos, gx[hit], gz[hit], True
                if g.kind in MEAS_KINDS:  # the commuting part acts as a phase
                    (gx if g.kind == "MeasX" else gz)[:, a[0]] = False
        out_x[~stopped], out_z[~stopped] = x[~stopped], z[~stopped]
        # masks over the flat index bits at the stop; a column without an
        # axis there only occurs in frames no insertion looks up
        axes = self._axis[stop]
        bit = np.where(axes >= 0, np.left_shift(1, np.array(self._width)[stop, None] - 1 - axes), 0)
        key_rank = by_key.argsort()[by_gate]
        table = [np.zeros(rows, dtype=np.int64) for _ in range(3)]
        for t, values in zip(table, (stop, (out_x * bit).sum(axis=1), (out_z * bit).sum(axis=1))):
            t.reshape(-1, 3)[key_rank] = values.reshape(-1, 3)
        return (touches[by_key], *table)

    def _acts(self, slot, pos):
        """The qubit in `slot` is prepared by gate `pos`, and not dropped yet."""
        return (self._prepared[slot] <= pos) & (pos < self._dies[slot])

    def _half_step(self, h: int) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Half-step h (an axis creation or a unitary gate) as a monomial
        from the layout before it to the layout after it."""
        if h % 2:
            g = self.circuit.gates[h // 2]
            if g.kind in PREP_KINDS:  # its amplitudes enter when the axis is made
                return None, None
            axes = self._axis[h - 1, self._col[self._qubits.searchsorted(g.qubits)]].tolist()
            return _monomial(g, axes, self._width[h - 1])
        new = self._born_at.get(h // 2)
        if not new:
            return None, None
        idx = _INDEX[self._width[h]]
        phase = None
        for j, i in enumerate(new):
            amps = np.array(self._amps[i], dtype=np.complex128)[(idx >> (len(new) - 1 - j)) & 1]
            phase = amps if phase is None else phase * amps
        return idx >> len(new), phase

    def _apply_run(self, states: np.ndarray, start: int, end: int) -> np.ndarray:
        """Half-steps start..end (axis creations and unitary gates) on every
        row; the result has the width of the layout after `end`."""
        run = self._runs.get((start, end))
        if run is None:
            src, phase = _compose(self._half_step(h) for h in range(start, end + 1))
            # a run never narrows the state, so an identity gather keeps its width
            if src is not None and np.array_equal(src, _INDEX[len(src).bit_length() - 1]):
                src = None
            run = self._runs[(start, end)] = (src, phase)
        src, phase = run
        if src is not None:
            states = np.take(states, src, axis=1)
        if phase is not None:
            states *= phase
        return states


def _spread(alive, row):
    """Frames on state rows: each frame applies to every state row of its
    input row (`alive`, ascending, holds the input row of each state row).
    Returns (state row, frame) of each hit."""
    lo = alive.searchsorted(row)
    count = alive.searchsorted(row, side="right") - lo
    which = np.arange(len(row)).repeat(count)
    return lo[which] + np.arange(len(which)) - (count.cumsum() - count)[which], which


def _branch(start: BranchTree, rows: int, row, x, z) -> BranchTree:
    """`rows` input rows that each begin with the branches of the one-row
    tree `start`, with X^x Z^z on every branch of input row row[i] (rows
    ascending, each at most once). The rows hit get states of their own;
    the others share copies of the states of `start`, which is not
    written."""
    n, w = len(start.alive), start.states.shape[1]
    of = np.arange(n) if start.of is None else start.of
    held = start.states if start.of is None else start.states[of]
    moved = _INDEX[w.bit_length() - 1] ^ x[:, None]
    forked = np.empty((len(row), n, w), dtype=np.complex128)
    # (branch, row, amplitude) gathered, then signed into (row, branch, amplitude)
    np.multiply(
        np.take(held, moved, axis=1).transpose(1, 0, 2),
        _PARITY_SIGN[moved & z[:, None]][:, None, :], out=forked,
    )
    forked = forked.reshape(-1, w)
    outcomes = {r: np.tile(o[of], len(row)) for r, o in start.outcomes.items()}
    if len(row) == rows:
        return BranchTree(
            start.h, np.arange(rows).repeat(n), np.tile(start.weight, rows), forked, None, outcomes,
        )
    shared = np.tile(of, rows).reshape(rows, n)
    shared[row] = len(start.states) + np.arange(len(forked)).reshape(len(row), n)
    return BranchTree(
        start.h, np.arange(rows).repeat(n), np.tile(start.weight, rows),
        np.concatenate([start.states, forked]), shared.reshape(-1),
        {r: np.concatenate([o, outcomes[r]]) for r, o in start.outcomes.items()},
    )


def _fork(states, of, rows, x, z):
    """X^x Z^z on the state of each state row in `rows`, x and z masks over
    the flat index bits; `of` maps state rows to the states they hold (None:
    row i holds state i). Where each of these rows alone holds its state,
    the states change in place. Otherwise each row gets a new state, in the
    slot of a state that no row holds any more or else at the end; a state
    left without rows is dropped at the next measurement. Returns (states,
    of, the old state of each slot's state, or None where none moved)."""
    src = rows if of is None else of[rows]
    moved = _INDEX[states.shape[1].bit_length() - 1] ^ x[:, None]
    forked = states[src[:, None], moved] * _PARITY_SIGN[moved & z[:, None]]
    held = None if of is None else np.bincount(of, minlength=len(states))
    if held is None or (held[src] == 1).all():
        states[src] = forked
        return states, of, None
    free = np.flatnonzero(np.bincount(src, minlength=len(states)) == held)[: len(rows)]
    grow = len(rows) - len(free)
    slot = np.concatenate([free, len(states) + np.arange(grow)])
    origin = np.arange(len(states) + grow)
    origin[slot] = src
    if grow:
        states = np.concatenate([states, np.empty((grow, states.shape[1]), states.dtype)])
    states[slot] = forked
    of[rows] = slot
    return states, of, origin


def _sum_sq(a: np.ndarray) -> np.ndarray:
    """Per-row squared norm of a C-contiguous (rows x ...) complex array."""
    f = a.view(np.float64).reshape(len(a), -1)
    return np.einsum("ij,ij->i", f, f)


def _measure_rows(states, of, kind: str, axis: int, drop: bool, uniforms: np.ndarray, expected):
    """Measure the qubit at `axis` on state rows that share the states of a
    (states x 2^k) array: row i holds states[of[i]] (states[i] where `of` is
    None) and consumes uniforms[i]. A row whose uniform is NaN becomes two
    children, outcome 0 then 1; any other row one child, outcome 1 where its
    uniform is below that outcome's probability. A child is dropped when its
    outcome has probability below 1e-14 or differs from `expected` (None:
    any). The children of one state with one outcome share one new state:
    with `drop` it keeps only the measured slice (width k-1), else it is
    projected at full width. Returns (the new states; the old state and the
    outcome of each; the new state of each child, None where child i holds
    state i; the row each child comes from; its weight factor: the
    outcome's probability for a branch, 1 for a drawn outcome)."""
    n, width = states.shape
    view = states.reshape(n, 1 << axis, 2, -1)
    split = np.isnan(uniforms)
    # an outcome's probability is needed where a child with it may be kept,
    # and p1 where a row draws its outcome; an unneeded one reads 0
    need = (expected != 1, expected != 0 or not split.all())
    p0 = p1 = np.zeros(n)
    if kind == "MeasZ":
        fv = states.view(np.float64).reshape(n, 1 << axis, 2, -1)
        if need[0]:
            p0 = np.einsum("ijk,ijk->i", fv[:, :, 0], fv[:, :, 0])
        if need[1]:
            p1 = np.einsum("ijk,ijk->i", fv[:, :, 1], fv[:, :, 1])
    else:  # MeasX, outcome 0 = |+>; p = |a0 +- a1|^2 / 2
        if need[0]:
            plus = view[:, :, 0] + view[:, :, 1]
            p0 = _sum_sq(plus) / 2.0
        if need[1]:
            minus = view[:, :, 0] - view[:, :, 1]
            p1 = _sum_sq(minus) / 2.0
    parent = np.arange(len(uniforms))
    state = parent if of is None else of
    # NaN compares False: a split row's first child; its second, outcome 1,
    # goes right after it
    outcome = uniforms < (p1 if of is None else p1[of])
    if split.any():
        parent = parent.repeat(1 + split)
        outcome = outcome.repeat(1 + split)
        outcome[(1 + split).cumsum()[split] - 1] = True
        state, split = state[parent], split[parent]
    prob = np.where(outcome, p1[state], p0[state])
    keep = prob >= 1e-14
    if expected is not None:
        keep &= outcome == expected
    if not keep.all():
        parent, state, outcome, prob, split = (
            a[keep] for a in (parent, state, outcome, prob, split)
        )
    factor = np.where(split, prob, 1.0)
    if of is not None:   # the children of one state with one outcome share a state
        pair = 2 * state + outcome
        of = None
        if not (pair[1:] > pair[:-1]).all():
            taken = np.zeros(2 * n, dtype=bool)
            taken[pair] = True
            of = (np.cumsum(taken) - 1)[pair]
            pair = np.flatnonzero(taken)
            state, outcome = pair >> 1, (pair & 1).astype(bool)
            prob = np.where(outcome, p1[state], p0[state])
    new = len(state)
    if kind == "MeasZ":
        inv = 1.0 / np.sqrt(np.maximum(prob, 1e-300))
        if drop:   # in place: `gathered * inv` would take numpy's slow path
            states = view[state, :, outcome.astype(np.intp)]
            np.multiply(states, inv[:, None, None], out=states)
        else:
            scale = np.zeros((new, 2))
            scale[np.arange(new), outcome.astype(np.intp)] = inv
            states = states[state]
            view = states.reshape(new, 1 << axis, 2, width >> axis + 1)
            view *= scale[:, None, :, None]
    else:
        if not need[0]:   # every kept child has outcome 1
            comp = minus[state]
        elif not outcome.any() and np.array_equal(state, np.arange(n)):   # plus is this call's own
            comp = plus
        else:
            comp = plus[state]
            if outcome.any():
                comp[outcome] = minus[state[outcome]]
        if drop:  # the rest of the state, (a0 +- a1) / sqrt(2 prob)
            comp *= (1.0 / np.sqrt(np.maximum(2.0 * prob, 1e-300)))[:, None, None]
            states = comp
        else:
            comp *= (0.5 / np.sqrt(np.maximum(prob, 1e-300)))[:, None, None]
            second = comp.copy()
            second[outcome] = -comp[outcome]
            states = np.stack([comp, second], axis=2)
    states = states.reshape(new, width // 2 if drop else width)
    return states, state, outcome, of, parent, factor


# ---------------------------------------------------------------------------
# dense oracles on the kernel
# ---------------------------------------------------------------------------


def _dense_kernel(c: Circuit, postselect: dict[str, int] | None) -> TrajectoryKernel:
    if c.n > MAX_DENSE_QUBITS:
        raise SimulationError(
            f"dense simulation capped at {MAX_DENSE_QUBITS} qubits, the circuit has {c.n}"
        )
    missing = set(postselect or ()) - set(c.records())
    if missing:
        raise SimulationError(f"postselected records not in circuit: {sorted(missing)}")
    return TrajectoryKernel(c, range(c.n))


def _results(
    kernel: TrajectoryKernel, uniforms: np.ndarray, postselect: dict[str, int] | None
) -> list[SimResult]:
    """Full-width rows of `uniforms` through the kernel, in qubit order."""
    alive, weight, states, outcomes = kernel.run(uniforms, postselect)
    if not len(alive):
        return []
    states = states[:, kernel.permutation(range(kernel.circuit.n))]
    return [
        SimResult(states[i], float(weight[i]), {r: int(o[i]) for r, o in outcomes.items()}, True)
        for i in range(len(alive))
    ]


def simulate(c: Circuit, postselect: dict[str, int] | None = None, seed: int = 0) -> SimResult:
    """Run one trajectory: preps, unitaries, measurements, classical control.

    Records named in `postselect` are projected onto the requested outcome
    (acceptance is the product of their probabilities); the other
    measurements are sampled, in circuit order, from
    `numpy.random.default_rng(seed)`. The result is invalid when a kept
    outcome has probability below 1e-14.
    """
    kernel = _dense_kernel(c, postselect)
    drawn = np.array([r not in (postselect or {}) for r in c.records()], dtype=bool)
    uniforms = np.full(len(drawn), np.nan)   # postselected: branch, keep one
    if drawn.any():
        uniforms[drawn] = np.random.default_rng(seed).random(int(drawn.sum()))
    results = _results(kernel, uniforms[None, :], postselect)
    if not results:
        return SimResult(np.zeros(1 << c.n, dtype=np.complex128), 0.0, {}, False)
    return results[0]


def enumerate_branches(
    c: Circuit, postselect: dict[str, int] | None = None
) -> list[SimResult]:
    """Exact branch enumeration: split on every unpostselected measurement.

    Returns one SimResult per surviving branch, in lexicographic order of
    the unpostselected outcomes (the first measurement most significant);
    acceptances sum to the total probability mass consistent with the
    postselection. A branch ends where an outcome has probability below
    1e-14.
    """
    kernel = _dense_kernel(c, postselect)
    return _results(kernel, np.full((1, len(c.records())), np.nan), postselect)


def unitary_of(c: Circuit) -> np.ndarray:
    """Dense unitary of a measurement-free, prep-free circuit."""
    if c.n > MAX_UNITARY_QUBITS:
        raise SimulationError(f"unitary extraction capped at {MAX_UNITARY_QUBITS} qubits")
    for g in c.gates:
        if g.kind in PREP_KINDS or g.kind in MEAS_KINDS or g.kind == "CondS":
            raise SimulationError(f"{g.kind} has no unitary")
    src, phase = _compose(_monomial(g, g.qubits, c.n) for g in c.gates)
    idx = _INDEX[c.n]
    u = np.zeros((len(idx), len(idx)), dtype=np.complex128)
    u[idx, idx if src is None else src] = 1.0 if phase is None else phase
    return u


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """Entrywise equality of two matrices/vectors after optimal phase alignment."""
    if a.shape != b.shape:
        return False
    idx = np.argmax(np.abs(a))
    if np.abs(a.flat[idx]) < tol:
        return bool(np.max(np.abs(b)) < tol)
    phase = b.flat[idx] / a.flat[idx]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(a * phase - b)) < tol)


def state_fidelity(state: np.ndarray, ideal: np.ndarray, on: list[int], n: int) -> float:
    """Overlap <ideal| rho_on |ideal> after tracing out the other qubits."""
    k = len(on)
    if ideal.shape != (1 << k,):
        raise SimulationError(
            f"ideal state has dimension {ideal.shape}, expected {(1 << k,)}"
        )
    psi = state.reshape((2,) * n)
    rest = [q for q in range(n) if q not in on]
    psi = np.transpose(psi, axes=list(on) + rest).reshape(1 << k, -1)
    # rho_on = psi psi^dagger; <ideal|rho|ideal> without forming rho
    vec = ideal.conj() @ psi
    return float(np.vdot(vec, vec).real)
