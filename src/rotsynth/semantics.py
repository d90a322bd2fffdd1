"""Ground-truth equivalence oracles.

Two independent backends:
  * a canonical parity-phase form for circuits built from X, CNOT, SWAP and
    diagonal gates (exact integer arithmetic, exponents mod 8, global phase
    mod 16 in units of pi/8), and
  * dense statevector simulation for small qubit counts, with projective
    measurement, postselection and classically controlled corrections.

Basis convention: basis index bit q is qubit q (support strings read left
to right); dense states are ndarrays of shape (2,)*n with axis q = qubit q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def compose_polynomials(first: PhasePolynomial, second: PhasePolynomial) -> PhasePolynomial:
    """Canonical form of (second circuit applied after first circuit)."""
    if first.n != second.n:
        raise NotDiagonalizableError("qubit count mismatch")
    builder = _PolyBuilder(first.n)
    builder.rows = [first.linear.rows[i] for i in range(first.n)]
    builder.b = first.affine.bits
    builder.coeffs = {v.bits: k for v, k in first.coeffs.items()}
    builder.global16 = first.global_phase
    # pull second's phase terms back through first's affine map
    for v, k in second.coeffs.items():
        vbits = 0
        offset = 0
        for q in v.support():
            vbits ^= first.linear.rows[q]
            offset ^= (first.affine.bits >> q) & 1
        builder.add_term(vbits, offset, k)
    linear = second.linear @ first.linear
    affine = second.linear.mul_vec(first.affine) ^ second.affine
    builder.global16 = (builder.global16 + second.global_phase) % 16
    return PhasePolynomial(
        first.n,
        linear,
        affine,
        {BitVec(first.n, v): k for v, k in builder.coeffs.items()},
        builder.global16,
    )


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
    valid: bool                 # False when postselection had zero probability


def _axis_slice(n: int, q: int, value: int) -> tuple:
    idx: list = [slice(None)] * n
    idx[q] = value
    return tuple(idx)


def _apply_unitary_gate(state: np.ndarray, g: Gate, n: int) -> np.ndarray:
    kind = g.kind
    if kind == "CNOT":
        c, t = g.qubits
        sub = state[_axis_slice(n, c, 1)]
        state[_axis_slice(n, c, 1)] = np.flip(sub, axis=t if t < c else t - 1)
    elif kind == "SWAP":
        a, b = g.qubits
        state = np.ascontiguousarray(np.swapaxes(state, a, b))
    elif kind == "X":
        state = np.flip(state, axis=g.qubits[0]).copy()
    elif kind in DIAG1_EXPONENT:
        phase = np.exp(1j * math.pi * DIAG1_EXPONENT[kind] / 4)
        state[_axis_slice(n, g.qubits[0], 1)] *= phase
    elif kind == "CZ":
        idx = _axis_slice(n, g.qubits[0], 1)
        sub = state[idx]
        a = g.qubits[1]
        sub[_axis_slice(n - 1, a if a < g.qubits[0] else a - 1, 1)] *= -1.0
        state[idx] = sub
    elif kind in ("CS", "CCZ"):
        phase = 1j if kind == "CS" else -1.0
        idx: list = [slice(None)] * n
        for q in g.qubits:
            idx[q] = 1
        state[tuple(idx)] *= phase
    else:
        raise SimulationError(f"gate {kind} is not unitary")
    return state


def _measurement_probability(state: np.ndarray, g: Gate, n: int, outcome: int):
    """Return (probability, projected-unnormalized-state) for the outcome."""
    q = g.qubits[0]
    if g.kind == "MeasZ":
        proj = state.copy()
        proj[_axis_slice(n, q, 1 - outcome)] = 0.0
    else:  # MeasX, outcome 0 = |+>
        s0 = state[_axis_slice(n, q, 0)]
        s1 = state[_axis_slice(n, q, 1)]
        comp = (s0 + s1) / 2.0 if outcome == 0 else (s0 - s1) / 2.0
        proj = np.empty_like(state)
        proj[_axis_slice(n, q, 0)] = comp
        proj[_axis_slice(n, q, 1)] = comp if outcome == 0 else -comp
    prob = float(np.vdot(proj, proj).real)
    return prob, proj


def _execute(c: Circuit, postselect: dict[str, int] | None, rng) -> list[tuple]:
    """Run c over a list of branches (state, weight, outcomes).

    A measurement keeps the postselected outcome if its record is named in
    `postselect`, else one outcome drawn from `rng`, else (rng None) both;
    a kept outcome of probability below 1e-14 ends its branch. Postselected
    and branched outcomes multiply the weight by their probability. Every
    branch owns its state, so gates act in place.
    """
    if c.n > MAX_DENSE_QUBITS:
        raise SimulationError(f"dense simulation capped at {MAX_DENSE_QUBITS} qubits")
    postselect = postselect or {}
    missing = set(postselect) - set(c.records())
    if missing:
        raise SimulationError(f"postselected records not in circuit: {sorted(missing)}")

    state0 = np.zeros((2,) * c.n if c.n else (1,), dtype=np.complex128)
    state0.flat[0] = 1.0
    branches = [(state0, 1.0, {})]
    touched = [False] * c.n

    for g in c.gates:
        new_branches = []
        for state, weight, outcomes in branches:
            if g.kind in PREP_KINDS:
                q = g.qubits[0]
                if touched[q]:
                    raise SimulationError(f"{g.kind} on qubit {q} after other gates")
                a0, a1 = PREP_AMPLITUDES[g.kind]
                sub = state[_axis_slice(c.n, q, 0)].copy()
                state[_axis_slice(c.n, q, 0)] = a0 * sub
                state[_axis_slice(c.n, q, 1)] = a1 * sub
                new_branches.append((state, weight, outcomes))
            elif g.kind in MEAS_KINDS:
                drawn = g.record not in postselect and rng is not None
                if drawn:
                    prob1 = _measurement_probability(state, g, c.n, 1)[0]
                    wanted = (int(rng.random() < prob1),)
                elif g.record in postselect:
                    wanted = (postselect[g.record],)
                else:
                    wanted = (0, 1)
                for outcome in wanted:
                    prob, proj = _measurement_probability(state, g, c.n, outcome)
                    if prob < 1e-14:
                        continue
                    new_branches.append(
                        (
                            proj / math.sqrt(prob),
                            weight if drawn else weight * prob,
                            {**outcomes, g.record: outcome},
                        )
                    )
            elif g.kind == "CondS":
                if outcomes[g.record] == 1:
                    state = _apply_unitary_gate(state, Gate("S", g.qubits), c.n)
                new_branches.append((state, weight, outcomes))
            else:
                new_branches.append((_apply_unitary_gate(state, g, c.n), weight, outcomes))
        branches = new_branches
        for q in g.qubits:
            touched[q] = True
    return branches


def simulate(
    c: Circuit,
    postselect: dict[str, int] | None = None,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> SimResult:
    """Run one trajectory: preps, unitaries, measurements, classical control.

    Records named in `postselect` are projected onto the requested outcome
    (acceptance accumulates their probabilities); other measurements are
    sampled with the seeded generator. The result is invalid when a kept
    outcome has probability below 1e-14.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    branches = _execute(c, postselect, rng)
    if not branches:
        return SimResult(np.zeros(1 << c.n, dtype=np.complex128), 0.0, {}, False)
    state, acceptance, outcomes = branches[0]
    return SimResult(state.reshape(-1), acceptance, outcomes, True)


def enumerate_branches(
    c: Circuit, postselect: dict[str, int] | None = None
) -> list[SimResult]:
    """Exact branch enumeration: split on every unpostselected measurement.

    Returns one SimResult per surviving branch; acceptances sum to the total
    probability mass consistent with the postselection.
    """
    return [
        SimResult(state.reshape(-1), weight, outcomes, True)
        for state, weight, outcomes in _execute(c, postselect, None)
    ]


def unitary_of(c: Circuit, max_qubits: int = 10) -> np.ndarray:
    """Dense unitary of a measurement-free, prep-free circuit."""
    if c.n > max_qubits:
        raise SimulationError(f"unitary extraction capped at {max_qubits} qubits")
    dim = 1 << c.n
    # trailing axis indexes the input basis state
    mat = np.eye(dim, dtype=np.complex128).reshape((2,) * c.n + (dim,))
    for g in c.gates:
        if g.kind in PREP_KINDS or g.kind in MEAS_KINDS or g.kind == "CondS":
            raise SimulationError(f"{g.kind} has no unitary")
        mat = _apply_unitary_gate(mat, g, c.n)
    return mat.reshape(dim, dim)


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


def fidelity_pure(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2)
