"""Brute-force reference constructions shared by the tests.

Everything here is intentionally independent of the package's compilation
path and of its dense executor: diagonal operators are built by enumerating
basis states, linear maps by applying the matrix to basis indices, and
circuits run one (2,)*n tensor per branch with one slice assignment per
gate.
"""

from __future__ import annotations

import base64
import heapq
import itertools
import json
import math
import random
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rotsynth import faults as _faults
from rotsynth.compiler import (
    DEPTH_OPT_LIMIT,
    Partition,
    PartitionError,
    _DEPTH_TABLES,
    _bits,
    _score_concat,
    _score_maxsum,
    _score_total,
    _synthesize,
    absorb_into_prep,
    eliminate_tdag,
    hoist_permutations,
    merge_adjacent_blocks,
    parallelize_block,
)
from rotsynth.faults import (
    AnalysisReport,
    FaultAnalysisError,
    NoiseModel,
    TGadgetChannel,
    _Harness,
)
from rotsynth.gf2 import BitVec, DimensionError, GF2Matrix, SingularMatrixError
from rotsynth.ir import (
    DIAG1_EXPONENT,
    MEAS_KINDS,
    PREP_AMPLITUDES,
    PREP_KINDS,
    Circuit,
    Gate,
    PhaseRotation,
    RotationProgram,
)
from rotsynth.semantics import (
    _DIAG_PHASES,
    MAX_DENSE_QUBITS,
    SimResult,
    SimulationError,
    TrajectoryKernel,
    state_fidelity,
)


def basis_bits(index: int, n: int) -> BitVec:
    """Bits of a flat state index under the simulator's layout (axis q = qubit q)."""
    return BitVec(n, sum(((index >> (n - 1 - q)) & 1) << q for q in range(n)))


def rotation_product_unitary(program: RotationProgram) -> np.ndarray:
    """Diagonal unitary of a rotation program, by direct basis enumeration."""
    n = program.n
    diag = np.ones(1 << n, dtype=complex)
    for rot in program.rotations:
        for e in range(1 << n):
            if rot.support.dot(basis_bits(e, n)):
                diag[e] *= np.exp(1j * np.pi * rot.k / 4)
    return np.diag(diag)


def cx_unitary(m: GF2Matrix) -> np.ndarray:
    """Permutation unitary |e> -> |m e| by applying m to each basis index."""
    n = m.n_rows
    dim = 1 << n
    out = np.zeros((dim, dim))
    for e in range(dim):
        image = m.mul_vec(basis_bits(e, n))
        f = sum(image[q] << (n - 1 - q) for q in range(n))
        out[f, e] = 1.0
    return out


def random_program(rng: random.Random, n: int, m: int) -> RotationProgram:
    rotations = []
    for _ in range(m):
        bits = 0
        while bits == 0:
            bits = rng.getrandbits(n)
        rotations.append(PhaseRotation(BitVec(n, bits), rng.randrange(8)))
    return RotationProgram(n, tuple(rotations))


def random_fragment_circuit(rng: random.Random, n: int, length: int) -> Circuit:
    """Random circuit in the X + CNOT + SWAP + diagonal fragment."""
    gates = []
    one_q = ["X", "Z", "S", "Sdag", "T", "Tdag"]
    for _ in range(length):
        roll = rng.random()
        if roll < 0.4:
            c, t = rng.sample(range(n), 2)
            gates.append(Gate("CNOT", (c, t)))
        elif roll < 0.5 and n >= 2:
            a, b = rng.sample(range(n), 2)
            gates.append(Gate("SWAP", (a, b)))
        elif roll < 0.62 and n >= 2:
            a, b = rng.sample(range(n), 2)
            gates.append(Gate(rng.choice(["CZ", "CS"]), (a, b)))
        elif roll < 0.68 and n >= 3:
            gates.append(Gate("CCZ", tuple(rng.sample(range(n), 3))))
        else:
            gates.append(Gate(rng.choice(one_q), (rng.randrange(n),)))
    return Circuit(n, tuple(gates))


def plus_prep(n: int) -> tuple[Gate, ...]:
    return tuple(Gate("PrepPlus", (q,)) for q in range(n))


def ccz_state() -> np.ndarray:
    state = np.ones(8, dtype=complex) / np.sqrt(8)
    state[7] *= -1
    return state


def cs_state() -> np.ndarray:
    return np.array([1, 1, 1, 1j], dtype=complex) / 2


def t_state() -> np.ndarray:
    return np.array([1, np.exp(1j * np.pi / 4)], dtype=complex) / np.sqrt(2)


# ---------------------------------------------------------------------------
# Dense reference: one tensor per branch, one slice assignment per gate
# ---------------------------------------------------------------------------


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


def reference_simulate(
    c: Circuit, postselect: dict[str, int] | None = None, seed: int = 0
) -> SimResult:
    """`semantics.simulate`: one branch, drawing one uniform per
    unpostselected measurement as it is reached."""
    branches = _execute(c, postselect, np.random.default_rng(seed))
    if not branches:
        return SimResult(np.zeros(1 << c.n, dtype=np.complex128), 0.0, {}, False)
    state, acceptance, outcomes = branches[0]
    return SimResult(state.reshape(-1), acceptance, outcomes, True)


def reference_branches(c: Circuit, postselect: dict[str, int] | None = None) -> list[SimResult]:
    """`semantics.enumerate_branches`: split on every unpostselected
    measurement."""
    return [
        SimResult(state.reshape(-1), weight, outcomes, True)
        for state, weight, outcomes in _execute(c, postselect, None)
    ]


def reference_unitary(c: Circuit) -> np.ndarray:
    """`semantics.unitary_of`: every basis input as a column of one tensor."""
    dim = 1 << c.n
    # trailing axis indexes the input basis state
    mat = np.eye(dim, dtype=np.complex128).reshape((2,) * c.n + (dim,))
    for g in c.gates:
        if g.kind in PREP_KINDS or g.kind in MEAS_KINDS or g.kind == "CondS":
            raise SimulationError(f"{g.kind} has no unitary")
        mat = _apply_unitary_gate(mat, g, c.n)
    return mat.reshape(dim, dim)


# ---------------------------------------------------------------------------
# The dense kernel's runs composed one half-step at a time, at full width:
# each half-step a monomial (src, phase) on flat amplitudes, chained by
# gathers. `semantics._compose_run` must give the same arrays to the bit.
# ---------------------------------------------------------------------------


def _flat_bit(k: int, s: int) -> np.ndarray:
    """Bit s of every flat index of width k."""
    return (np.arange(1 << k) >> s) & 1


def reference_gate_monomial(kind: str, axes, k: int):
    """A unitary gate on flat amplitudes of width k as new = old[src] *
    phase; None stands for the identity permutation or unit phases. Axis a
    is bit k-1-a of the flat index."""
    index = np.arange(1 << k)
    s = [k - 1 - a for a in axes]
    if kind == "X":
        return index ^ (1 << s[0]), None
    if kind == "CNOT":
        return index ^ (_flat_bit(k, s[0]) << s[1]), None
    if kind == "SWAP":
        d = _flat_bit(k, s[0]) ^ _flat_bit(k, s[1])
        return index ^ ((d << s[0]) | (d << s[1])), None
    if kind in _DIAG_PHASES:
        on = _flat_bit(k, s[0])
        for t in s[1:]:
            on = on & _flat_bit(k, t)
        return None, _DIAG_PHASES[kind][on]
    raise SimulationError(f"gate {kind} is not unitary")


def reference_compose(steps) -> tuple[np.ndarray | None, np.ndarray | None]:
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


def reference_half_step(kernel: TrajectoryKernel, h: int):
    """Half-step h of the kernel (an axis creation or a unitary gate) as a
    monomial from the layout before it to the layout after it."""
    if h % 2:
        g = kernel.circuit.gates[h // 2]
        if g.kind in PREP_KINDS:  # its amplitudes enter when the axis is made
            return None, None
        axes = kernel._axis[h - 1, kernel._col[kernel._qubits.searchsorted(g.qubits)]].tolist()
        return reference_gate_monomial(g.kind, axes, kernel._width[h - 1])
    new = kernel._born_at.get(h // 2)
    if not new:
        return None, None
    idx = np.arange(1 << kernel._width[h])
    phase = None
    for j, i in enumerate(new):
        amps = np.array(kernel._amps[i], dtype=np.complex128)[(idx >> (len(new) - 1 - j)) & 1]
        phase = amps if phase is None else phase * amps
    return idx >> len(new), phase


def reference_run(kernel: TrajectoryKernel, start: int, end: int):
    """`TrajectoryKernel._composed`: half-steps start..end, one monomial per
    half-step, with an identity gather read as None."""
    src, phase = reference_compose(reference_half_step(kernel, h) for h in range(start, end + 1))
    if src is not None and np.array_equal(src, np.arange(len(src))):
        src = None
    return src, phase


def reference_unitary_per_gate(c: Circuit) -> np.ndarray:
    """`semantics.unitary_of` by the per-gate product, qubit q on axis q."""
    src, phase = reference_compose(reference_gate_monomial(g.kind, g.qubits, c.n) for g in c.gates)
    idx = np.arange(1 << c.n)
    u = np.zeros((len(idx), len(idx)), dtype=np.complex128)
    u[idx, idx if src is None else src] = 1.0 if phase is None else phase
    return u


def reference_monomial_form(coeffs: dict[BitVec, int]) -> dict[int, int]:
    """`semantics._monomial_form` by one loop per degree, reducing mod 8
    at every term."""
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


# ---------------------------------------------------------------------------
# Monte Carlo reference: one trajectory at a time, one gate call per gate
# ---------------------------------------------------------------------------

_PAULI_GATES = {"X": ("X",), "Y": ("Z", "X"), "Z": ("Z",)}  # Y as XZ


def reference_trajectory(
    harness: _Harness, fault_map: dict[int, list[tuple[str, int]]], uniforms: np.ndarray
) -> tuple[bool, float]:
    """Single trajectory with sampled measurements; returns (accepted,
    infidelity). Consumes one uniform per measurement, in circuit order."""
    n = harness.n
    state = np.zeros((2,) * n, dtype=np.complex128)
    state.flat[0] = 1.0
    outcomes: dict[str, int] = {}
    meas_i = 0
    for pos in range(-1, len(harness.circuit.gates)):
        if pos >= 0:
            g = harness.circuit.gates[pos]
            if g.kind in PREP_KINDS:
                a0, a1 = PREP_AMPLITUDES[g.kind]
                q = g.qubits[0]
                sub = state[_axis_slice(n, q, 0)].copy()
                state[_axis_slice(n, q, 0)] = a0 * sub
                state[_axis_slice(n, q, 1)] = a1 * sub
            elif g.kind in MEAS_KINDS:
                p1, proj1 = _measurement_probability(state, g, n, 1)
                outcome = int(uniforms[meas_i] < p1)
                meas_i += 1
                if outcome:
                    state = proj1 / math.sqrt(p1)
                else:
                    p0, proj0 = _measurement_probability(state, g, n, 0)
                    state = proj0 / math.sqrt(p0)
                outcomes[g.record] = outcome
                if g.record in harness.reference and outcome != harness.reference[g.record]:
                    return False, 0.0
            elif g.kind == "CondS":
                if outcomes[g.record] == 1:
                    state = _apply_unitary_gate(state, Gate("S", g.qubits), n)
            else:
                state = _apply_unitary_gate(state, g, n)
        for pauli, qubit in fault_map.get(pos, ()):
            for kind in _PAULI_GATES[pauli]:
                state = _apply_unitary_gate(state, Gate(kind, (qubit,)), n)
    return True, 1.0 - state_fidelity(state, harness.ideal_out, harness.outputs, n)


def reference_exact(
    harness: _Harness, faults: list[tuple[int, str, int]]
) -> tuple[float, float]:
    """`_Harness.run_exact` by `reference_branches`: the Paulis go into the
    circuit as gates, and the detection records are postselected on the
    noiseless reference."""
    c = harness.circuit
    after: dict[int, list[Gate]] = {}
    for pos, pauli, qubit in faults:
        after.setdefault(pos, []).extend(Gate(k, (qubit,)) for k in _PAULI_GATES[pauli])
    gates = list(after.get(-1, ()))
    for pos, g in enumerate(c.gates):
        gates.append(g)
        gates.extend(after.get(pos, ()))
    acc = bad = 0.0
    for branch in reference_branches(Circuit(c.n, tuple(gates)), harness.reference):
        acc += branch.acceptance
        bad += branch.acceptance * (
            1.0 - state_fidelity(branch.state, harness.ideal_out, harness.outputs, c.n)
        )
    if acc <= 0.0:
        return 0.0, 0.0
    return acc, bad / acc


def reference_deferred_exact(
    harness: _Harness, faults: list[tuple[int, str, int]]
) -> tuple[float, float]:
    """`reference_exact` by deferred measurement: one full-width tensor and
    no branches, so it also runs where the branches or the width outgrow
    `reference_branches`. An injection measurement stays coherent (MeasX as
    a Hadamard into the Z basis), and its CondS becomes a CS controlled by
    the measured qubit; a detection measurement projects onto its reference
    outcome without renormalizing. The accepted weight is the squared norm
    at the end, and the branches' weighted fidelity is the weight of the
    ideal output in it. Every measured qubit must be left alone after its
    measurement; a Pauli on it from then on, like one before its
    preparation, has no effect. An accepted weight below 1e-14 reads (0, 0),
    as a branch that improbable ends in `reference_branches`."""
    c = harness.circuit
    n = c.n
    measured: dict[int, int] = {}
    for pos, g in enumerate(c.gates):
        if any(q in measured for q in g.qubits):
            raise ValueError(f"{g.kind} at {pos} acts on a measured qubit")
        if g.kind in MEAS_KINDS:
            measured[g.qubits[0]] = pos
    prepared = {g.qubits[0]: pos for pos, g in enumerate(c.gates) if g.kind in PREP_KINDS}
    after: dict[int, list[Gate]] = {}
    for pos, pauli, qubit in faults:
        if prepared.get(qubit, -1) <= pos < measured.get(qubit, len(c.gates)):
            after.setdefault(pos, []).extend(Gate(k, (qubit,)) for k in _PAULI_GATES[pauli])
    state = np.zeros((2,) * n, dtype=np.complex128)
    state.flat[0] = 1.0
    holder: dict[str, int] = {}  # the qubit that holds each injection record
    for pos in range(-1, len(c.gates)):
        if pos >= 0:
            g = c.gates[pos]
            if g.kind in PREP_KINDS:
                a0, a1 = PREP_AMPLITUDES[g.kind]
                q = g.qubits[0]
                sub = state[_axis_slice(n, q, 0)].copy()
                state[_axis_slice(n, q, 0)] = a0 * sub
                state[_axis_slice(n, q, 1)] = a1 * sub
            elif g.kind in MEAS_KINDS and g.record in harness.reference:
                state = _measurement_probability(state, g, n, harness.reference[g.record])[1]
            elif g.kind in MEAS_KINDS:
                q = holder[g.record] = g.qubits[0]
                if g.kind == "MeasX":
                    s0, s1 = state[_axis_slice(n, q, 0)], state[_axis_slice(n, q, 1)]
                    state = np.stack([s0 + s1, s0 - s1], axis=q) / math.sqrt(2.0)
            elif g.kind == "CondS":
                state = _apply_unitary_gate(state, Gate("CS", (holder[g.record], g.qubits[0])), n)
            else:
                state = _apply_unitary_gate(state, g, n)
        for p in after.get(pos, ()):
            state = _apply_unitary_gate(state, p, n)
    acc = float(np.vdot(state, state).real)
    if acc < 1e-14:
        return 0.0, 0.0
    rest = [q for q in range(n) if q not in harness.outputs]
    psi = np.transpose(state, harness.outputs + rest).reshape(1 << len(harness.outputs), -1)
    vec = harness.ideal_out.conj() @ psi
    return acc, 1.0 - float(np.vdot(vec, vec).real) / acc


def reference_sites(
    c: Circuit, outputs: list[int], schedule
) -> tuple[list[tuple[int, int]], list[tuple[int, int, int]]]:
    """The noise sites of `monte_carlo_infidelity`, read off the gate list
    and the schedule: (position, qubit) of each |T> preparation, and (round,
    insert position, qubit) of each depolarizing site. Those are, for each
    round from 1 on, its insert position on each qubit, ascending, that is
    prepared by then (or never) and not yet dropped. A qubit counts if a
    gate other than a preparation touches it or it is an output; it is
    dropped at its last such gate if that is a measurement and it is not an
    output."""
    prepared: dict[int, int] = {}
    last: dict[int, int] = {}
    for pos, g in enumerate(c.gates):
        for q in g.qubits:
            (prepared if g.kind in PREP_KINDS else last)[q] = pos
    dropped = {
        q: pos for q, pos in last.items()
        if q not in outputs and c.gates[pos].kind in MEAS_KINDS
    }
    qubits = sorted(set(last) | set(outputs))
    prep_sites = [
        (pos, g.qubits[0]) for pos, g in enumerate(c.gates) if g.kind in ("PrepT", "PrepTdag")
    ]
    depol_sites = [
        (r, rnd.insert_pos, q)
        for r, rnd in enumerate(schedule[1:], start=1)
        for q in qubits
        if prepared.get(q, -1) <= rnd.insert_pos < dropped.get(q, len(c.gates))
    ]
    return prep_sites, depol_sites


def reference_monte_carlo(
    c: Circuit,
    outputs: list[int],
    nm: NoiseModel,
    shots: int,
    seed: int = 0,
) -> AnalysisReport:
    """`monte_carlo_infidelity` with every faulty shot run alone through
    `reference_trajectory`; same random draws in the same order, in batches
    of `faults._BATCH` shots."""
    harness = _Harness(c, outputs)
    schedule = _faults.build_schedule(c, nm.t_decode)
    prep_sites, depol_sites = reference_sites(c, outputs, schedule)
    n_meas = len(harness.meas_order)
    rng = np.random.default_rng(seed)
    paulis = ("X", "Y", "Z")

    accepted = faulty_total = 0
    total = total_sq = 0.0
    done = 0
    while done < shots:
        b = min(_faults._BATCH, shots - done)
        prep_mask = rng.random((b, len(prep_sites))) < nm.p_t
        depol_mask = rng.random((b, len(depol_sites))) < nm.p_l
        pauli_pick = rng.integers(0, 3, size=(b, len(depol_sites)))
        uniforms = rng.random((b, n_meas))
        faulty = np.nonzero(prep_mask.any(axis=1) | depol_mask.any(axis=1))[0]
        faulty_total += len(faulty)
        accepted += b - len(faulty)
        for row in faulty:
            fault_map: dict[int, list[tuple[str, int]]] = {}
            for col in np.nonzero(prep_mask[row])[0]:
                pos, q = prep_sites[col]
                fault_map.setdefault(pos, []).append(("Z", q))
            for col in np.nonzero(depol_mask[row])[0]:
                _, pos, q = depol_sites[col]
                fault_map.setdefault(pos, []).append((paulis[pauli_pick[row, col]], q))
            ok, infid = reference_trajectory(harness, fault_map, uniforms[row])
            if ok:
                accepted += 1
                total += infid
                total_sq += infid * infid
        done += b

    rounds = tuple(r.label for r in schedule)
    if accepted == 0:
        return AnalysisReport(
            shots, 0, faulty_total, 0.0, None, None, nm.p_l, nm.p_t, nm.t_decode, seed,
            undefined=True, rounds=rounds,
        )
    mean = total / accepted
    stderr = math.sqrt(max(total_sq / accepted - mean * mean, 0.0) / accepted)
    return AnalysisReport(
        shots, accepted, faulty_total, accepted / shots, mean, stderr,
        nm.p_l, nm.p_t, nm.t_decode, seed, rounds=rounds,
    )


def t_gadget_channel(p_x: float, p_y: float, p_z: float) -> TGadgetChannel:
    """Map Pauli error rates of a prepared |T> state onto the channel of the
    teleported T gate: X goes to Sdag, Y to S, Z stays Z."""
    if min(p_x, p_y, p_z) < 0:
        raise FaultAnalysisError("negative probability")
    if p_x + p_y + p_z > 1 + 1e-12:
        raise FaultAnalysisError("probabilities exceed 1")
    return TGadgetChannel(1.0 - p_x - p_y - p_z, p_y, p_x, p_z)


# ---------------------------------------------------------------------------
# Compile-search reference: the greedy that rescores every candidate from
# full sorted tuples, and the ordering loop that rebuilds every block
# ---------------------------------------------------------------------------

_REFERENCE_SCORES = {
    _score_concat: lambda cs, rs: tuple(sorted(cs + rs)),
    _score_maxsum: lambda cs, rs: tuple(sorted((c + r for c, r in zip(cs, rs)), reverse=True)),
    _score_total: lambda cs, rs: (sum(cs) + sum(rs),),
}


def reference_greedy_rows(
    u: GF2Matrix, score
) -> tuple[list[int], list[tuple[int, int]]] | None:
    """`compiler._greedy_rows`: every step scores each candidate (i, j) by a
    tuple built from its column and row sums after row j ^= row i, and runs
    to the 4 n^2 cap when the greedy cycles. `score` is one of the
    compiler's `_score_*` functions."""
    tuple_score = _REFERENCE_SCORES[score]
    n = u.n_rows
    rows = list(u.transpose().rows)
    ops: list[tuple[int, int]] = []
    cap = 4 * n * n
    while sum(r.bit_count() for r in rows) != n:
        if len(ops) >= cap:
            return None
        row_sums = [r.bit_count() for r in rows]
        col_sums = [0] * n
        for r in rows:
            for b in range(n):
                col_sums[b] += (r >> b) & 1
        best = None
        for i in range(n):
            ri = rows[i]
            for j in range(n):
                if i == j:
                    continue
                rs = list(row_sums)
                rs[j] = (ri ^ rows[j]).bit_count()
                cs = list(col_sums)
                for b in range(n):
                    if (ri >> b) & 1:
                        cs[b] += -1 if (rows[j] >> b) & 1 else 1
                cand = (tuple_score(cs, rs), i, j)
                if best is None or cand < best:
                    best = cand
        _, i, j = best
        rows[j] ^= rows[i]
        ops.append((i, j))
    return rows, ops


def _reference_moves(n: int) -> list[tuple]:
    """Layers of one CNOT (c, t), then of two disjoint ones, in the order of
    `compiler._depth_table`'s moves."""
    pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
    moves = [(p,) for p in pairs]
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            if not set(pairs[a]) & set(pairs[b]):
                moves.append((pairs[a], pairs[b]))
    return moves


def reference_depth_table(n: int) -> tuple[dict, dict]:
    """`compiler._depth_table` as a multi-source Dijkstra on (depth, count)
    from all permutation matrices, states as tuples of rows, moves = layers
    of one or two disjoint CNOTs. Returns (best, prev): the optimal
    (depth, count) of each state, and its predecessor (state, layer), None
    for a permutation matrix."""
    moves = _reference_moves(n)
    best: dict[tuple[int, ...], tuple[int, int]] = {}
    prev: dict[tuple[int, ...], tuple[tuple[int, ...], tuple] | None] = {}
    heap = []
    counter = 0
    for images in itertools.permutations(range(n)):
        rows = [0] * n
        for col, row in enumerate(images):
            rows[row] |= 1 << col
        state = tuple(rows)
        best[state] = (0, 0)
        prev[state] = None
        heap.append((0, 0, counter, state))
        counter += 1
    heapq.heapify(heap)
    while heap:
        depth, count, _, state = heapq.heappop(heap)
        if best[state] < (depth, count):
            continue
        for move in moves:
            rows = list(state)
            for c, t in move:
                rows[t] ^= rows[c]
            nxt = tuple(rows)
            cand = (depth + 1, count + len(move))
            if nxt not in best or cand < best[nxt]:
                best[nxt] = cand
                prev[nxt] = (state, move)
                counter += 1
                heapq.heappush(heap, (cand[0], cand[1], counter, nxt))
    return best, prev


DEPTH_TABLES_PATH = Path(__file__).resolve().parents[1] / "src" / "rotsynth" / _DEPTH_TABLES
DEPTH_TABLES_COMMAND = "PYTHONPATH=src python tests/oracles.py"


def depth_tables_text() -> str:
    """The text of the package's depth-table file, built from
    `reference_depth_table`: for each n up to DEPTH_OPT_LIMIT, the int8 array
    `move` of `compiler._depth_table` (the index of each state's last layer,
    -1 for a permutation matrix or a singular one), zlib-compressed at level
    9 and base64-encoded in lines of 76 characters."""
    tables = {}
    for n in range(DEPTH_OPT_LIMIT + 1):
        index = {layer: k for k, layer in enumerate(_reference_moves(n))}
        move = np.full(1 << (n * n), -1, dtype=np.int8)
        for state, step in reference_depth_table(n)[1].items():
            if step is not None:
                move[sum(row << (n * i) for i, row in enumerate(state))] = index[step[1]]
        text = base64.b64encode(zlib.compress(move.tobytes(), 9)).decode()
        tables[str(n)] = [text[i : i + 76] for i in range(0, len(text), 76)]
    about = (
        "Depth-optimal CNOT tables of rotsynth.compiler._depth_table. For each "
        "qubit count n, the int8 array move over the 2^(n^2) packed matrices, "
        "zlib-compressed and base64-encoded in lines. Generated by "
        f"`{DEPTH_TABLES_COMMAND}`; do not edit."
    )
    return json.dumps({"about": about, "move": tables}, indent=1) + "\n"


def reference_invert(m: GF2Matrix) -> GF2Matrix:
    """Inverse over GF(2) by Gauss-Jordan on the rows augmented with the
    identity: the pivot of each column swapped up and cleared from every
    other row."""
    if m.n_rows != m.n_cols:
        raise DimensionError(f"cannot invert shape {m.shape}")
    n = m.n_rows
    aug = [m.rows[i] | (1 << (n + i)) for i in range(n)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if (aug[i] >> col) & 1), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular over GF(2)")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for i in range(n):
            if i != col and (aug[i] >> col) & 1:
                aug[i] ^= aug[col]
    return GF2Matrix(n, n, tuple(row >> n for row in aug))


def permutation_matrix(images: list[int] | tuple[int, ...]) -> GF2Matrix:
    """Matrix P with P e_i = e_images[i] (column i has its one in row images[i])."""
    n = len(images)
    if sorted(images) != list(range(n)):
        raise DimensionError(f"{images!r} is not a permutation of 0..{n - 1}")
    rows = [0] * n
    for col, row in enumerate(images):
        rows[row] |= 1 << col
    return GF2Matrix(n, n, tuple(rows))


def _span(vectors) -> set[int]:
    span = {0}
    for v in vectors:
        span |= {v ^ s for s in span}
    return span


def reference_pad_residual(residual: list[PhaseRotation], n: int) -> list[int] | None:
    """`compiler._pad_residual` from explicit spans: None unless each support
    lies outside the span of those before it; then each unit vector e_i,
    lowest i first, joins when it lies outside the span so far."""
    padded: list[int] = []
    for r in residual:
        if r.support.bits in _span(padded):
            return None
        padded.append(r.support.bits)
    for i in range(n):
        if (1 << i) not in _span(padded):
            padded.append(1 << i)
    return padded


@dataclass(frozen=True)
class Block:
    """One block of a candidate ordering, CX(F)^-1 (phase layer) CX(F): its
    CNOT operator F, whose rows are the rotation supports (the padded basis
    for the residual), F^-1 and the exponents."""

    op: GF2Matrix
    inv: GF2Matrix
    exponents: tuple[int, ...]

    @property
    def live(self) -> bool:
        # an empty phase layer contributes CX(F)^-1 CX(F) = identity
        return any(k % 8 for k in self.exponents)


def reference_split(p: RotationProgram, order: tuple[int, ...]) -> list[Block] | None:
    """An ordering cut into n-blocks and the padded residual, one block at a
    time, each inverted on its own; None if any block is singular or the
    residual supports are dependent."""
    n = p.n
    blocks = []
    for start in range(0, len(order), n):
        rots = [p.rotations[i] for i in order[start : start + n]]
        rows = [r.support.bits for r in rots]
        if len(rots) < n:
            rows = reference_pad_residual(rots, n)
            if rows is None:
                return None
        op = GF2Matrix(n, n, tuple(rows))
        try:
            inv = reference_invert(op)
        except SingularMatrixError:
            return None
        blocks.append(Block(op, inv, tuple(r.k for r in rots) + (0,) * (n - len(rots))))
    return blocks


def reference_merged(blocks: list[Block]) -> tuple[list[Block], list[tuple[GF2Matrix, GF2Matrix]]]:
    """A candidate's live blocks 1..L and the merged CNOT operators of its
    circuit CX(M_0) P_1 CX(M_1) ... P_L CX(M_L), each with its inverse:
    M_0 = F_1, M_b = F_{b+1} F_b^-1 (inverse F_b F_{b+1}^-1), M_L = F_L^-1."""
    live = [b for b in blocks if b.live]
    if not live:
        return [], []
    merged = [(live[0].op, live[0].inv)]
    merged += [(nxt.op @ prev.inv, prev.op @ nxt.inv) for prev, nxt in zip(live, live[1:])]
    merged.append((live[-1].inv, live[-1].op))
    return live, merged


def reference_pack_levels(pairs) -> list[int]:
    """Layer of each CNOT when commuting gates move as early as they can,
    one gate at a time: a gate takes the earliest layer after every earlier
    gate whose control is its target or whose target is its control, among
    the layers where no placed gate shares a qubit with it."""
    layer_of: list[int] = []
    used: list[set[int]] = []
    after_control: dict[int, int] = {}
    after_target: dict[int, int] = {}
    for c, t in pairs:
        level = max(after_control.get(t, 0), after_target.get(c, 0))
        while level < len(used) and (c in used[level] or t in used[level]):
            level += 1
        if level == len(used):
            used.append(set())
        used[level] |= {c, t}
        layer_of.append(level)
        after_control[c] = max(after_control.get(c, 0), level + 1)
        after_target[t] = max(after_target.get(t, 0), level + 1)
    return layer_of


def reference_emit(blocks: list[Block], n: int, absorb: bool, depth_opt: bool) -> Circuit:
    """The circuit of a candidate's blocks from the public circuit passes:
    parallelize, merge, hoist and (with `absorb`) absorb into |+>
    preparations. Only the merge synthesizes with the objective: it rebuilds
    every CNOT run from its matrix, so the blocks' own CNOTs take the
    canonical greedy."""
    fragment = Circuit(n)
    for b in blocks:
        fragment = fragment.concat(parallelize_block(b.op.transpose(), list(b.exponents), depth_opt=False))
    hoisted = hoist_permutations(merge_adjacent_blocks(fragment, depth_opt))
    if not absorb:
        return hoisted
    return eliminate_tdag(absorb_into_prep(hoisted))


# (operator, depth_opt) -> `_synthesize` of it, for every reference search in
# the process: the package keeps no cache, and searches of one program at
# growing budgets share most of their operators
_REALIZED: dict = {}


def _reference_metrics(blocks: list[Block], depth_opt: bool) -> tuple[int, int]:
    """(cnot_depth, cnot_count) of the all-|+> pipeline, inverting every
    live block's operator afresh; each merged operator is synthesized once
    per process (`_REALIZED`)."""
    n = blocks[0].op.n_rows
    ms = [b.op for b in blocks if b.live]
    if not ms:
        return 0, 0
    merged = [ms[0]] + [ms[b] @ reference_invert(ms[b - 1]) for b in range(1, len(ms))]
    merged.append(reference_invert(ms[-1]))
    groups = []
    for w in merged:
        if (w, depth_opt) not in _REALIZED:
            inverse = reference_invert(w)
            _REALIZED[w, depth_opt] = _synthesize(_bits([w]), _bits([inverse]), depth_opt)[0]
        images, cnots = _REALIZED[w, depth_opt]
        groups = [tuple((images[c], images[t]) for c, t in grp) for grp in groups]
        groups.append(cnots)
    free = [0] * n
    depth = count = 0
    for grp in groups[1:]:
        for ctrl, tgt in grp:
            layer = max(free[ctrl], free[tgt])
            free[ctrl] = free[tgt] = layer + 1
            depth = max(depth, layer + 1)
            count += 1
    return depth, count


def reference_orderings(m: int, budget: int, seed: int):
    """The candidates that `compiler.partition_rotations` promises: the
    program order, then `budget - 1` shuffles of list(range(m)), one after
    another, by the standard library's random.Random(seed).shuffle."""
    yield tuple(range(m))
    rng = random.Random(seed)
    for _ in range(budget - 1):
        order = list(range(m))
        rng.shuffle(order)
        yield tuple(order)


def reference_partition_rotations(
    p: RotationProgram,
    budget: int = 200,
    seed: int = 0,
    objective: str = "cnot-depth",
) -> Partition:
    """`compiler.partition_rotations` with every candidate cut, rank-checked,
    padded and inverted on its own, and the winner's circuit emitted by the
    public circuit passes (`reference_emit`)."""
    m = len(p.rotations)
    depth_opt = objective == "cnot-depth"
    best = best_key = None
    tried = valid = 0
    for order in reference_orderings(m, budget, seed):
        tried += 1
        split = reference_split(p, order)
        if split is None:
            continue
        valid += 1
        depth, count = _reference_metrics(split, depth_opt)
        key = depth if depth_opt else count
        if best_key is None or key < best_key:
            best_key = key
            best = (split, order)
    if best is None:
        raise PartitionError(f"no valid block partition among {tried} ordering(s)")
    split, order = best
    full = split[: m // p.n]
    circuit = reference_emit(split, p.n, True, depth_opt)
    return Partition(
        tuple(b.op.transpose() for b in full),
        tuple(b.exponents for b in full),
        tuple(p.rotations[i] for i in order[m - m % p.n :]),
        order,
        tried,
        valid,
        circuit,
    )


if __name__ == "__main__":
    # regenerates the package's depth-table file from the reference search
    DEPTH_TABLES_PATH.write_text(depth_tables_text())
