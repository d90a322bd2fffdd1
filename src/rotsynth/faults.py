"""Noise modeling and fault analysis for prepared magic-state circuits.

The analyzer works on circuits whose measurement records split into two
groups: records consumed by classically controlled corrections (injection
measurements) and unconsumed records (detection measurements, postselected
on their noiseless outcomes). Faults are Paulis inserted at circuit
positions, anywhere including the preparation round. This module defines
no gate action and no qubit lifetime of its own: it hands gate positions to
the dense trajectory kernel (`semantics.TrajectoryKernel`, through
`FaultHarness.run_sampled`), which carries each fault forward as its Pauli
frame. `FaultHarness` is the one entry point: built once for a circuit and
its outputs, it runs every estimator (`singles`, `pairs`, `first_order`,
`monte_carlo`), and each public estimator function builds one and calls
one of those methods. The Monte Carlo engine samples the measurement
outcomes; the exact enumerators run one row per class of configurations
with equal frames, which branches at every injection measurement, each
branch weighted by its probability, and forks from the fault-free branch
tree at its first frame stop. A row whose first frame flips a detection outcome is rejected
without a run. The kernel's rows hold only the live qubits (from a qubit's
first gate other than a preparation to the measurement that ends it), and
the dense cap of `semantics.MAX_DENSE_QUBITS` applies to that live width: a
gadgetized circuit may have many more qubits, since each |T> resource is
live only from its injection CNOT to its measurement.

Noise placement follows a round schedule derived from the circuit: round 0
prepares magic states (Z errors at rate p_T on each |T> preparation), and
every later round ends with single-qubit depolarizing noise at rate p_L on
each qubit that a gate or an output uses, up to the measurement after which
nothing reads it, with X, Y, Z each taken at p_L / 3. The decode latency
inserts idle rounds before the adaptive correction round. Each estimator
builds its schedule from the circuit at its t_decode (`build_schedule`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .ir import Circuit, Gate, MEAS_KINDS, PREP_KINDS, T_LIKE_KINDS
from .semantics import BranchTree, TrajectoryKernel

HARMFUL_INFIDELITY = 1e-9
DETECTED_ACCEPTANCE = 1e-12
_NO_STOP = np.iinfo(np.int64).max   # the first stop of a row without frames
_FAULT_CLASSES = ("detected", "harmless", "harmful")
_T_GATE, _T_PREP, _DEPOLARIZING = 0, 1, 2   # the kinds of fault site (`FaultHarness.sites`)


def _fault_class(acceptance, infidelity):
    """Index into _FAULT_CLASSES of a fault, or of each fault of two arrays:
    detected if its acceptance is below DETECTED_ACCEPTANCE, otherwise
    harmless if its infidelity is below HARMFUL_INFIDELITY, otherwise
    harmful."""
    detected = acceptance < DETECTED_ACCEPTANCE
    harmless = infidelity < HARMFUL_INFIDELITY
    return (1 - detected) * (2 - harmless)


class FaultAnalysisError(ValueError):
    pass


# ---------------------------------------------------------------------------
# noise model and the injected-T error channel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseModel:
    """Two-parameter logical noise: depolarizing p_l per qubit per round and
    Z rate p_t on each |T> preparation, with t_decode idle decode rounds."""

    p_l: float
    p_t: float
    t_decode: int = 0

    def __post_init__(self):
        for name, p in (("p_l", self.p_l), ("p_t", self.p_t)):
            if not 0.0 <= p <= 0.5:
                raise FaultAnalysisError(f"{name}={p} outside [0, 0.5]")
        if self.t_decode < 0:
            raise FaultAnalysisError("t_decode must be >= 0")

    @staticmethod
    def from_ratio(p_l: float, r: float, t_decode: int = 0) -> "NoiseModel":
        if r < 0:
            raise FaultAnalysisError("ratio r must be >= 0")
        return NoiseModel(p_l, r * p_l, t_decode)


@dataclass(frozen=True)
class TGadgetChannel:
    """Error channel of a teleported T gate: mixture of I, S, Sdag, Z."""

    p_i: float
    p_s: float
    p_sdag: float
    p_z: float

    def __post_init__(self):
        probs = (self.p_i, self.p_s, self.p_sdag, self.p_z)
        if any(p < -1e-15 for p in probs):
            raise FaultAnalysisError("channel probabilities must be non-negative")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise FaultAnalysisError("channel probabilities must sum to 1")


_S = np.diag([1.0, 1.0j]).astype(complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_I2 = np.eye(2, dtype=complex)


def channel_superoperator(channel: TGadgetChannel) -> np.ndarray:
    """4x4 superoperator (acting on vectorized density matrices)."""
    out = np.zeros((4, 4), dtype=complex)
    for p, k in (
        (channel.p_i, _I2),
        (channel.p_s, _S),
        (channel.p_sdag, _S.conj().T),
        (channel.p_z, _Z),
    ):
        out += p * np.kron(k, k.conj())
    return out


# ---------------------------------------------------------------------------
# gadgetized implementation and round schedule
# ---------------------------------------------------------------------------


def gadgetize(c: Circuit) -> Circuit:
    """Replace in-circuit T gates by teleportation gadgets on fresh |T>
    resources: CNOT from the data qubit onto the resource, Z measurement,
    and an S correction conditioned on the outcome.

    T gates forming one parallel layer share a single transversal CNOT round
    and a single correction round; single-qubit gates keep their per-qubit
    order around the gadget.
    """
    n_t = sum(1 for g in c.gates if g.kind == "T")
    if any(g.kind in ("Tdag", "PrepTdag") for g in c.gates):
        raise FaultAnalysisError("gadgetize expects the Tdag-free normal form")
    n = c.n + n_t
    preps = [g for g in c.gates if g.kind in PREP_KINDS]
    rest = [g for g in c.gates if g.kind not in PREP_KINDS]
    gates: list[Gate] = [Gate(g.kind, g.qubits) for g in preps]
    gates.extend(Gate("PrepT", (c.n + i,)) for i in range(n_t))

    aux = c.n
    buffer: list[Gate] = []

    def flush():
        nonlocal aux
        if not buffer:
            return
        t_qubits = [g.qubits[0] for g in buffer if g.kind == "T"]
        seen_t: set[int] = set()
        pre: list[Gate] = []
        post: list[Gate] = []
        for g in buffer:
            if g.kind == "T":
                seen_t.add(g.qubits[0])
            elif g.qubits[0] in seen_t:
                post.append(g)
            else:
                pre.append(g)
        gates.extend(pre)
        layer = []
        for q in t_qubits:
            gates.append(Gate("CNOT", (q, aux)))
            layer.append((q, aux, f"inj{aux - c.n}"))
            aux += 1
        gates.extend(Gate("MeasZ", (a,), rec) for _, a, rec in layer)
        gates.extend(Gate("CondS", (q,), rec) for q, _, rec in layer)
        gates.extend(post)
        buffer.clear()

    for g in rest:
        if g.kind == "T":
            if g.qubits[0] in {b.qubits[0] for b in buffer if b.kind == "T"}:
                flush()  # second T on a qubit starts a new layer
            buffer.append(g)
        elif len(g.qubits) == 1 and g.kind not in MEAS_KINDS and g.kind != "CondS":
            buffer.append(g)
        else:
            flush()
            gates.append(g)
    flush()
    return Circuit(n, tuple(gates))


@dataclass(frozen=True)
class Round:
    label: str
    gate_indices: tuple[int, ...]
    insert_pos: int          # faults/noise apply after this gate index


# idle decode rounds before a correction round: every one is a schedule
# entry, so a larger t_decode is refused before any is built
MAX_T_DECODE = 1000


def build_schedule(c: Circuit, t_decode: int = 0) -> tuple[Round, ...]:
    """Group gates into implementation rounds.

    Round 0 holds the preparations (plus leading single-qubit frame gates);
    each parallel CNOT layer is one round; measurements and single-qubit
    gates join the current round; classically controlled corrections get a
    dedicated round, preceded by t_decode idle decode rounds. A t_decode
    outside 0..MAX_T_DECODE raises FaultAnalysisError.
    """
    if not 0 <= t_decode <= MAX_T_DECODE:
        raise FaultAnalysisError(f"t_decode must be in 0..{MAX_T_DECODE}, got {t_decode}")
    rounds: list[tuple[str, list[int]]] = [("prep", [])]
    used: set[int] = set()
    kind_of_round = "prep"
    for idx, g in enumerate(c.gates):
        if g.kind in PREP_KINDS:
            if kind_of_round != "prep":
                raise FaultAnalysisError("preparations must lead the circuit")
            rounds[-1][1].append(idx)
            continue
        if g.kind in ("CNOT", "SWAP"):
            conflict = any(q in used for q in g.qubits)
            if kind_of_round != "cnot" or conflict:
                rounds.append(("cnot", []))
                kind_of_round = "cnot"
                used = set()
            rounds[-1][1].append(idx)
            used |= set(g.qubits)
        elif g.kind == "CondS":
            if kind_of_round != "correct":
                for _ in range(t_decode):
                    rounds.append(("decode-idle", []))
                rounds.append(("correct", []))
                kind_of_round = "correct"
                used = set()
            rounds[-1][1].append(idx)
        else:
            # single-qubit gates and measurements ride along with the
            # current round; they do not consume a transversal time step
            if kind_of_round == "prep" and g.kind not in MEAS_KINDS:
                rounds[-1][1].append(idx)
            else:
                if len(rounds) == 1:
                    rounds.append(("cnot", []))
                    kind_of_round = "cnot"
                rounds[-1][1].append(idx)

    out: list[Round] = []
    last_pos = -1
    for label, idxs in rounds:
        if idxs:
            last_pos = max(idxs)
        out.append(Round(label, tuple(idxs), last_pos))
    return tuple(out)


# ---------------------------------------------------------------------------
# trajectory execution with fault insertion
# ---------------------------------------------------------------------------


class FaultHarness:
    """The fault analysis of a circuit with designated outputs: its fault
    semantics on the dense trajectory kernel (`semantics.TrajectoryKernel`)
    and the four estimators on them, `singles`, `pairs`, `first_order` and
    `monte_carlo`. `enumerate_single_faults`, `enumerate_pair_faults`,
    `first_order_oracle` and `monte_carlo_infidelity` each build a harness
    and call one of them; build one harness to ask several questions of
    one circuit:

        harness = FaultHarness(circuit, outputs)
        harness.pairs().harmful
        harness.first_order(1).coefficient
        harness.monte_carlo(NoiseModel(1e-3, 1e-3, 1), 10_000, seed=7)

    Splits measurement records into injection records (consumed by CondS)
    and detection records (postselected on their noiseless outcomes), and
    freezes the noiseless reference: detection outcomes, which of them are
    certain, and the pure state on the output qubits, all from one walk of
    the fault-free branch tree, which also checks that the detection
    outcomes are deterministic and that every branch holds that output
    state. `run_sampled` hands faults to the kernel by gate position, as
    Pauli frames; `run_exact` runs one row per fault class.

    Rows are settled in three ways (see `run_sampled`):
      * decided: a row whose first frame flips a detection outcome is
        rejected without a run;
      * forked: rows that branch at every measurement start from the
        fault-free branch tree (the trunk) at their first stop, and run only
        the rest of the circuit; the fault-free rows read the trunk itself;
      * run: rows that draw their outcomes run from the start.
    The harness walks the trunk itself (`TrajectoryKernel.walk`), one
    stretch at a time.

    `counts` keeps deterministic tallies of this work: "kernel_calls"
    (calls of `TrajectoryKernel.run`, and one per trunk), "trunk_runs",
    "rows_decided", "rows_forked" and "rows_run" (drawn rows, run from the
    first half-step). A new harness reads one kernel call and one trunk
    run, the walk of its noiseless reference, and nothing else.

    The kernel keeps the outputs to the end and owns every other qubit's
    lifetime, so a row's state holds only the live qubits, and the dense cap
    (`semantics.MAX_DENSE_QUBITS`) applies to the peak live width, not to
    the circuit's qubit count.

    The harness holds no round schedule (`build_schedule`): the decode
    latency moves only where the noise sits, so one harness serves every
    t_decode, and each estimator builds the schedule of its t_decode from
    `self.circuit`. The T sites do not depend on it, so `pairs` takes none;
    `singles` takes it (default 0) only to name each fault's round, which
    moves with t_decode after a correction round, while its values do not.
    """

    def __init__(self, c: Circuit, outputs: list[int]):
        if (
            not outputs
            or len(set(outputs)) != len(outputs)
            or any(not 0 <= q < c.n for q in outputs)
        ):
            raise FaultAnalysisError(
                f"output qubits {list(outputs)} must be one or more distinct qubits "
                f"of 0..{c.n - 1}"
            )
        self.circuit = c
        self.n = c.n
        self.outputs = list(outputs)
        consumed = {g.record for g in c.gates if g.kind == "CondS"}
        self.detection = [
            g.record for g in c.gates if g.kind in MEAS_KINDS and g.record not in consumed
        ]
        self.meas_order = [g.record for g in c.gates if g.kind in MEAS_KINDS]
        self.injection = [r for r in self.meas_order if r in consumed]
        if not self.detection:
            raise FaultAnalysisError("circuit has no detection measurements")
        self.kernel = TrajectoryKernel(c, self.outputs)
        self._nan = np.full((1, len(self.meas_order)), np.nan)
        self._out_perm = self.kernel.permutation(self.outputs)
        self.counts = dict.fromkeys(
            ("kernel_calls", "trunk_runs", "rows_decided", "rows_forked", "rows_run"), 0
        )

        # One trunk walk, branching at every measurement: right after a
        # detection measurement the outcome of larger total weight becomes
        # the reference, and the other outcome's branches are dropped. Where
        # the kernel (which drops outcomes below 1e-14) kept none, a frame
        # stopping at half-step 2g flips a certain outcome by the flat index
        # bit in `_flips_x` (a MeasZ at gate g) or `_flips_z` (a MeasX).
        self.reference: dict[str, int] = {}
        self._flips_x = np.zeros(2 * len(c.gates) + 1, dtype=np.int64)
        self._flips_z = np.zeros_like(self._flips_x)
        trunk = self._trunk()
        for pos, g in enumerate(c.gates):
            if g.kind in MEAS_KINDS and g.record not in consumed:
                self._walk(trunk, 2 * pos + 1)
                outcome = trunk.outcomes[g.record][trunk.of]
                ref = self.reference[g.record] = int(
                    trunk.weight[outcome].sum() > trunk.weight[~outcome].sum()
                )
                kept = outcome == ref
                if kept.all():
                    flips = self._flips_z if g.kind == "MeasX" else self._flips_x
                    flips[2 * pos] = self.kernel.axis_bit(2 * pos, g.qubits[0])
                    continue
                trunk.select(kept)
        self._walk(trunk)
        _, weight, states, _ = trunk.final()
        self.ideal_out = self._reduced_pure(states[0])
        if abs(weight.sum() - 1.0) > 1e-9:
            raise FaultAnalysisError("noiseless detection outcomes not deterministic")
        if (self._infidelity(states) > 1e-10).any():
            raise FaultAnalysisError("noiseless branches disagree on the output state")

    def _reduced_pure(self, state: np.ndarray) -> np.ndarray:
        """Pure state of the outputs, from a final-layout state."""
        mat = state[self._out_perm].reshape(1 << len(self.outputs), -1)
        rho = mat @ mat.conj().T
        vals, vecs = np.linalg.eigh(rho)
        if vals[-1] < 1.0 - 1e-9:
            raise FaultAnalysisError("output qubits are not in a pure state")
        return vecs[:, -1]

    def _infidelity(self, states: np.ndarray) -> np.ndarray:
        """1 - <ideal| rho_out |ideal> of each final-layout state."""
        k = len(self.outputs)
        mat = states[:, self._out_perm].reshape(len(states), 1 << k, len(self._out_perm) >> k)
        vec = np.matmul(self.ideal_out.conj(), mat)
        return 1.0 - np.sum(vec.real**2 + vec.imag**2, axis=1)

    def _kernel_run(self, uniforms, *args):
        """`self.kernel.run`, counted."""
        self.counts["kernel_calls"] += 1
        return self.kernel.run(uniforms, *args)

    def _trunk(self) -> BranchTree:
        """The trunk before its first half-step: the fault-free branch tree
        of one row that branches at every measurement, postselected on the
        reference, as `_walk` advances it. Each trunk counts as one kernel
        call and one trunk run."""
        self.counts["kernel_calls"] += 1
        self.counts["trunk_runs"] += 1
        return BranchTree.root()

    def _walk(self, trunk: BranchTree, to: int | None = None) -> int:
        """`self.kernel.walk` of the trunk to half-step `to` (default: the
        last); returns the number of its branches left."""
        self.kernel.walk(trunk, self._nan, self.reference, to)
        return len(trunk.alive)

    # -- execution ---------------------------------------------------------

    def run_exact(
        self, faults: tuple[np.ndarray, ...], n_configs: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(acceptance probability, mean infidelity over accepted branches)
        of each of `n_configs` fault configurations, as float64 arrays.
        `faults` holds the four integer arrays of `run_sampled`
        (configuration, gate position, Pauli index into "XYZ", qubit). A
        configuration nothing accepts reads (0, 0).

        Configurations with the same effect form a class: a configuration's
        key is its Pauli frames (`TrajectoryKernel.frames`), one (stop, X
        mask, Z mask) per stop where their product is not the identity, and
        the configurations without one share the fault-free class. Each class
        is one row that branches at every injection measurement, decided or
        forked from the trunk as in `run_sampled`; its acceptance is the sum
        of its branches' weights, and every configuration reads the values
        of its class. The frames of the configurations are computed once.
        """
        frames = self.kernel.frames(*faults)
        first, klass = self._classes(frames, n_configs)
        chosen = np.zeros(n_configs, dtype=bool)
        chosen[first] = True
        # the frames of each class's first configuration; classes are
        # numbered in the order of their first configurations, so the rows
        # stay ascending
        kept = chosen[frames[0]]
        row, weight, infid = self._run(
            (klass[frames[0][kept]], *(a[kept] for a in frames[1:])),
            np.full((len(first), len(self.meas_order)), np.nan),
        )
        # without weights (every class decided, or none) bincount counts in int64
        acceptance = np.bincount(row, weight, minlength=len(first)).astype(np.float64)
        bad = np.bincount(row, weight * infid, minlength=len(first))
        infidelity = np.zeros(len(first))
        np.divide(bad, acceptance, out=infidelity, where=acceptance > 0.0)
        return acceptance[klass], infidelity[klass]

    @staticmethod
    def _classes(frames, n_configs: int) -> tuple[np.ndarray, np.ndarray]:
        """(The first configuration of each class, the class of each
        configuration) of configurations given by their frames, as
        `run_exact` keys them; classes are numbered in the order of their
        first configuration."""
        keys: list[list[tuple[int, int, int]]] = [[] for _ in range(n_configs)]
        for r, *frame in zip(*(a.tolist() for a in frames)):
            keys[r].append(tuple(frame))
        classes: dict[tuple, int] = {}
        first = []
        klass = np.empty(n_configs, dtype=np.int64)
        for i, key in enumerate(map(tuple, keys)):
            if key not in classes:
                classes[key] = len(first)
                first.append(i)
            klass[i] = classes[key]
        return np.array(first, dtype=np.int64), klass

    def run_sampled(
        self, faults: tuple[np.ndarray, ...], uniforms: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Trajectories of the rows of `uniforms`, with detection outcomes
        postselected on the reference.

        `faults` holds four equal-length integer arrays (row, gate position,
        Pauli index into "XYZ", qubit); each entry inserts that Pauli after
        that gate (position -1: before the first) in that row's trajectory,
        as its Pauli frame (`TrajectoryKernel.frames`).
        Row i consumes uniforms[i], one value per measurement in circuit
        order, as `TrajectoryKernel.run` does: a number in [0, 1) draws the
        outcome, NaN branches on it. Either every uniform is NaN or none is
        (ValueError otherwise). Returns (row, weight, infidelity) of
        each surviving trajectory, rows ascending: the weight is the product
        of the probabilities of the outcomes it branched on (1 for a row
        that drew them all).

        Up to its first frame stop a row is the fault-free trajectory, up
        to a phase. `__init__` marked each detection measurement at which
        the kernel kept no branch of the noiseless trunk with the other
        outcome: its probability is below the kernel's 1e-14 in every
        branch. A row whose combined frame at its
        first stop anticommutes with such a measurement must match an
        outcome of that probability, so the kernel would keep no branch of
        the row (up to the rounding of that probability's sum), and the row
        is rejected without a run (`_decided`). A combined frame that
        commutes there (two frames that cancel) runs.

        The other rows go in the order of their first frame stop, the rows
        without frames last, so that the rows of one kernel call share as
        much of the run before their stops as they can (see
        `TrajectoryKernel.run`). Where a kernel call starts is the only
        difference between the two kinds of rows:
          * Drawn rows start at the first half-step, in the calls that
            `TrajectoryKernel.drawn_chunks` cuts by the amplitudes they
            hold.
          * NaN rows share the fault-free branch tree of one NaN row as
            their prefix. That tree (the trunk) is walked once, and stops
            at each first stop; there the rows that stop there, and as many
            with later stops as `TrajectoryKernel.tail_rows` allows, start
            from its branches (their frames at that stop applied) and run
            only the rest. They are reduced to (row, weight, infidelity)
            before the trunk moves on, so one tree is held at a time. The
            rows without frames read the trunk's final branches.
        """
        return self._run(self.kernel.frames(*faults), uniforms)

    def _run(self, frames, uniforms):
        """`run_sampled` on rows given by their frames."""
        nan = np.isnan(uniforms)
        if nan.any() and not nan.all():
            raise ValueError("uniforms must be all NaN or all drawn")
        row, stop, x, z = frames
        first = np.ones(len(row), dtype=bool)   # frames go by row, then stop
        first[1:] = row[1:] != row[:-1]
        decided = row[first][self._decided(stop[first], x[first], z[first])]
        self.counts["rows_decided"] += len(decided)
        # the other rows by first stop, rows without frames last: place i
        # holds row by_stop[i], and the frames are renumbered by place
        earliest = np.full(len(uniforms), _NO_STOP)
        earliest[row[first]] = stop[first]
        kept = np.ones(len(uniforms), dtype=bool)
        kept[decided] = False
        by_stop = np.flatnonzero(kept)
        by_stop = by_stop[np.argsort(earliest[by_stop], kind="stable")]
        place = np.empty(len(uniforms), dtype=np.int64)
        place[by_stop] = np.arange(len(by_stop))
        on = kept[row]
        row, stop, x, z = place[row[on]], stop[on], x[on], z[on]
        order = np.argsort(row, kind="stable")
        frames = (row[order], stop[order], x[order], z[order])
        earliest, uniforms = earliest[by_stop], uniforms[by_stop]
        rows, framed = len(by_stop), int(earliest.searchsorted(_NO_STOP))
        out = [(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))]
        if not nan.all():
            bounds = self.kernel.drawn_chunks(earliest, self.reference)
            out += [self._chunk(frames, uniforms, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        elif rows:
            # the trunk stops at every first stop, also where an earlier chunk
            # took its rows: where a walk stops splits the gathers and phases
            # that the kernel composes, and so moves the values' last bits
            trunk, done = self._trunk(), 0
            for h in sorted(set(earliest[:framed].tolist())):
                if not self._walk(trunk, h):
                    break
                here = earliest.searchsorted(h, side="right")
                step = self.kernel.tail_rows(trunk, self.reference)
                while done < here:
                    lo, done = done, min(done + step, framed)
                    out.append(self._chunk(frames, uniforms, lo, done, trunk))
            self._walk(trunk)
            _, weight, states, _ = trunk.final()
            clean = rows - framed   # the rows without frames read the trunk's branches
            out.append((
                np.arange(framed, rows).repeat(len(weight)), np.tile(weight, clean),
                np.tile(self._infidelity(states), clean),
            ))
        row, weight, infidelity = (np.concatenate(part) for part in zip(*out))
        row = by_stop[row]
        order = np.argsort(row, kind="stable")   # a row's branches stay in their order
        return row[order], weight[order], infidelity[order]

    def _decided(self, stop, x, z) -> np.ndarray:
        """Which frames, each a row's first, flip the certain outcome of the
        detection measurement at their stop."""
        return ((x & self._flips_x[stop]) | (z & self._flips_z[stop])) != 0

    def _chunk(self, frames, uniforms, lo: int, hi: int, start: BranchTree | None = None):
        """The rows in places lo..hi-1 in one kernel call, from the first
        half-step or from `start`: (place, weight, infidelity) of each
        surviving trajectory."""
        row, stop, x, z = frames
        a, b = row.searchsorted((lo, hi))
        alive, weight, states, _ = self._kernel_run(
            uniforms[lo:hi], self.reference, (row[a:b] - lo, stop[a:b], x[a:b], z[a:b]), start,
        )
        self.counts["rows_run" if start is None else "rows_forked"] += hi - lo
        return lo + alive, weight, self._infidelity(states)

    # -- fault sites -------------------------------------------------------

    def sites(self, rounds: tuple[Round, ...]) -> np.ndarray:
        """The fault sites of the noise model under the schedule `rounds`, as
        four int64 rows (gate position, qubit, round, kind); a fault at a
        site goes in right after that gate. First, in gate order, a Z site
        after each T-like gate: kind `_T_PREP` after a |T> preparation,
        `_T_GATE` after an in-circuit T or Tdag. Then the end-of-round
        depolarizing sites (`_DEPOLARIZING`), rounds 1 and later, each round
        at its insert position on every qubit that a fault there acts on
        (`TrajectoryKernel.acting_qubits`, ascending): a qubit that a gate
        or an output reads, up to the measurement after which nothing reads
        it. Every estimator takes its sites from these rows, in this order."""
        gates = self.circuit.gates
        round_of = _round_of_gates(rounds, len(gates))
        rows = [
            (pos, g.qubits[0], round_of[pos], _T_PREP if g.kind in PREP_KINDS else _T_GATE)
            for pos, g in enumerate(gates) if g.kind in T_LIKE_KINDS
        ]
        rows += [
            (rnd.insert_pos, q, r, _DEPOLARIZING)
            for r, rnd in enumerate(rounds[1:], start=1)
            for q in self.kernel.acting_qubits(rnd.insert_pos)
        ]
        return np.array(rows, dtype=np.int64).reshape(-1, 4).T

    # -- estimators --------------------------------------------------------

    def singles(self, sites: str = "tprep", t_decode: int = 0) -> DetectionTable:
        """`enumerate_single_faults` on this harness, with the round of each
        fault taken from the schedule at `t_decode`."""
        if sites not in ("tprep", "all"):
            raise FaultAnalysisError(f"unknown site class {sites!r}")
        rounds = build_schedule(self.circuit, t_decode)
        if sites == "tprep":
            pos, qubit, rnd, _ = _rows(self.sites(rounds), _T_GATE, _T_PREP)
            pauli = np.full(len(pos), 2)
        else:
            gates = self.circuit.gates
            pos, qubit = np.array(
                [(i, q) for i, g in enumerate(gates) if g.kind not in MEAS_KINDS
                 for q in g.qubits],
                dtype=np.int64,
            ).reshape(-1, 2).repeat(3, axis=0).T
            pauli = np.tile(np.arange(3), len(pos) // 3)
            rnd = _round_of_gates(rounds, len(gates))[pos]
        return self._classify(pos, qubit, pauli, rnd)[0]

    def pairs(self) -> PairSummary:
        """`enumerate_pair_faults` on this harness."""
        pos, qubit, _, _ = _rows(self.sites(build_schedule(self.circuit)), _T_GATE, _T_PREP)
        a, b = np.triu_indices(len(pos), 1)
        both = np.stack([a, b], axis=1).ravel()   # each pair's two sites in turn
        acc, infid = self.run_exact(
            (np.arange(len(a)).repeat(2), pos[both], np.full(len(both), 2), qubit[both]), len(a)
        )
        detected, harmless, harmful = np.bincount(_fault_class(acc, infid), minlength=3).tolist()
        return PairSummary(len(acc), harmful, detected, harmless)

    def first_order(self, t_decode: int) -> FirstOrderReport:
        """`first_order_oracle` on this harness, with the noise of the
        schedule at `t_decode`."""
        rounds = build_schedule(self.circuit, t_decode)
        pos, qubit, in_round, _ = _rows(self.sites(rounds), _DEPOLARIZING).repeat(3, axis=1)
        table, acc, infid = self._classify(
            pos, qubit, np.tile(np.arange(3), len(pos) // 3), in_round
        )
        contribution = acc * infid / 3.0
        per_round = np.bincount(in_round, weights=contribution, minlength=len(rounds))
        idle = [r for r, rnd in enumerate(rounds) if rnd.label == "decode-idle"]
        return FirstOrderReport(
            float(contribution.sum()),
            table,
            float(per_round[idle].sum()) / len(idle) if idle else 0.0,
            tuple(
                (r, rnd.label, float(per_round[r]))
                for r, rnd in enumerate(rounds) if r > 0
            ),
        )

    def monte_carlo(self, nm: NoiseModel, shots: int, seed: int = 0) -> AnalysisReport:
        """`monte_carlo_infidelity` on this harness, with the noise of the
        schedule at nm.t_decode; a sweep over p_L and p_T builds its harness
        once. The shots go in batches of `_BATCH`, each drawn by
        `_draw_batch` from numpy.random.default_rng(seed): a site fires
        where its value is below its rate, a fired depolarizing site takes
        X, Y or Z by its pick, and a faulty shot draws its measurement
        outcomes from its uniforms."""
        if shots < 1:
            raise FaultAnalysisError("needs at least one shot")
        rounds = build_schedule(self.circuit, nm.t_decode)
        # the |T> preparation sites, then the depolarizing sites
        pos, qubit, _, kind = _rows(self.sites(rounds), _T_PREP, _DEPOLARIZING)
        n_prep = int(np.count_nonzero(kind == _T_PREP))
        n_depol = len(pos) - n_prep
        rng = np.random.default_rng(seed)

        accepted = 0
        n_faulty = 0
        total = 0.0
        total_sq = 0.0
        done = 0
        while done < shots:
            b = min(_BATCH, shots - done)
            prep, depol, picks, faulty, uniforms = _draw_batch(
                rng, b, nm, n_prep, n_depol, len(self.meas_order)
            )
            prep_shot, prep_col = np.divmod(prep, max(n_prep, 1))
            depol_shot, depol_col = np.divmod(depol, max(n_depol, 1))
            n_faulty += len(faulty)
            accepted += b - len(faulty)  # clean shots pass with zero infidelity
            site = np.concatenate([prep_col, n_prep + depol_col])
            row, _, infid = self.run_sampled(
                (
                    faulty.searchsorted(np.concatenate([prep_shot, depol_shot])),
                    pos[site],
                    np.concatenate([np.full(len(prep), 2), picks]),  # Z at |T> sites
                    qubit[site],
                ),
                uniforms,
            )
            accepted += len(row)
            # per faulty shot, rejected ones 0, so the sums run in shot order
            per_shot = np.zeros(len(faulty))
            per_shot[row] = infid
            total += float(per_shot.sum())
            total_sq += float(np.dot(per_shot, per_shot))
            done += b

        mean = stderr = None
        if accepted:
            mean = total / accepted
            stderr = math.sqrt(max(total_sq / accepted - mean * mean, 0.0) / accepted)
        return AnalysisReport(
            shots, accepted, n_faulty, accepted / shots, mean, stderr,
            nm.p_l, nm.p_t, nm.t_decode, seed,
            undefined=not accepted, rounds=tuple(r.label for r in rounds),
        )

    def _classify(self, pos, qubit, pauli, rnd):
        """One configuration per fault, a Pauli (index into "XYZ") on a
        qubit right after a gate position, in a round: (its detection table,
        and the acceptance and the infidelity of each fault)."""
        acc, infid = self.run_exact((np.arange(len(pos)), pos, pauli, qubit), len(pos))
        columns = (x.tolist() for x in (pos, qubit, pauli, rnd, acc, infid))
        table = DetectionTable([
            FaultRecord(FaultLocation(p, q, "XYZ"[pa], r), a, i)
            for p, q, pa, r, a, i in zip(*columns)
        ])
        return table, acc, infid


def _round_of_gates(rounds: tuple[Round, ...], n_gates: int) -> np.ndarray:
    """The round of each gate position under the schedule `rounds` (-1 for a
    gate in none)."""
    round_of = np.full(n_gates, -1, dtype=np.int64)
    for r, rnd in enumerate(rounds):
        round_of[list(rnd.gate_indices)] = r
    return round_of


# ---------------------------------------------------------------------------
# enumeration reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultLocation:
    gate_index: int
    qubit: int
    pauli: str
    round_index: int


@dataclass(frozen=True)
class FaultRecord:
    location: FaultLocation
    acceptance: float
    infidelity: float

    @property
    def classification(self) -> str:
        return _FAULT_CLASSES[_fault_class(self.acceptance, self.infidelity)]


@dataclass
class DetectionTable:
    entries: list[FaultRecord]

    def count(self, klass: str) -> int:
        return sum(1 for e in self.entries if e.classification == klass)

    def to_dict(self) -> dict:
        return {
            "total": len(self.entries),
            "detected": self.count("detected"),
            "harmless": self.count("harmless"),
            "harmful": self.count("harmful"),
            "entries": [
                {
                    "gate_index": e.location.gate_index,
                    "qubit": e.location.qubit,
                    "pauli": e.location.pauli,
                    "round": e.location.round_index,
                    "acceptance": e.acceptance,
                    "infidelity": e.infidelity,
                    "class": e.classification,
                }
                for e in self.entries
            ],
        }


@dataclass
class PairSummary:
    total: int
    harmful: int
    detected: int
    harmless: int

    def to_dict(self) -> dict:
        return asdict(self)


def _rows(sites: np.ndarray, *kinds: int) -> np.ndarray:
    """The rows of a site table (`FaultHarness.sites`) of the given kinds, in
    their order."""
    return sites[:, np.isin(sites[3], kinds)]


def enumerate_single_faults(
    c: Circuit,
    outputs: list[int],
    sites: str = "tprep",
) -> DetectionTable:
    """Exhaustively classify single Pauli faults.

    sites="tprep" inserts Z faults right after each T-type gate (the phase
    noise of a faulty magic state); sites="all" inserts X, Y, Z after every
    gate.
    """
    return FaultHarness(c, outputs).singles(sites)


def enumerate_pair_faults(c: Circuit, outputs: list[int]) -> PairSummary:
    """Exhaustively classify all Z fault pairs on the T-type sites."""
    return FaultHarness(c, outputs).pairs()


# ---------------------------------------------------------------------------
# first-order oracle and Monte Carlo
# ---------------------------------------------------------------------------


@dataclass
class FirstOrderReport:
    coefficient: float
    table: DetectionTable
    idle_round_increment: float
    # (round index, label, share of the coefficient) for rounds 1 and later
    rounds: tuple[tuple[int, str, float], ...]

    def to_dict(self) -> dict:
        return {
            "coefficient": self.coefficient,
            "idle_round_increment": self.idle_round_increment,
            "rounds": [
                {"index": index, "label": label, "contribution": contribution}
                for index, label, contribution in self.rounds
            ],
            "faults": self.table.to_dict(),
        }


def first_order_oracle(c: Circuit, outputs: list[int], nm: NoiseModel) -> FirstOrderReport:
    """Exact first-order coefficient of p_L in the postselected infidelity.

    Enumerates every end-of-round depolarizing fault (X, Y, Z at weight 1/3)
    and sums acceptance-weighted infidelities; this is the derivative of the
    Monte Carlo estimate at p_L -> 0 for fixed t_decode. The report splits
    the sum by the round each fault ends.
    """
    return FaultHarness(c, outputs).first_order(nm.t_decode)


@dataclass
class AnalysisReport:
    shots: int
    accepted: int
    faulty: int  # shots that drew at least one fault: the trajectories simulated
    acceptance: float
    infidelity: float | None
    stderr: float | None
    p_l: float
    p_t: float
    t_decode: int
    seed: int
    undefined: bool = False
    rounds: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {**asdict(self), "rounds": list(self.rounds)}


def monte_carlo_infidelity(
    c: Circuit,
    outputs: list[int],
    nm: NoiseModel,
    shots: int,
    seed: int = 0,
) -> AnalysisReport:
    """Monte Carlo estimate of the postselected output infidelity.

    Per shot: Z faults on each |T> preparation at p_t, then depolarizing
    faults at p_l on every live qubit at the end of every later round
    (decode idles included); trajectories whose detection outcomes differ
    from the noiseless reference are discarded.
    """
    return FaultHarness(c, outputs).monte_carlo(nm, shots, seed)


_BATCH = 1 << 16  # shots per Monte Carlo batch; it sets the sample stream
_DRAW_ROWS = 1024  # shots per chunk of each Monte Carlo draw
_LOW = np.uint64(0xFFFFFFFF)
_HIGH = np.uint64(32)


def _fired(bitgen, p: float, shots: int, sites: int) -> np.ndarray:
    """Flat indices (shot * sites + site), ascending, of the entries of
    `rng.random((shots, sites))` below p, drawn from the same raw 64-bit
    words: random() is (raw >> 11) * 2^-53, so it is below p exactly where
    raw is below ceil(p * 2^53) << 11."""
    threshold = np.uint64(math.ceil(p * 2.0**53) << 11)
    total, step = shots * sites, _DRAW_ROWS * sites
    return np.concatenate([np.zeros(0, dtype=np.int64)] + [
        np.flatnonzero(bitgen.random_raw(min(step, total - a)) < threshold) + a
        for a in range(0, total, step or 1)
    ])


def _zero_word(raw: np.ndarray) -> bool:
    """A 32-bit half of some raw word is 0. `integers(0, 3)` maps a word w to
    (3 w) >> 32 by Lemire's method, which rejects w, and draws another word,
    exactly where (3 w) mod 2^32 < (2^32 - 3) mod 3 = 1: where w = 0. (The
    order of the halves in a 32-bit view does not matter here.)"""
    return bool(raw.view(np.uint32).min() == 0)


def _picks(rng, fired: np.ndarray, words: int, sites: int) -> np.ndarray:
    """The entries at the flat indices `fired` (ascending) of
    `rng.integers(0, 3, size=words)`, leaving `rng` as that call would.

    That call takes one 32-bit word per entry: PCG64's buffered half first,
    if it holds one, then both halves of each raw 64-bit word, low half
    first, and it buffers a last high half that it does not use. Only the
    raw words are drawn here, in chunks, and only the fired entries' words
    are kept. Where a word is 0, `integers` would have rejected it (see
    `_zero_word`): then the state before the call is restored and the
    entries are drawn by `integers` itself."""
    if not words:
        return np.zeros(0, dtype=np.int64)
    bitgen = rng.bit_generator
    before = bitgen.state
    buffered = before["has_uint32"]
    half = fired - buffered          # -1: the buffered half
    raw_of, high = half >> 1, (half & 1).astype(bool)
    word = np.zeros(len(fired), dtype=np.uint64)
    if buffered and len(fired) and fired[0] == 0:
        word[0] = before["uinteger"]
    rejected = buffered and before["uinteger"] == 0
    n_raw, step = (words - buffered + 1) // 2, _DRAW_ROWS * sites
    raw = None
    for a in range(0, n_raw, step):
        raw = bitgen.random_raw(min(step, n_raw - a))
        rejected = rejected or _zero_word(raw)
        lo, hi = raw_of.searchsorted((a, a + len(raw)))
        got = raw[raw_of[lo:hi] - a]
        word[lo:hi] = np.where(high[lo:hi], got >> _HIGH, got & _LOW)
    if rejected:
        bitgen.state = before
        picks = np.zeros(len(fired), dtype=np.int64)
        for a in range(0, words, step):
            drawn = rng.integers(0, 3, size=min(step, words - a))
            lo, hi = fired.searchsorted((a, a + len(drawn)))
            picks[lo:hi] = drawn[fired[lo:hi] - a]
        return picks
    after = bitgen.state
    after["has_uint32"] = (words - buffered) % 2
    if raw is not None:
        after["uinteger"] = int(raw[-1] >> _HIGH)
    bitgen.state = after
    return ((word * np.uint64(3)) >> _HIGH).astype(np.int64)


def _draw_batch(rng, b: int, nm: NoiseModel, n_prep: int, n_depol: int, n_meas: int):
    """One batch's draws: (fired |T> preparation sites and fired
    depolarizing sites, as flat indices shot * sites + site; the Pauli pick
    of each fired depolarizing site; the faulty shots, ascending; their
    uniforms).

    They are the values, and leave `rng` in the state, of these calls in
    this order: rng.random((b, n_prep)) < p_t, rng.random((b, n_depol)) <
    p_l, rng.integers(0, 3, size=(b, n_depol)) and rng.random((b, n_meas)).
    The masks and the picks are drawn as raw words (`_fired`, `_picks`), so
    only the fired sites are kept, and only the faulty shots' uniforms. Each
    draw goes in chunks of `_DRAW_ROWS` shots."""
    prep = _fired(rng.bit_generator, nm.p_t, b, n_prep)
    depol = _fired(rng.bit_generator, nm.p_l, b, n_depol)
    picks = _picks(rng, depol, b * n_depol, n_depol)
    # the shots of both ascending lists, merged and each kept once (sorted
    # here, not by np.union1d, which imports numpy.ma)
    shots = np.sort(np.concatenate([prep // max(n_prep, 1), depol // max(n_depol, 1)]))
    first = np.ones(len(shots), dtype=bool)
    first[1:] = shots[1:] != shots[:-1]
    faulty = shots[first]
    uniforms = [np.zeros((0, n_meas))]
    for s in range(0, b, _DRAW_ROWS):
        drawn = rng.random((min(_DRAW_ROWS, b - s), n_meas))
        lo, hi = faulty.searchsorted((s, s + _DRAW_ROWS))
        uniforms.append(drawn[faulty[lo:hi] - s])
    return prep, depol, picks, faulty, np.concatenate(uniforms)


# ---------------------------------------------------------------------------
# spacetime cost model
# ---------------------------------------------------------------------------


def _at_least_1(**values):
    """FaultAnalysisError for the first of the named values below 1."""
    for name, value in values.items():
        if not value >= 1:
            raise FaultAnalysisError(f"{name} must be >= 1, got {value}")


def spacetime_cost(
    d: int, rounds: int = 7, patches: int = 8, qubits_per_patch_factor: int = 3
) -> int:
    """Qubit-cycles for the transversal-CNOT implementation: rounds x patches
    x (factor d^2) physical qubits per logical patch."""
    _at_least_1(
        distance=d, rounds=rounds, patches=patches, qubits_per_patch_factor=qubits_per_patch_factor,
    )
    return rounds * patches * qubits_per_patch_factor * d * d


def surgery_baseline_cost(
    d: int, logical_qubits: int = 18, cycles_per_d: float = 8.5,
    qubits_per_patch_factor: int = 3,
) -> float:
    """Planar lattice-surgery reference: qubit-cycles for the same task."""
    _at_least_1(
        distance=d, logical_qubits=logical_qubits, qubits_per_patch_factor=qubits_per_patch_factor,
    )
    if not cycles_per_d > 0:
        raise FaultAnalysisError(f"cycles_per_d must be > 0, got {cycles_per_d}")
    return logical_qubits * qubits_per_patch_factor * d * d * cycles_per_d * d
