"""Gate-level circuit IR, rotation programs, depth metrics and serialization.

Conventions:
  * Phase exponents k are integers mod 8 in units where a rotation applies
    e^{i pi k / 4} to basis states of odd parity on its support
    (k=1 is T, k=2 is S, k=4 is Z, k=6 is Sdag, k=7 is Tdag).
  * Support bitstrings are written with qubit 0 leftmost.
  * Depth metrics use greedy as-soon-as-possible layering: gates of the
    counted class pack into layers of disjoint support, any other gate
    acts as an ordering barrier on its operands without consuming a layer.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from typing import Iterable

from .gf2 import BitVec

# exponent -> single-qubit gate name for pure phases
EXPONENT_GATES = {1: ("T",), 2: ("S",), 3: ("S", "T"), 4: ("Z",),
                  5: ("Z", "T"), 6: ("Sdag",), 7: ("Tdag",)}

GATE_ARITY = {
    "PrepPlus": 1, "PrepZero": 1, "PrepT": 1, "PrepTdag": 1,
    "X": 1, "Z": 1, "S": 1, "Sdag": 1, "T": 1, "Tdag": 1,
    "CZ": 2, "CS": 2, "CNOT": 2, "SWAP": 2, "CCZ": 3,
    "MeasZ": 1, "MeasX": 1, "CondS": 1,
}

PREP_KINDS = frozenset({"PrepPlus", "PrepZero", "PrepT", "PrepTdag"})
MEAS_KINDS = frozenset({"MeasZ", "MeasX"})
T_LIKE_KINDS = frozenset({"T", "Tdag", "PrepT", "PrepTdag"})
CNOT_LIKE_KINDS = frozenset({"CNOT", "SWAP"})
# single-qubit diagonal phase gates and their exponents
DIAG1_EXPONENT = {"Z": 4, "S": 2, "Sdag": 6, "T": 1, "Tdag": 7}
# (amplitude of |0>, amplitude of |1>) of each prepared state
_SQ2 = 1.0 / math.sqrt(2.0)
PREP_AMPLITUDES = {
    "PrepZero": (1.0, 0.0),
    "PrepPlus": (_SQ2, _SQ2),
    "PrepT": (_SQ2, _SQ2 * cmath.exp(1j * math.pi / 4)),
    "PrepTdag": (_SQ2, _SQ2 * cmath.exp(-1j * math.pi / 4)),
}


class CircuitError(ValueError):
    """Malformed gate or circuit."""


class ParseError(ValueError):
    """Malformed serialized program or circuit."""


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    record: str | None = None

    def __post_init__(self):
        arity = GATE_ARITY.get(self.kind)
        if arity is None:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != arity:
            raise CircuitError(f"{self.kind} takes {arity} operand(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"{self.kind} operands must be distinct: {self.qubits}")
        if self.kind in MEAS_KINDS and self.record is None:
            raise CircuitError(f"{self.kind} needs a record name")
        if self.kind == "CondS" and self.record is None:
            raise CircuitError("CondS needs the record it is controlled on")
        if self.kind not in MEAS_KINDS and self.kind != "CondS" and self.record is not None:
            raise CircuitError(f"{self.kind} does not carry a record")


@dataclass(frozen=True)
class PhaseRotation:
    """Multi-qubit Z-phase rotation: phase e^{i pi k/4} on odd parity of support."""

    support: BitVec
    k: int

    def __post_init__(self):
        if not 0 <= self.k <= 7:
            raise CircuitError(f"phase exponent {self.k} not in 0..7")
        if self.k != 0 and not self.support:
            raise CircuitError("nonzero rotation needs a nonempty support")


@dataclass(frozen=True)
class RotationProgram:
    """Ordered list of phase rotations on n qubits (first entry applied first)."""

    n: int
    rotations: tuple[PhaseRotation, ...]

    def __post_init__(self):
        for r in self.rotations:
            if r.support.n != self.n:
                raise CircuitError(
                    f"support length {r.support.n} != qubit count {self.n}"
                )

    def t_count(self) -> int:
        return sum(1 for r in self.rotations if r.k % 2 == 1)

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "rotations": [
                {"support": r.support.to_string(), "k": r.k} for r in self.rotations
            ],
        }
        return json.dumps(payload, indent=2)


def _is_index(x) -> bool:
    """A JSON non-negative integer (booleans excluded)."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def parse_rotation_program(text: str) -> RotationProgram:
    """Parse the JSON rotation-program format, with field-level diagnostics."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "n" not in payload or "rotations" not in payload:
        raise ParseError("expected object with fields 'n' and 'rotations'")
    n = payload["n"]
    if not _is_index(n):
        raise ParseError(f"'n' must be a non-negative integer, got {n!r}")
    if not isinstance(payload["rotations"], list):
        raise ParseError("'rotations' must be a list")
    rotations = []
    for idx, entry in enumerate(payload["rotations"]):
        if not isinstance(entry, dict) or "support" not in entry or "k" not in entry:
            raise ParseError(f"rotation {idx}: expected fields 'support' and 'k'")
        support, k = entry["support"], entry["k"]
        if not isinstance(support, str):
            raise ParseError(f"rotation {idx}: support must be a bitstring")
        if len(support) != n:
            raise ParseError(
                f"rotation {idx}: support length {len(support)} != n = {n}"
            )
        try:
            vec = BitVec.from_string(support)
        except ValueError as exc:
            raise ParseError(f"rotation {idx}: {exc}") from exc
        if not _is_index(k) or k > 7:
            raise ParseError(f"rotation {idx}: k must be an integer in 0..7, got {k!r}")
        rotations.append(PhaseRotation(vec, k))
    return RotationProgram(n, tuple(rotations))


@dataclass(frozen=True)
class Circuit:
    n: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        records: set[str] = set()
        for g in self.gates:
            if any(not 0 <= q < self.n for q in g.qubits):
                raise CircuitError(f"{g} touches qubits outside 0..{self.n - 1}")
            if g.kind in MEAS_KINDS:
                if g.record in records:
                    raise CircuitError(f"duplicate measurement record {g.record!r}")
                records.add(g.record)
            elif g.kind == "CondS":
                if g.record not in records:
                    raise CircuitError(
                        f"CondS references record {g.record!r} before it is measured"
                    )

    # -- metrics -----------------------------------------------------------

    def _layers(self, counted: frozenset[str]) -> list[int | None]:
        """ASAP layer per gate for the counted class; None for barrier gates."""
        free = [0] * self.n
        layers: list[int | None] = []
        for g in self.gates:
            if g.kind in counted:
                layer = max(free[q] for q in g.qubits)
                for q in g.qubits:
                    free[q] = layer + 1
                layers.append(layer)
            else:
                sync = max((free[q] for q in g.qubits), default=0)
                for q in g.qubits:
                    free[q] = sync
                layers.append(None)
        return layers

    def cnot_depth(self) -> int:
        layers = [v for v in self._layers(CNOT_LIKE_KINDS) if v is not None]
        return max(layers) + 1 if layers else 0

    def t_depth(self) -> int:
        layers = {v for v in self._layers(T_LIKE_KINDS) if v is not None}
        return len(layers)

    def cnot_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "CNOT")

    def t_count(self) -> int:
        return sum(1 for g in self.gates if g.kind in T_LIKE_KINDS)

    def records(self) -> tuple[str, ...]:
        return tuple(g.record for g in self.gates if g.kind in MEAS_KINDS)

    # -- transforms --------------------------------------------------------

    def concat(self, other: "Circuit") -> "Circuit":
        if other.n != self.n:
            raise CircuitError("qubit count mismatch in concat")
        return Circuit(self.n, self.gates + other.gates)

    def to_json(self) -> str:
        gates = []
        for g in self.gates:
            entry: dict = {"kind": g.kind, "qubits": list(g.qubits)}
            if g.record is not None:
                entry["record"] = g.record
            gates.append(entry)
        return json.dumps({"n": self.n, "gates": gates}, indent=2)

    def render_text(self) -> str:
        """Fixed-width diagram, one line per ASAP layer. Not machine-parsed."""
        layers = self._layers(frozenset(GATE_ARITY))
        if not self.gates:
            return "(empty circuit)\n"
        n_layers = max(layers) + 1
        width = 7
        grid = [["." for _ in range(self.n)] for _ in range(n_layers)]
        token = {
            "PrepPlus": "|+>", "PrepZero": "|0>", "PrepT": "|T>", "PrepTdag": "|T~>",
        }
        for g, layer in zip(self.gates, layers):
            if g.kind == "CNOT":
                c, t = g.qubits
                grid[layer][c] = f"@{t}"
                grid[layer][t] = f"X{c}"
            elif g.kind == "SWAP":
                a, b = g.qubits
                grid[layer][a] = f"x{b}"
                grid[layer][b] = f"x{a}"
            elif g.kind in ("CZ", "CS", "CCZ"):
                for q in g.qubits:
                    others = ",".join(str(p) for p in g.qubits if p != q)
                    grid[layer][q] = f"{g.kind}:{others}"
            elif g.kind in MEAS_KINDS:
                grid[layer][g.qubits[0]] = f"{'MZ' if g.kind == 'MeasZ' else 'MX'}>{g.record}"
            elif g.kind == "CondS":
                grid[layer][g.qubits[0]] = f"S?{g.record}"
            else:
                grid[layer][g.qubits[0]] = token.get(g.kind, g.kind)
        header = "      " + " ".join(f"q{q}".ljust(width) for q in range(self.n))
        lines = [header]
        for i, row in enumerate(grid):
            lines.append(f"L{i:<4} " + " ".join(cell.ljust(width) for cell in row))
        return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "n" not in payload or "gates" not in payload:
        raise ParseError("expected object with fields 'n' and 'gates'")
    n = payload["n"]
    if not _is_index(n):
        raise ParseError(f"'n' must be a non-negative integer, got {n!r}")
    if not isinstance(payload["gates"], list):
        raise ParseError("'gates' must be a list")
    gates = []
    for idx, entry in enumerate(payload["gates"]):
        try:
            qubits = tuple(entry["qubits"])
            if not all(_is_index(q) for q in qubits):
                raise ParseError(f"gate {idx}: qubits must be non-negative integers")
            record = entry.get("record")
            if record is not None and not isinstance(record, str):
                raise ParseError(f"gate {idx}: record must be a string, got {record!r}")
            gates.append(Gate(entry["kind"], qubits, record))
        except (KeyError, TypeError, AttributeError, CircuitError) as exc:
            raise ParseError(f"gate {idx}: {exc}") from exc
    try:
        return Circuit(n, tuple(gates))
    except CircuitError as exc:
        raise ParseError(str(exc)) from exc


def apply_qubit_permutation(c: Circuit, perm: Iterable[int]) -> Circuit:
    """Relabel every gate operand q -> perm[q]; perm must be a bijection."""
    images = list(perm)
    if sorted(images) != list(range(c.n)):
        raise CircuitError(f"{images!r} is not a permutation of 0..{c.n - 1}")
    gates = tuple(
        Gate(g.kind, tuple(images[q] for q in g.qubits), g.record) for g in c.gates
    )
    return Circuit(c.n, gates)


def phase_gates(k: int, qubit: int) -> tuple[Gate, ...]:
    """Minimal single-qubit gate string realizing exponent k on one qubit."""
    return tuple(Gate(kind, (qubit,)) for kind in EXPONENT_GATES.get(k % 8, ()))


def with_x_detection(c: Circuit, qubits: Iterable[int]) -> Circuit:
    """Append X-basis detection measurements on the given qubits, recorded
    as det0, det1, ..."""
    extra = tuple(Gate("MeasX", (q,), f"det{i}") for i, q in enumerate(qubits))
    return Circuit(c.n, c.gates + extra)
