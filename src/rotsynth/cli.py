"""Command-line front end: compile, verify, faults, sweep, cost.

Exit codes: 0 success, 1 usage, input or I/O error (one line on stderr),
2 compile (partition) failure, 3 verification mismatch. Every artifact
embeds the run configuration and tool version; outputs are byte-identical
for identical configuration and seed (output paths are not part of the
configuration).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import __version__
from .compiler import PartitionError, compile_program, expand_reference
from .faults import (
    FaultAnalysisError,
    FaultHarness,
    NoiseModel,
    gadgetize,
    spacetime_cost,
    surgery_baseline_cost,
)
from .ir import (
    Circuit,
    CircuitError,
    Gate,
    ParseError,
    parse_circuit,
    parse_rotation_program,
    with_x_detection,
)
from .semantics import (
    NotDiagonalizableError,
    SimulationError,
    equal_up_to_global_phase,
    phase_polynomial_of,
    poly_equal,
    simulate,
)


_PATH_FIELDS = {"infile", "circuit", "a", "b"}


def _config_dict(args, fields: list[str]) -> dict:
    """Reproducibility header; input paths are reduced to their basenames so
    artifacts stay byte-identical across working directories."""
    config = {"version": __version__}
    for f in fields:
        value = getattr(args, f)
        if f in _PATH_FIELDS and isinstance(value, str):
            value = os.path.basename(value)
        config[f] = value
    return config


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


def _write(path: str, text: str):
    with open(path, "w") as f:
        f.write(text)


def _load_circuit_or_program(path: str):
    """Returns ('circuit', Circuit) or ('program', RotationProgram)."""
    text = _read(path)
    payload = json.loads(text)
    if isinstance(payload, dict) and "gates" in payload:
        return "circuit", parse_circuit(text)
    return "program", parse_rotation_program(text)


class UsageError(ValueError):
    """Malformed command-line value."""


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a `UsageError` (exit 1, one line)
    instead of printing the usage and exiting 2, which means "no
    partition". Subparsers take their parent's class, so every subcommand
    reports this way."""

    def error(self, message):
        raise UsageError(message)


def _at_least(value: int, low: int, flag: str):
    if value < low:
        raise UsageError(f"{flag} must be at least {low}, got {value}")


def _number_list(text: str, kind, flag: str) -> list:
    try:
        values = [kind(x) for x in text.split(",") if x != ""]
    except ValueError:
        values = []
    if not values:
        raise UsageError(f"{flag}: expected a comma list of numbers, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_compile(args) -> int:
    _at_least(args.budget, 1, "--budget")
    _at_least(args.seed, 0, "--seed")
    program = parse_rotation_program(_read(args.infile))
    detect = _number_list(args.measure_x, int, "--measure-x") if args.measure_x else []
    if len(set(detect)) != len(detect) or any(not 0 <= q < program.n for q in detect):
        raise UsageError(f"--measure-x: expected distinct qubits below {program.n}, "
                         f"got {args.measure_x!r}")
    try:
        report = compile_program(
            program,
            budget=args.budget,
            seed=args.seed,
            objective=args.objective,
        )
    except PartitionError as exc:
        print(f"compile failed: {exc}", file=sys.stderr)
        return 2
    circuit = with_x_detection(report.circuit, detect)
    config = _config_dict(args, ["infile", "objective", "budget", "seed", "measure_x"])
    _write(args.out, circuit.to_json() + "\n")
    if args.diagram:
        _write(args.diagram, circuit.render_text())
    if args.report:
        payload = {
            "config": config,
            "t_depth": report.t_depth,
            "cnot_depth": report.cnot_depth,
            "cnot_count": report.cnot_count,
            "t_count": report.t_count,
            "orderings_tried": report.orderings_tried,
            "orderings_valid": report.orderings_valid,
            "blocks": [b.to_lists() for b in report.partition.blocks],
            "ordering": list(report.partition.ordering),
        }
        _write(args.report, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(
        f"compiled: t_depth={report.t_depth} cnot_depth={report.cnot_depth} "
        f"cnot_count={report.cnot_count} t_count={report.t_count}"
    )
    return 0


def _as_body(kind: str, obj) -> Circuit:
    return expand_reference(obj) if kind == "program" else obj


def cmd_verify(args) -> int:
    kind_a, a = _load_circuit_or_program(args.a)
    kind_b, b = _load_circuit_or_program(args.b)
    if args.oracle == "poly":
        try:
            pa = phase_polynomial_of(_as_body(kind_a, a))
            pb = phase_polynomial_of(_as_body(kind_b, b))
        except NotDiagonalizableError as exc:
            print(
                f"error: {exc}; the polynomial oracle needs the unitary "
                "X/CNOT/SWAP/diagonal fragment, try --oracle dense",
                file=sys.stderr,
            )
            return 1
        ok = pa.n == pb.n and poly_equal(pa, pb, up_to_global=not args.strict_global)
    else:
        sides = []
        for kind, obj in ((kind_a, a), (kind_b, b)):
            if kind == "program":
                body = expand_reference(obj)
                preps = tuple(Gate("PrepPlus", (q,)) for q in range(body.n))
                circ = Circuit(body.n, preps + body.gates)
            else:
                circ = obj
            sides.append(simulate(circ, seed=0).state)
        if sides[0].shape != sides[1].shape:
            ok = False
        else:
            ok = equal_up_to_global_phase(sides[0], sides[1], 1e-8)
    if ok:
        print("equivalent")
        return 0
    print("NOT equivalent", file=sys.stderr)
    return 3


def cmd_faults(args) -> int:
    _at_least(args.tdecode, 0, "--tdecode")
    circuit = parse_circuit(_read(args.circuit))
    outputs = _number_list(args.outputs, int, "--outputs")
    if args.gadgetize:
        circuit = gadgetize(circuit)
    payload: dict = {
        "config": _config_dict(
            args, ["circuit", "outputs", "singles", "pairs", "first_order", "gadgetize", "tdecode"]
        )
    }
    # the report is written before the summary is printed, so an unwritable
    # --out leaves stdout empty; the enumerations share one harness, and
    # singles and first order name their rounds from one schedule
    summary = []
    if args.singles or args.pairs or args.first_order:
        harness = FaultHarness(circuit, outputs)
    if args.singles:
        table = harness.singles(args.sites, args.tdecode)
        payload["singles"] = table.to_dict()
        summary.append(
            f"singles: {table.count('detected')} detected, "
            f"{table.count('harmless')} harmless, {table.count('harmful')} harmful"
        )
    if args.pairs:
        pairs = harness.pairs()
        payload["pairs"] = pairs.to_dict()
        summary.append(f"pairs: {pairs.harmful} harmful of {pairs.total}")
    if args.first_order:
        fo = harness.first_order(args.tdecode)
        payload["first_order"] = fo.to_dict()
        summary.append(f"first-order p_L coefficient: {fo.coefficient:.6f}")
    if args.out:
        _write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if summary:
        print("\n".join(summary))
    return 0


def cmd_sweep(args) -> int:
    _at_least(args.tdecode, 0, "--tdecode")
    _at_least(args.seed, 0, "--seed")
    circuit = parse_circuit(_read(args.circuit))
    outputs = _number_list(args.outputs, int, "--outputs")
    if args.gadgetize:
        circuit = gadgetize(circuit)
    pls = _number_list(args.pl, float, "--pl")
    rs_ = _number_list(args.r, float, "--r")
    try:
        shots = float(args.shots)   # a whole number, also written as 2e3
    except ValueError:
        raise UsageError(f"--shots: expected a number, got {args.shots!r}") from None
    if not shots.is_integer():
        raise UsageError(f"--shots: expected a whole number, got {args.shots!r}")
    shots = int(shots)
    harness = FaultHarness(circuit, outputs)
    rows = []
    for p_l in pls:
        for r in rs_:
            nm = NoiseModel.from_ratio(p_l, r, args.tdecode)
            rep = harness.monte_carlo(nm, shots, args.seed)
            rows.append(
                (p_l, r, shots, rep.accepted, rep.infidelity, rep.stderr)
            )
            if rep.undefined:
                print(f"warning: zero accepted shots at p_L={p_l} r={r}", file=sys.stderr)
    with open(args.out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["p_L", "r", "shots", "accepted", "infidelity", "stderr"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_cost(args) -> int:
    distances = _number_list(args.distance, int, "--distance")
    # every row is computed before the first print, so a bad distance
    # leaves stdout empty
    rows = []
    for d in distances:
        ours = spacetime_cost(
            d, rounds=args.rounds, patches=args.patches,
            qubits_per_patch_factor=args.factor,
        )
        base = surgery_baseline_cost(d)
        rows.append(f"{d}  {ours}  {base:.0f}  {base / ours:.2f}")
    print("\n".join(["d  qubit-cycles  surgery-baseline  ratio", *rows]))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rotsynth",
        description="Compile multi-qubit phase-rotation programs into "
        "minimal-T-depth circuits and analyze their fault tolerance.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a rotation program")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True, help="circuit JSON output")
    p.add_argument("--report", help="compile report JSON output")
    p.add_argument("--diagram", help="text diagram output")
    p.add_argument("--objective", choices=["cnot-depth", "cnot-count"],
                   default="cnot-depth")
    p.add_argument("--budget", type=int, default=200,
                   help="orderings tried: the given order, then budget - 1 seeded "
                        "shuffles; 1 compiles the given order")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--measure-x", dest="measure_x",
                   help="append X-basis detection on these qubits (comma list)")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("verify", help="check equivalence of two artifacts")
    p.add_argument("--a", required=True, help="circuit or program JSON")
    p.add_argument("--b", required=True)
    p.add_argument("--oracle", choices=["poly", "dense"], default="dense")
    p.add_argument("--strict-global", action="store_true",
                   help="compare global phase too (poly oracle)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("faults", help="exhaustive fault enumeration")
    p.add_argument("--circuit", required=True)
    p.add_argument("--outputs", required=True, help="output qubits, comma list")
    p.add_argument("--singles", action="store_true")
    p.add_argument("--pairs", action="store_true")
    p.add_argument("--first-order", dest="first_order", action="store_true")
    p.add_argument("--sites", choices=["tprep", "all"], default="tprep")
    p.add_argument("--gadgetize", action="store_true",
                   help="replace in-circuit T gates by teleportation gadgets")
    p.add_argument("--tdecode", type=int, default=1)
    p.add_argument("--out", help="report JSON output")
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser("sweep", help="Monte Carlo noise sweep, CSV output")
    p.add_argument("--circuit", required=True)
    p.add_argument("--outputs", required=True)
    p.add_argument("--pl", required=True, help="comma list of p_L values")
    p.add_argument("--r", required=True, help="comma list of p_T/p_L ratios")
    p.add_argument("--shots", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tdecode", type=int, default=1)
    p.add_argument("--gadgetize", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cost", help="spacetime cost model")
    p.add_argument("--distance", required=True, help="comma list of distances")
    p.add_argument("--rounds", type=int, default=7)
    p.add_argument("--patches", type=int, default=8)
    p.add_argument("--factor", type=int, default=3)
    p.set_defaults(func=cmd_cost)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (
        OSError,
        json.JSONDecodeError,
        ParseError,
        UsageError,
        CircuitError,
        FaultAnalysisError,
        SimulationError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
