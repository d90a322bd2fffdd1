"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --t0 T [--setup-only] [--trace]

Run from the root of a checkout; `run.py` starts it once per repetition so
that the compiler's process-wide caches (the depth tables and the
`lru_cache`s on synthesis) start empty, as they do for every CLI run. `--t0`
is the parent's `time.monotonic()` just before the interpreter was started,
so set-up time includes interpreter start and imports. Prints one JSON
object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import sys
import time
import traceback

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# A random 4x4 operator outside every timed input: synthesizing it builds the
# n=4 depth table, which every CLI invocation pays once.
WARM_SEED = 987654321

# The reference 2-core VM shares its cores with other tenants: its CPU speed
# swings by up to 1.5x for seconds to minutes, differently on each core, so
# wall times of one workload spread by 10-20% between runs. A fixed
# pure-Python loop, run every PROBE_INTERVAL_S from a timer signal on the same
# core as the workload, samples that speed; setup_s and pass_s are the wall
# times scaled to the speed at which the loop takes PROBE_REF_S.
PROBE_INTERVAL_S = 0.02
PROBE_ITERS = 3000
PROBE_REF_S = 250e-6

P_L = 1e-3
T_DECODE = 1

COMPILE_FIXED = (  # (name, budget, search seed); t15 at 800 as in criterion 4
    ("ccz", 200, 0),
    ("cs", 200, 0),
    ("t15", 800, 0),
)
COMPILE_RANDOM = (6, 8, 10)  # qubits of the seeded random programs
COMPILE_RANDOM_BLOCKS = 8
COMPILE_RANDOM_BUDGET = 50
OBJECTIVES = (("depth", "cnot-depth"), ("count", "cnot-count"))
COMPILE_INPUTS = tuple(
    f"{name}-{tag}" for name in [f[0] for f in COMPILE_FIXED] + [f"rand{n}" for n in COMPILE_RANDOM]
    for tag, _ in OBJECTIVES
)

VERIFY_RANDOM = (8, 9, 10, 11, 12)
VERIFY_RANDOM_BLOCKS = 2

EXACT_INPUTS = ("ccz-g", "cs-g", "t15")
MC_INPUTS = (  # (label, circuit, r = p_T / p_L, shots)
    ("ccz-g-r1", "ccz-g", 1, 100_000),
    ("ccz-g-r10", "ccz-g", 10, 30_000),
    ("cs-g-r1", "cs-g", 1, 10_000),
    ("t15-r1", "t15", 1, 40_000),
)


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = [
        "gf2.is_invertible_calls", "gf2.is_invertible_s", "gf2.invert_calls", "gf2.invert_s",
        "ir.parse_s", "ir.serialize_s",
        "compiler.partition_s", "compiler.orderings_tried", "compiler.orderings_per_s",
        "compiler.synthesis_calls", "compiler.synthesis_s", "compiler.parallelize_s",
        "compiler.merge_s", "compiler.hoist_s", "compiler.absorb_s",
        "compiler.depth_table_s", "compiler.gates_out",
        "semantics.poly_s", "semantics.simulate_calls", "semantics.simulate_s",
        "faults.gadgetize_s", "faults.singles_s", "faults.pairs_s", "faults.first_order_s",
        "faults.fault_configs", "faults.configs_per_s",
        "faults.mc_s", "faults.mc_shots", "faults.mc_accepted", "faults.mc_acceptance",
        "cli.self_s", "cli.calls",
    ]
    for label in COMPILE_INPUTS:
        names += [f"compiler.compile_s.{label}", f"compiler.partition_s.{label}",
                  f"compiler.orderings_tried.{label}"]
    names += [f"faults.singles_s.{x}" for x in EXACT_INPUTS]
    names += [f"faults.pairs_s.{x}" for x in EXACT_INPUTS if x != "cs-g"]
    names += [f"faults.first_order_s.{x}" for x in EXACT_INPUTS if x != "cs-g"]
    names += [f"faults.fault_configs.{x}" for x in EXACT_INPUTS]
    for label, *_ in MC_INPUTS:
        names += [f"faults.mc_s.{label}", f"faults.mc_accepted.{label}",
                  f"faults.mc_acceptance.{label}"]
    return names


class SpeedProbe:
    """Times a fixed loop on every timer tick: (start, duration) samples."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        t = time.perf_counter()
        x = 0
        for i in range(PROBE_ITERS):
            x += i * i % 7
        self.samples.append((t, time.perf_counter() - t))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def scaled(self, wall_s: float, since: float) -> float:
        """`wall_s`, spent from perf_counter() == `since` until now, at reference speed."""
        durations = [d for t, d in self.samples if t >= since]
        if not durations:
            raise RuntimeError("no speed sample in the measured interval")
        return wall_s * PROBE_REF_S / (sum(durations) / len(durations))


def derived_seed(*parts) -> int:
    """Stable 32-bit seed from the workload seed and an input's name."""
    return random.Random(":".join(map(str, parts))).getrandbits(32)


class Ops:
    """Counts attempted and failed operations; a raise or a failed check fails one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, what: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # every failure is reported, never fatal to the run
            self.failed += 1
            self.errors.append(f"{what}: {traceback.format_exc(limit=3)}")
            return None

    def check(self, what: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {what}")


class Workload:
    """Set-up, the timed pass, and the correctness gate of one workload.

    `self.m` holds the package modules; every call goes through a module
    attribute so that the traced repetition's rebinding sees it.
    """

    def __init__(self, m, seed: int, ops: Ops, rec):
        self.m = m
        self.seed = seed
        self.ops = ops
        self.rec = rec
        self.counts: dict = {}  # deterministic results of the pass
        # CompileReports behind cnot_*_total and compiler.gates_out: the searched
        # set, or the bundled circuits that the fault analysis runs on
        self.compiled: list = []

    def warm_depth_table(self):
        gf2, compiler = self.m["gf2"], self.m["compiler"]
        # unwrapped when traced, so compiler.synthesis_* cover only the inputs
        synthesize = getattr(compiler.synthesis_gates, "__wrapped__", compiler.synthesis_gates)
        with self.rec.span("compiler.depth_table"):
            synthesize(gf2.random_invertible(4, WARM_SEED))

    def random_program(self, n: int, blocks: int, tag: str):
        """Blocks from gf2.random_invertible in program order, odd k: the given
        ordering is always a valid partition."""
        gf2, ir = self.m["gf2"], self.m["ir"]
        rng = random.Random(derived_seed(self.seed, tag, n))
        rotations = []
        for _ in range(blocks):
            u = gf2.random_invertible(n, rng.getrandbits(32))
            rotations += [ir.PhaseRotation(u.col(j), rng.choice((1, 3, 5, 7))) for j in range(n)]
        return ir.RotationProgram(n, tuple(rotations))

    def compile_bundled(self, name: str):
        """Bundled program at budget 1 with X detection, as the fault tests use it."""
        compiler, ir, programs = self.m["compiler"], self.m["ir"], self.m["programs"]
        rep = compiler.compile_program(programs.load(name), budget=1)
        self.compiled.append(rep)
        outputs, detectors = programs.DESIGNATIONS[name]
        return ir.with_x_detection(rep.circuit, detectors), list(outputs)

    def dense_equal(self, circuit, program) -> bool:
        """Dense oracle: prepared state equals the program applied to |+...+>."""
        compiler, ir, sem = self.m["compiler"], self.m["ir"], self.m["semantics"]
        body = compiler.expand_reference(program)
        preps = tuple(ir.Gate("PrepPlus", (q,)) for q in range(body.n))
        ref = sem.simulate(ir.Circuit(body.n, preps + body.gates)).state
        return sem.equal_up_to_global_phase(sem.simulate(circuit).state, ref, 1e-8)


class CompileSearch(Workload):
    def setup(self, tmpdir: str):
        programs = self.m["programs"]
        self.warm_depth_table()
        self.inputs = []
        for name, budget, seed in COMPILE_FIXED:
            for tag, objective in OBJECTIVES:
                self.inputs.append((f"{name}-{tag}", programs.load(name), budget, seed, objective))
        for n in COMPILE_RANDOM:
            prog = self.random_program(n, COMPILE_RANDOM_BLOCKS, "compile")
            for tag, objective in OBJECTIVES:
                self.inputs.append((f"rand{n}-{tag}", prog, COMPILE_RANDOM_BUDGET, 0, objective))
        self.cli_in = os.path.join(tmpdir, "ccz.json")
        self.cli_out = os.path.join(tmpdir, "ccz_circuit.json")
        self.cli_report = os.path.join(tmpdir, "report.json")
        with open(self.cli_in, "w") as f:
            f.write(programs.program_text("ccz"))

    def run(self):
        compiler, cli = self.m["compiler"], self.m["cli"]
        self.reports = {}
        for label, prog, budget, seed, objective in self.inputs:
            self.rec.label = label
            self.reports[label] = self.ops.call(
                f"compile {label}", compiler.compile_program,
                prog, budget=budget, seed=seed, objective=objective,
            )
        # The CLI leg measures the front end's own cost (argparse, file I/O,
        # JSON); the ccz search is already timed twice above, so budget 1.
        self.rec.label = "cli-ccz"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.cli_rc = (
                self.ops.call("cli compile", cli.main, [
                    "compile", "--in", self.cli_in, "--out", self.cli_out,
                    "--report", self.cli_report, "--budget", "1"]),
                self.ops.call("cli verify", cli.main, [
                    "verify", "--a", self.cli_out, "--b", self.cli_in, "--oracle", "dense"]),
            )
        self.cli_stdout = out.getvalue()
        self.rec.label = ""

    def check(self):
        for label, prog, *_ in self.inputs:
            rep = self.reports[label]
            if rep is None:
                continue
            self.compiled.append(rep)
            want = math.ceil(len(prog.rotations) / prog.n)
            self.ops.check(f"{label} t_depth {rep.t_depth} == {want}", rep.t_depth == want)
            same = self.ops.call(f"verify {label}", self.dense_equal, rep.circuit, prog)
            if same is not None:
                self.ops.check(f"{label} dense-equal to its program", same)
            self.counts[f"orderings_tried.{label}"] = rep.orderings_tried
            self.counts[f"cnot_depth.{label}"] = rep.cnot_depth
            self.counts[f"cnot_count.{label}"] = rep.cnot_count
        self.ops.check(f"cli exit codes {self.cli_rc} == (0, 0)", self.cli_rc == (0, 0))
        self.ops.check("cli verify prints 'equivalent'", "equivalent" in self.cli_stdout.split())

class ExactAnalysis(Workload):
    def setup(self, tmpdir: str):
        compiler, faults = self.m["compiler"], self.m["faults"]
        self.warm_depth_table()
        ccz, ccz_out = self.compile_bundled("ccz")
        cs, cs_out = self.compile_bundled("cs")
        t15, t15_out = self.compile_bundled("t15")
        # (label, circuit, outputs, singles sites, with pairs and first order)
        self.fault_inputs = (
            ("ccz-g", faults.gadgetize(ccz), ccz_out, "all", True),
            ("cs-g", faults.gadgetize(cs), cs_out, "tprep", False),
            ("t15", t15, t15_out, "all", True),
        )
        # The polynomial oracle accepts only the unitary fragment, so it gets
        # the pipeline output before preparation absorption.
        self.verify_set = []
        for n in VERIFY_RANDOM:
            prog = self.random_program(n, VERIFY_RANDOM_BLOCKS, "verify")
            rep = compiler.compile_program(prog, budget=1, objective="cnot-count")
            unitary = compiler.compile_to_unitary(prog, budget=1, objective="cnot-count")
            self.verify_set.append((n, prog, rep.circuit, unitary))

    def _verify(self, prog, circuit, unitary):
        compiler, sem = self.m["compiler"], self.m["semantics"]
        poly = sem.poly_equal(sem.phase_polynomial_of(unitary),
                              sem.phase_polynomial_of(compiler.expand_reference(prog)))
        return poly, self.dense_equal(circuit, prog)

    def run(self):
        faults, call = self.m["faults"], self.ops.call
        nm = faults.NoiseModel(1e-4, 0.0, T_DECODE)
        self.verdicts = {}
        for n, prog, circuit, unitary in self.verify_set:
            self.rec.label = f"verify{n}"
            self.verdicts[n] = call(f"verify n={n}", self._verify, prog, circuit, unitary)
        self.results = {}
        for label, circuit, outputs, sites, full in self.fault_inputs:
            self.rec.label = label
            r = self.results[label] = {"singles": call(
                f"{label} singles", faults.enumerate_single_faults, circuit, outputs, sites=sites)}
            if full:
                r["pairs"] = call(f"{label} pairs", faults.enumerate_pair_faults, circuit, outputs)
                r["first_order"] = call(f"{label} first order", faults.first_order_oracle,
                                        circuit, outputs, nm)
        self.rec.label = ""

    def check(self):
        ops = self.ops
        t_like = self.m["ir"].T_LIKE_KINDS
        for n, verdict in self.verdicts.items():
            if verdict is not None:
                ops.check(f"verify n={n}: poly and dense say equivalent, got {verdict}",
                          verdict == (True, True))
        # expected (Z faults on T sites, their allowed classes, pairs, harmful pairs)
        expected = {"ccz-g": (8, {"detected"}, 28, 28),
                    "t15": (15, {"detected", "harmless"}, 105, 0)}
        for label, circuit, *_ in self.fault_inputs:
            r = self.results[label]
            singles, pairs, fo = r["singles"], r.get("pairs"), r.get("first_order")
            want = expected.get(label)
            configs = 0
            if singles is not None:
                configs += len(singles.entries)
                ops.check(f"{label}: singles have acceptance in [0, 1] and finite infidelity",
                          all(0.0 <= e.acceptance <= 1.0 + 1e-12 and math.isfinite(e.infidelity)
                              for e in singles.entries))
                for klass in ("detected", "harmless", "harmful"):
                    self.counts[f"singles.{klass}.{label}"] = singles.count(klass)
                if want:
                    z = [e.classification for e in singles.entries if e.location.pauli == "Z"
                         and circuit.gates[e.location.gate_index].kind in t_like]
                    ops.check(f"{label}: {want[0]} Z faults on T sites, all {want[1]}: got {z}",
                              len(z) == want[0] and set(z) <= want[1])
            if pairs is not None:
                configs += pairs.total
                ops.check(f"{label}: {want[3]}/{want[2]} pairs harmful, got {pairs.to_dict()}",
                          (pairs.total, pairs.harmful) == want[2:])
            if fo is not None:
                configs += len(fo.table.entries)
                ops.check(f"{label}: first-order coefficient {fo.coefficient} finite and positive",
                          math.isfinite(fo.coefficient) and fo.coefficient > 0)
                self.counts[f"first_order.{label}"] = f"{fo.coefficient:.12g}"
            self.counts[f"fault_configs.{label}"] = configs

class MonteCarlo(Workload):
    def setup(self, tmpdir: str):
        faults = self.m["faults"]
        self.warm_depth_table()
        ccz, ccz_out = self.compile_bundled("ccz")
        cs, cs_out = self.compile_bundled("cs")
        t15, t15_out = self.compile_bundled("t15")
        self.circuits = {
            "ccz-g": (faults.gadgetize(ccz), ccz_out),
            "cs-g": (faults.gadgetize(cs), cs_out),
            "t15": (t15, t15_out),
        }

    def run(self):
        faults = self.m["faults"]
        self.reports = {}
        for label, key, r, shots in MC_INPUTS:
            circuit, outputs = self.circuits[key]
            self.rec.label = label
            self.reports[label] = self.ops.call(
                f"mc {label}", faults.monte_carlo_infidelity, circuit, outputs,
                faults.NoiseModel.from_ratio(P_L, r, T_DECODE), shots,
                seed=derived_seed(self.seed, label),
            )
        self.rec.label = ""

    def check(self):
        for label, *_ in MC_INPUTS:
            rep = self.reports[label]
            if rep is None:
                continue
            self.ops.check(
                f"{label}: acceptance {rep.acceptance} in (0, 1], "
                f"infidelity {rep.infidelity} finite",
                0.0 < rep.acceptance <= 1.0 and rep.infidelity is not None
                and math.isfinite(rep.infidelity),
            )
            self.counts[f"mc_accepted.{label}"] = rep.accepted
            self.counts[f"mc_shots.{label}"] = rep.shots


WORKLOADS = {
    "compile-search": CompileSearch,
    "exact-analysis": ExactAnalysis,
    "monte-carlo": MonteCarlo,
}


def span_metrics(rec, wl: Workload) -> dict[str, float]:
    """Per-layer metrics of the traced repetition (set-up and timed pass).

    Times are inclusive of child spans except `compiler.partition_s` and
    `cli.self_s`, which are self times.
    """
    a = rec.arrays()

    def total(name, label=None, field="dur"):
        return float(a[field][rec.select(a, name, label)].sum())

    def calls(name):
        return int(rec.select(a, name).sum())

    out = {
        "gf2.is_invertible_calls": calls("gf2.is_invertible"),
        "gf2.is_invertible_s": total("gf2.is_invertible"),
        "gf2.invert_calls": calls("gf2.invert"),
        "gf2.invert_s": total("gf2.invert"),
        "ir.parse_s": total("ir.parse"),
        "ir.serialize_s": total("ir.serialize"),
        "compiler.partition_s": total("compiler.partition", field="self"),
        "compiler.synthesis_calls": calls("compiler.synthesis"),
        "compiler.synthesis_s": total("compiler.synthesis"),
        "compiler.parallelize_s": total("compiler.parallelize"),
        "compiler.merge_s": total("compiler.merge"),
        "compiler.hoist_s": total("compiler.hoist"),
        "compiler.absorb_s": total("compiler.absorb"),
        "compiler.depth_table_s": total("compiler.depth_table"),
        "compiler.gates_out": sum(len(rep.circuit.gates) for rep in wl.compiled),
        "semantics.poly_s": total("semantics.poly"),
        "semantics.simulate_calls": calls("semantics.simulate"),
        "semantics.simulate_s": total("semantics.simulate"),
        "faults.gadgetize_s": total("faults.gadgetize"),
        "faults.singles_s": total("faults.singles"),
        "faults.pairs_s": total("faults.pairs"),
        "faults.first_order_s": total("faults.first_order"),
        "faults.mc_s": total("faults.mc"),
        "cli.self_s": total("cli.main", field="self"),
        "cli.calls": calls("cli.main"),
    }
    counts = wl.counts

    def count_sum(prefix):
        return sum(v for k, v in counts.items() if k.startswith(prefix))

    tried = sum(rep.orderings_tried for rep in wl.compiled)
    search_s = total("compiler.partition")
    out["compiler.orderings_tried"] = tried
    out["compiler.orderings_per_s"] = tried / search_s if search_s else 0.0
    configs = count_sum("fault_configs.")
    enum_s = out["faults.singles_s"] + out["faults.pairs_s"] + out["faults.first_order_s"]
    out["faults.fault_configs"] = configs
    out["faults.configs_per_s"] = configs / enum_s if enum_s else 0.0
    shots, accepted = count_sum("mc_shots."), count_sum("mc_accepted.")
    out["faults.mc_shots"] = shots
    out["faults.mc_accepted"] = accepted
    out["faults.mc_acceptance"] = accepted / shots if shots else 0.0
    for label in COMPILE_INPUTS:
        out[f"compiler.compile_s.{label}"] = total("compiler.compile", label)
        out[f"compiler.partition_s.{label}"] = total("compiler.partition", label, "self")
        out[f"compiler.orderings_tried.{label}"] = counts.get(f"orderings_tried.{label}", 0)
    for x in EXACT_INPUTS:
        out[f"faults.singles_s.{x}"] = total("faults.singles", x)
        out[f"faults.pairs_s.{x}"] = total("faults.pairs", x)
        out[f"faults.first_order_s.{x}"] = total("faults.first_order", x)
        out[f"faults.fault_configs.{x}"] = counts.get(f"fault_configs.{x}", 0)
    for label, *_ in MC_INPUTS:
        label_shots = counts.get(f"mc_shots.{label}", 0)
        out[f"faults.mc_s.{label}"] = total("faults.mc", label)
        out[f"faults.mc_accepted.{label}"] = counts.get(f"mc_accepted.{label}", 0)
        out[f"faults.mc_acceptance.{label}"] = (
            out[f"faults.mc_accepted.{label}"] / label_shots if label_shots else 0.0)
    return {name: out[name] for name in per_layer_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", help="where the traced repetition saves its spans (.npz)")
    args = parser.parse_args(argv)
    probe = SpeedProbe()
    probe_start = time.perf_counter()
    probe.start()

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import numpy
    import rotsynth
    from rotsynth import cli, compiler, faults, gf2, ir, programs, semantics
    from spans import Recorder

    if not os.path.realpath(rotsynth.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"rotsynth was imported from {rotsynth.__file__}, not from {src}")
    modules = {"cli": cli, "compiler": compiler, "faults": faults, "gf2": gf2,
               "ir": ir, "programs": programs, "semantics": semantics}
    rec = Recorder()
    if args.trace:
        rec.install(modules)
        rec.enabled = True

    ops = Ops()
    wl = WORKLOADS[args.workload](modules, args.seed, ops, rec)
    tmpdir = os.path.join(os.getcwd(), ".perfbench-out", f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        with rec.span("setup"):
            wl.setup(tmpdir)
        setup_wall_s = time.monotonic() - args.t0
        result = {"setup_s": probe.scaled(setup_wall_s, probe_start), "setup_wall_s": setup_wall_s}
        if not args.setup_only:
            t = time.perf_counter()
            with rec.span("pass"):
                wl.run()
            pass_wall_s = time.perf_counter() - t
            pass_s = probe.scaled(pass_wall_s, t)
            probe.stop()
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            rec.enabled = False
            wl.check()
            result.update(
                pass_s=pass_s,
                pass_wall_s=pass_wall_s,
                peak_rss_mb=peak_rss_mb,
                cnot_depth_total=sum(rep.cnot_depth for rep in wl.compiled),
                cnot_count_total=sum(rep.cnot_count for rep in wl.compiled),
                counts=wl.counts,
                attempted=ops.attempted,
                failed=ops.failed,
                errors=ops.errors,
                env={
                    "python": sys.version.split()[0],
                    "numpy": numpy.__version__,
                    "rotsynth": rotsynth.__version__,
                    **{v: os.environ.get(v) for v in BLAS_THREAD_VARS},
                },
            )
            if args.trace:
                result["layers"] = span_metrics(rec, wl)
                if args.trace_out:
                    rec.save(args.trace_out)
    finally:
        probe.stop()
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
