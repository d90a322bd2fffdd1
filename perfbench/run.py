"""rotsynth benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every repetition is a fresh interpreter
(`rep.py`), started one at a time with BLAS pinned to one thread, so no
repetition profits from caches an earlier one filled. With `--trace 0` the
last line of stdout is a JSON object holding every end-to-end metric of
BENCHMARK.json; with `--trace 1` untraced and traced repetitions alternate
and it holds every per-layer metric instead. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("compile-search", "exact-analysis", "monte-carlo")
REP_TIMEOUT_S = 150  # one repetition; a run must end within 180 s
RUN_LIMIT_S = 170
MIN_SETUPS = 5  # set-up samples behind the reported setup_s median
OUT_DIR = ".perfbench-out"


def fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, workload: str, seed: int, started: float):
        self.workload = workload
        self.seed = seed
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.env = child_env()

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def rep(self, *flags: str) -> tuple[dict | None, float]:
        """Run one repetition; returns (its JSON result or None, wall seconds)."""
        timeout = min(REP_TIMEOUT_S, RUN_LIMIT_S - self.elapsed())
        t0 = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--t0", repr(t0), *flags]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            self._failed_rep(f"repetition {flags} timed out after {timeout:.0f} s")
            return None, time.monotonic() - t0
        wall = time.monotonic() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self._failed_rep(f"repetition {flags} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
            return None, wall
        return json.loads(lines[-1]), wall

    def _failed_rep(self, msg: str):
        self.attempted += 1
        self.failed += 1
        self.errors.append(msg)

    def record(self, res: dict):
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.errors += res["errors"]


def median(values):
    return statistics.median(values) if values else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}")
    if not os.path.isfile(os.path.join("src", "rotsynth", "__init__.py")):
        return fail("run from the root of a rotsynth checkout: src/rotsynth is missing")
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    runner = Runner(args.workload, args.seed, started)
    os.makedirs(OUT_DIR, exist_ok=True)
    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    # Start another repetition only if it is expected to end within --seconds;
    # a --trace 1 run alternates untraced and traced ones, at least one each.
    while True:
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        spans_file = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}-{len(traced)}.npz")
        flags = ["--trace", "--trace-out", spans_file] if trace_this else []
        res, last_wall = runner.rep(*flags)
        if res is None:
            break
        runner.record(res)
        setups.append(res["setup_s"])
        (traced if trace_this else untraced).append(res)
        done = bool(untraced) and (traced or not args.trace)
        if done and runner.elapsed() + last_wall > args.seconds:
            break
    while (not args.trace and untraced and len(setups) < MIN_SETUPS
           and runner.elapsed() < args.seconds):
        res, _ = runner.rep("--setup-only")
        if res is None:
            break
        setups.append(res["setup_s"])

    if not untraced or (args.trace and not traced):
        print("\n".join(runner.errors), file=sys.stderr)
        return fail("no repetition completed")

    # deterministic counts must repeat exactly across repetitions of one seed
    first = untraced[0]["counts"]
    for i, res in enumerate(untraced[1:] + traced, start=1):
        runner.attempted += 1
        if res["counts"] != first:
            runner.failed += 1
            diff = sorted(k for k in set(first) | set(res["counts"])
                          if first.get(k) != res["counts"].get(k))
            runner.errors.append(f"repetition {i}: deterministic counts differ: {diff}")

    if args.trace:
        metrics = {k: median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
        pass_t = median([r["pass_s"] for r in traced])
        pass_u = median([r["pass_s"] for r in untraced])
        metrics.update({"trace.traced_pass_s": pass_t, "trace.untraced_pass_s": pass_u,
                        "trace.overhead_s": pass_t - pass_u})
        print(f"tracing overhead: traced pass {pass_t:.4f} s - untraced pass {pass_u:.4f} s "
              f"= {pass_t - pass_u:.4f} s ({len(traced)} traced, {len(untraced)} untraced)")
    else:
        metrics = {
            "setup_s": median(setups),
            "pass_s": median([r["pass_s"] for r in untraced]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
            "cnot_depth_total": untraced[0]["cnot_depth_total"],
            "cnot_count_total": untraced[0]["cnot_count_total"],
        }
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        return fail(f"BENCHMARK.json declares metrics this run does not measure: {missing}")

    env = dict(untraced[0]["env"], nproc=len(os.sched_getaffinity(0)),
               repetitions=len(untraced) + len(traced), setups=len(setups))
    print("env: " + json.dumps(env, sort_keys=True))
    print("samples: " + json.dumps({
        "setup_s": setups, **{k: [r[k] for r in untraced] for k in ("pass_s", "pass_wall_s")}}))
    for m in declared:
        print(f"{m['name']}: {metrics[m['name']]} {m['unit']}")
    print(f"failed_frac: {runner.failed}/{runner.attempted} operations")
    for err in runner.errors:
        print(err, file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
