#!/usr/bin/env python3
"""Build and run the timeprint benchmark from the root of a checkout.

    python3 perfbench/run.py --workload triage --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py selftest
    python3 perfbench/run.py steady --workload forensics --runs 10 [--seconds 30]

The first form builds the benchmark and timeprintd with dune, runs one
workload, and passes its output through: the last line of standard
output is the result object. `selftest` runs the oracle self-test and
the short form of every workload. `steady` runs one workload with
seeds 1..N and prints each end-to-end metric's median and quartiles
next to its bound from BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_EXE = os.path.join("_build", "default", "perfbench", "main.exe")
DAEMON_EXE = os.path.join("_build", "default", "bin", "timeprintd.exe")
RUN_TIMEOUT_S = 170


def build():
    """Build the benchmark and the daemon; build output goes to stderr."""
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "perfbench/main.exe", "bin/timeprintd.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    if r.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def one_cpu():
    """Confine this process to one of the CPUs it may run on; children
    inherit it."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_bench(args, capture=False):
    """Run main.exe in its own process group, so that a timeout also
    stops the daemon it spawned. Returns (exit code, stdout or None).

    The service workload runs on one CPU, client and daemon together.
    Its closed loop has one side waiting while the other works, so a
    request's round trip is then a hand-off on that CPU. Spread over
    two CPUs, each hand-off wakes an idle virtual CPU, and on a shared
    host that wake-up cost more than the request itself: the median
    cache hit took 41-47 us instead of 25 us, and moved with the host's
    load from run to run."""
    cmd = [BENCH_EXE] + args + ["--daemon", DAEMON_EXE]
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else None,
        start_new_session=True,
        preexec_fn=one_cpu if args[0] == "service" else None,
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    return proc.returncode, (out.decode() if capture else None)


def steady(workload, runs, seconds, first_seed):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    shares = set()
    for seed in range(first_seed, first_seed + runs):
        code, out = run_bench(
            [workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture=True,
        )
        if code != 0:
            print(f"perfbench: seed {seed} exited {code}", file=sys.stderr)
            return 1
        result = json.loads(out.strip().splitlines()[-1])
        shares.add((result["failed"], result["attempted"]))
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
    print(f"{workload}: {runs} runs of {seconds} s")
    print(f"failed/attempted: {sorted(f'{a}/{b}' for a, b in shares)}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        verdict = "ok" if spread <= bounds[name] / 3 else (
            "within bound" if spread <= bounds[name] else "TOO WIDE")
        print(f"  {name:16s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.3f}  bound {bounds[name]}  {verdict}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("mode", nargs="?", choices=["run", "selftest", "steady"], default="run")
    p.add_argument("--workload", choices=["triage", "forensics", "service"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--short", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    a = p.parse_args()
    if a.mode != "selftest" and a.workload is None:
        p.error("--workload is required")
    if not build():
        return 1
    if a.mode == "selftest":
        return run_bench(["selftest"])[0]
    if a.mode == "steady":
        return steady(a.workload, a.runs, a.seconds, a.seed)
    args = [a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", a.trace]
    if a.short:
        args.append("--short")
    return run_bench(args)[0]


if __name__ == "__main__":
    sys.exit(main())
