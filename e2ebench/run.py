#!/usr/bin/env python3
"""Builds and runs the sentineld end-to-end benchmark (see README.md).

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --short [--workload <name>]

Run from the repository root. The first call configures and builds the
daemon and the load generator from ../src into .bench_build/e2ebench;
later calls only check the build is current. The last line of stdout is
the run's JSON result. --short runs every workload (or the one named) at
a tenth of its length, traced and untraced, with every check, and exits
non-zero if any run fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKDIR = os.path.join(ROOT, ".bench_build", "runs")
WORKLOADS = ["fanin-steady", "fanin-burst", "catalogue-wide"]
# A run must end within 180 s; leave the build check and start-up room.
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no sentineld sources next to the benchmark (expected ../src)")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD, "-j", jobs, "--target", "e2ebench"]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def run_one(workload, seed, seconds, trace, short):
    """Runs the generator; returns (exit code, its stdout)."""
    cmd = [os.path.join(BUILD, "e2ebench"),
           "--sentineld", os.path.join(BUILD, "sentineld_src", "daemon",
                                       "sentineld"),
           "--workdir", WORKDIR, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if short:
        cmd.append("--short")
    # Its own session, so whatever it leaves behind can be killed as a
    # group (its daemons also die with it by PR_SET_PDEATHSIG).
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        out = ""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args()
    if not args.short and args.workload is None:
        parser.error("--workload is required (or --short)")
    if not build():
        log("build failed")
        return 1

    if not args.short:
        code, out = run_one(args.workload, args.seed, args.seconds,
                            args.trace, short=False)
        sys.stdout.write(out)
        return code if code != 0 or out.strip() else 1

    failures = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        for trace in (0, 1):
            code, out = run_one(workload, args.seed, 1, trace, short=True)
            lines = out.strip().splitlines()
            verdict = "ok" if code == 0 and lines else f"FAILED (exit {code})"
            log(f"short {workload} trace={trace}: {verdict}")
            if lines:
                print(lines[-1])
            failures += verdict != "ok"
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
