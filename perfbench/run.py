#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fleet_noisy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
benchmark (and the gpufreq libraries it links) in .bench_build/perfbench;
later calls rebuild incrementally. The benchmark's own output, whose last
line is the JSON result, goes to stdout; build output goes to stderr. A
traced run (--trace 1) also writes its spans to
.bench_build/traces/<workload>.tsv. See perfbench/README.md.
"""
import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group
    (compilers spawned by the build included) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    """Configure and build (incrementally after the first call); return
    True on success."""
    steps = [
        ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench",
         "-j", str(max(1, min(4, os.cpu_count() or 1)))],
    ]
    for cmd in steps:
        try:
            code, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return False
        if code != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="fleet_noisy or fleet_repeat")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that the request generators are deterministic per seed")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1

    if args.self_test:
        cmd = [BINARY, "--self-test"]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out",
                    os.path.join(ROOT, ".bench_build", "traces", args.workload + ".tsv")]
    # Every run uses the library defaults (kernel backend, precision); the
    # benchmark sets its own pool size and prints the resulting
    # configuration as its fingerprint.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GPUFREQ_")}
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
