#!/usr/bin/env python3
"""Build and run one workload of the neutral-mc benchmark.

    python3 perfbench/run.py --workload particles-stream --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first call configures and builds the
library, the neutrald daemon and the perfbench binary in Release under
.bench_build/ (build output goes to stderr; build time is not measured).
The binary's last stdout line is the run's JSON result; spans and the
daemon's trace log of traced runs land in .bench_out/.  --self-test builds
and runs the checks' own tests instead.
"""
import argparse
import os
import pathlib
import signal
import subprocess
import sys

WORKLOADS = ("particles-stream", "events-scatter", "serve-mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    if not (root / "src" / "core" / "simulation.h").is_file():
        fail(f"no neutral-mc sources under {root / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    # Compiler temporaries stay inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def run(cmd, cwd):
    """Run in a fresh session so a timeout can stop the daemon too."""
    proc = subprocess.Popen(cmd, cwd=cwd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build"
    if args.self_test:
        build(root, build_dir)
        sys.exit(run([str(build_dir / "perfbench_checks_test")], root))
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in (0, 120]")
    build(root, build_dir)
    sys.exit(run([str(build_dir / "perfbench"),
                  "--workload", args.workload,
                  "--seed", str(args.seed),
                  "--seconds", repr(args.seconds),
                  "--trace", str(args.trace),
                  "--neutrald", str(build_dir / "neutrald"),
                  "--out-dir", str(root / ".bench_out")], root))


if __name__ == "__main__":
    main()
