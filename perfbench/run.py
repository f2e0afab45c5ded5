#!/usr/bin/env python3
"""Builds the Tulkun benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Run from the repository root. The build lands in $CARGO_TARGET_DIR (default
.bench_build) under perfbench/; build output goes to stderr. The last line
of stdout is the benchmark's JSON result. Exits non-zero, without a result
line, when the build or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wan-uds-churn", "dc-uds-burst", "wan-xl-sharded-mixed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seed >= 2**64:
        parser.error("--seed must be in [0, 2^64)")
    if not 1 <= args.seconds <= 3600:
        parser.error("--seconds must be in [1, 3600]")
    return args


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures once, then builds incrementally; returns the binary path."""
    log = sys.stderr
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", "tulkun_perfbench", "-j", jobs],
        stdout=log, stderr=log, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out_dir, "tulkun_perfbench")


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def main(argv):
    args = parse_args(argv)
    # A SIGTERM unwinds through the finally below, which kills the group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    out_dir = build_dir()
    # Compilers and the benchmark keep their temporary files in the build
    # tree, so a run writes nothing outside the checkout.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    try:
        binary = build(out_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    # Unix socket paths must stay short: pass a path relative to ROOT.
    sock_dir = os.path.relpath(os.path.join(out_dir, f"sock-{os.getpid()}"), ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--socket-dir", sock_dir]
    # Own process group: the forked device ranks die with it on any exit.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    start = time.monotonic()
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.communicate()
        print(f"run.py: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        kill_group(proc.pid)
        shutil.rmtree(os.path.join(ROOT, sock_dir), ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(stdout)
        print(f"run.py: benchmark exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    print(f"wall {time.monotonic() - start:.1f} s", file=sys.stderr)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
