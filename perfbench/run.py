#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload offline|serve|cluster \
        --seed N --seconds S --trace 0|1

It builds the benchmark and the `vp` executable from source with dune,
runs one workload, and passes the benchmark's output through: one line per
metric, then the result object as the last line. The benchmark runs in its
own process group, and every process left in that group is killed and
waited for before this script exits.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

DEFAULT_SEED = 1
BUILD_DIR = "_build/default"
WORK_DIR = ".perfbench"
RUN_TIMEOUT_S = 170


def stop_group(pgid):
    """Kills every process still in the group and waits until none is left."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        except PermissionError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["offline", "serve", "cluster"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pin-reference", action="store_true",
                        help="rewrite perfbench/reference.json from this run")
    args = parser.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("bin")
            and os.path.isdir("lib")):
        print("perfbench: run from the root of a vertpart checkout",
              file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    # The shared dune cache lives outside the checkout; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/bench.exe",
         "./bin/main.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        print("perfbench: build failed", file=sys.stderr)
        return 2

    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench", "bench.exe"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--vp", os.path.join(BUILD_DIR, "bin", "main.exe"),
           "--work-dir", WORK_DIR]
    if args.pin_reference:
        cmd.append("--pin-reference")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, start_new_session=True)

    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 124
    finally:
        stop_group(proc.pid)
        if proc.poll() is None:
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
