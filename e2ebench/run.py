#!/usr/bin/env python3
"""Builds and runs the FALCC end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload serve_open --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --selftest

The first call configures and builds e2ebench/ (and with it the library
in src/) into .bench_build; later calls rebuild incrementally. The
benchmark's own output goes to stdout: a header line, then the JSON result
as the last line. Build output and diagnostics go to stderr. The exit
code is the benchmark's: non-zero on any failed check.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
RUN_DIR = os.path.join(ROOT, ".bench_run")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("score_batch", "serve_open", "drift_refresh")
# One run's own limit; the set-ups, the window and the checks take well
# under a minute.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns False if anything failed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("e2ebench: library sources (src/) not found next to e2ebench/")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                           stdout=sys.stderr) == 0


def revision():
    """Git commit when there is one, plus a digest of the built sources."""
    commit = "none"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "git:%s+src:%s" % (commit, digest.hexdigest()[:12])


def remove_stale_run_dirs():
    """Removes per-process scratch dirs left by runs that were killed.

    Each run works in .bench_run/<pid> and removes it when it exits."""
    if not os.path.isdir(RUN_DIR):
        return
    for name in os.listdir(RUN_DIR):
        try:
            os.kill(int(name), 0)
            continue  # that run is still alive
        except (ValueError, ProcessLookupError):
            pass
        except PermissionError:
            continue
        shutil.rmtree(os.path.join(RUN_DIR, name), ignore_errors=True)


def run(argv, timeout):
    """Runs a built binary from the repository root; returns its code."""
    try:
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("e2ebench: %s timed out after %ds" % (argv[0], timeout))
        return 1
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness self-tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not build():
        log("e2ebench: build failed")
        return 1
    if args.selftest:
        return run([os.path.join(BUILD, "e2e_selftest"),
                    os.path.join(ROOT, "BENCHMARK.json")], RUN_TIMEOUT_S)

    remove_stale_run_dirs()
    code = run([os.path.join(BUILD, "falcc_e2e"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", "%g" % args.seconds,
                "--trace", str(args.trace),
                "--run-dir", os.path.relpath(RUN_DIR, ROOT),
                "--out-dir", os.path.relpath(OUT_DIR, ROOT),
                "--revision", revision()], RUN_TIMEOUT_S)
    remove_stale_run_dirs()
    return code


if __name__ == "__main__":
    sys.exit(main())
