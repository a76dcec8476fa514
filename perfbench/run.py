#!/usr/bin/env python3
"""End-to-end DSE campaign benchmark: one command per workload run.

    python3 perfbench/run.py --workload kfusion_dse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Builds the repository and the benchmark driver (Release) into .bench_build/
at the repository root on first use, then runs one workload. The driver's
standard output is passed through; its last line is the JSON result. Exit
code 0 only when every correctness check passed. See perfbench/README.md.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("kfusion_dse", "elasticfusion_dse")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally; output goes to a log."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (expected src/)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "e2e_bench", "attribution_test"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build failed (full log: %s)" % log_path)


def source_digest():
    """A digest of the build inputs: top-level CMakeLists.txt, src/ and
    perfbench/."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "source-sha256:" + digest.hexdigest()[:16]


def source_identity():
    """The git commit of a clean worktree; the commit plus a source digest
    when the worktree has uncommitted changes; the digest alone outside
    git."""
    def git(*args):
        done = subprocess.run(["git", "-C", ROOT] + list(args),
                              capture_output=True, text=True, timeout=10)
        return done.stdout.strip() if done.returncode == 0 else None
    try:
        commit = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=all", "--",
                     "CMakeLists.txt", "src", "perfbench")
    except (OSError, subprocess.SubprocessError):
        commit = status = None
    if not commit or status is None:
        return source_digest()
    if status:
        return commit + "+dirty:" + source_digest()
    return commit


def kill_daemon_group(pid_file):
    """Kills the hm_serve process group a killed run left behind."""
    try:
        with open(pid_file) as handle:
            os.killpg(int(handle.read().strip()), signal.SIGKILL)
    except (OSError, ValueError):
        pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's arithmetic tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")

    build()
    if args.self_test:
        sys.exit(subprocess.call([os.path.join(BUILD, "attribution_test")]))

    work_dir = os.path.join(BUILD_ROOT, "run",
                            "%s-%d" % (args.workload, os.getpid()))
    env = dict(os.environ, PERFBENCH_COMMIT=source_identity())
    command = [os.path.join(BUILD, "e2e_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.relpath(work_dir, ROOT)]
    sys.stdout.flush()
    # Relative work dir from the repository root keeps the daemon's UNIX
    # socket path short.
    process = subprocess.Popen(command, cwd=ROOT, env=env)
    try:
        code = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        kill_daemon_group(os.path.join(work_dir, "daemon.pid"))
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 124
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
