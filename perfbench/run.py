#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark program is built with dune
into _build/ of the working directory, then run with the same arguments;
its output is passed through unchanged, so the last line of standard
output is the run's JSON result.  The exit code is the program's: 0 when
the correctness gate passed.  A failed build exits 1 and prints no
result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def git_rev():
    # Only a .git directory in the working directory is consulted, never
    # one further up.
    if not os.path.isdir(".git"):
        return "unknown"
    env = dict(os.environ, GIT_DIR=".git")
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    # Keep dune's shared cache out of the build: the run reads and
    # writes only inside the working directory.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/main.exe"],
            env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run dune: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("run.py: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_GIT_REV"] = git_rev()
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
