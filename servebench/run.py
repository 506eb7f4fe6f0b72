#!/usr/bin/env python3
"""Build the serving benchmark from source and run one workload.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a filterstream checkout. The benchmark is built with
dune (output under _build/, the shared dune cache off, so nothing is
written outside the checkout), then executed with the arguments given
here. Its standard output passes through unchanged: the last line is the
JSON result. The exit code is the benchmark's own: 0 only when every
output check passed.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./servebench/main.exe"
EXE = os.path.join(ROOT, "_build", "default", "servebench", "main.exe")
# A run measures for at most 60 s, then checks its outputs; anything
# still going after this long has hung.
RUN_TIMEOUT_S = 170


def fail(msg, code=3):
    print("servebench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    for need in ("dune-project", os.path.join("lib", "serve")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not a filterstream checkout (missing %s) in %s"
                 % (need, ROOT))
    if shutil.which("dune") is None:
        fail("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", TARGET],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed", build.returncode)
    sys.stdout.flush()
    proc = subprocess.Popen([EXE] + sys.argv[1:], cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    sys.exit(code)


if __name__ == "__main__":
    main()
