#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload decide_miss --seed 1 --seconds 12 --trace 0

Builds the daemon (bin/cts_cli.exe) and the benchmark executable
(perfbench/perfbench.exe) with dune, then runs the executable with the
same arguments.  Its stdout is passed through; the last line is the
result object.  Exits non-zero, without a result, when the checkout
cannot be built.
"""

import glob
import os
import shutil
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
CTS = os.path.join("_build", "default", "bin", "cts_cli.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(needed):
            fail(f"not a checkout of the repository (no {needed}/)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "./bin/cts_cli.exe",
           "./perfbench/perfbench.exe"]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build failed")


def main():
    build()
    proc = subprocess.Popen([EXE, "--cts", CTS] + sys.argv[1:],
                            start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The benchmark and any daemon it started share a process group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        for d in glob.glob(os.path.join(".perfbench", "state-*")) + \
                glob.glob(os.path.join(".perfbench", "replay-*")):
            shutil.rmtree(d, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGTERM)
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
