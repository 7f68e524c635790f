#!/usr/bin/env python3
"""Build the perfbench program from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 25 --trace 0

The arguments are passed to the program unchanged. The build cache, the
binaries (perfbench and lscatter-bench), temporary artifact directories and
trace files all live under .bench_build in the current directory. A failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

WORK = ".bench_build"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    work = os.path.abspath(WORK)
    os.makedirs(os.path.join(work, "gotmp"), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(work, "gocache"),
        GOMODCACHE=os.path.join(work, "gomodcache"),
        GOTMPDIR=os.path.join(work, "gotmp"),
        # The go command keeps telemetry counters under the user config
        # directory; point it inside the build directory too.
        XDG_CONFIG_HOME=os.path.join(work, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-buildvcs=false",
    )
    # lscatter-bench is built too: paper-sweep times its cold start as the
    # set-up of every sweep.
    build = subprocess.run(["go", "build", "-o", work + os.sep, ".",
                            "lscatter/cmd/lscatter-bench"],
                           cwd=here, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(work, "perfbench")
    sys.stdout.flush()
    os.execve(exe, [exe] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
