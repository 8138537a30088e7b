#!/usr/bin/env python3
"""Build ftes and the benchmark from source, then run one benchmark run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the source tree.  The build goes to _build/ there
(dune's shared cache is disabled, so nothing is written elsewhere) and
its output to stderr, so the last line of stdout is the benchmark's JSON
result.  Exits non-zero, printing no result, when the tree holds no
ftes sources or the build fails.
"""

import os
import subprocess
import sys

TARGETS = ["./bin/ftes.exe", "./perfbench/main.exe"]


def main():
    if not (os.path.isfile("dune-project") and os.path.isfile("bin/ftes.ml")
            and os.path.isdir("lib")):
        print("perfbench: run from the root of an ftes source tree",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", "."] + TARGETS,
                           env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run(["_build/default/perfbench/main.exe"]
                          + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
