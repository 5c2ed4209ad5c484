"""Build the benchmark from this checkout's sources and run it.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 15 --trace 0

The binary, the Go build cache and the Go tool's own configuration and
telemetry files live in .bench_build/ at the checkout root, so nothing is
written outside the checkout. Build output goes to stderr; stdout carries
only the benchmark's report.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = os.path.join(root, ".bench_build")
    os.makedirs(out, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-buildvcs=false",
        GOWORK="off",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
