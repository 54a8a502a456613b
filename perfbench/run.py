#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload shipped --seed 1 --seconds 20 --trace 0

Every build product, the Go build cache and the span files stay under
.bench_build/ in the checkout. The benchmark's own JSON result is the last
line of standard output; build output goes to standard error. Exits non-zero
without a result when the build fails, e.g. outside a full checkout.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomod"),
        GOTMPDIR=os.path.join(out, "tmp"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary, "-out", out] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
