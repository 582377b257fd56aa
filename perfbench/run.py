#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload live-write-1k --seed 1 --seconds 10 --trace 0

Builds perfbench/ (its own Go module, which uses the repository at the
checkout root through a replace directive) into .bench_build/, then
runs it with the given arguments. Every file the build and the run
write stays under .bench_build/: the Go build cache and settings,
temporary files and the WAL. The Go toolchain must already be installed; nothing is
downloaded. Exits non-zero without a result if the build fails.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build")
    binary = os.path.join(out, "perfbench")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        # The go command keeps its settings and telemetry counters in the
        # user config directory; point that inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
