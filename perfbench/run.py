#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Run from the root of a checkout:

    python3 perfbench/run.py --workload rvm-sync --seed 1 --seconds 20 --trace 0

The Go program in this directory is built from source into .bench_build/,
with the Go build cache kept there too, so nothing outside the checkout is
read or written besides the Go toolchain itself. All arguments are passed to
the benchmark binary; its exit code is returned. A failed build exits with
the build's code and prints no result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def git_commit():
    """The checkout's commit, or an empty string outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return ""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOENV": "off",
        # The go command keeps telemetry counters under the user config
        # directory; keep them in the checkout too.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTMPDIR": tmp,
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod -buildvcs=false",
        "GOWORK": "off",
    })
    build = subprocess.run(["go", "build", "-o", BINARY, "."],
                           cwd=os.path.join(ROOT, "perfbench"), env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    env["PERFBENCH_COMMIT"] = git_commit()
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
