#!/usr/bin/env python3
"""Build HarborSim's benchmark from source and run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the shipped `reproduce_all` (the
process under test) and the `perfbench` driver in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then hands every argument to
`perfbench`, whose last stdout line is the result JSON. Exits nonzero,
without a result, when the repository's sources are not there to build.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: no Cargo.toml at the repository root; nothing to build")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "harborsim-bench", "--bin", "reproduce_all"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # cargo reports on stderr; stdout stays for the result line
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(done.returncode)
    release = os.path.join(target, "release")
    perfbench = os.path.join(release, "perfbench")
    os.chdir(ROOT)
    os.execve(perfbench,
              [perfbench, "--bin", os.path.join(release, "reproduce_all")] + sys.argv[1:],
              env)


if __name__ == "__main__":
    main()
