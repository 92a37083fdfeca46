#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `perfbench/` (a Cargo package of its own) and the repository's
`mcml-serve` binary in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs `mcml-perfbench` with the same arguments from the
repository root. Build output goes to standard error, so the benchmark's
JSON result stays the last line of standard output. Exits non-zero if a
build fails or the run does not finish within RUN_TIMEOUT_S seconds.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175

BUILDS = [
    ["cargo", "build", "--release", "--offline", "--quiet",
     "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ["cargo", "build", "--release", "--offline", "--quiet",
     "-p", "mcml-serve", "--bin", "mcml-serve"],
]


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for command in BUILDS:
        try:
            built = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
        except OSError as error:
            print(f"error: cannot run {command[0]}: {error}", file=sys.stderr)
            return 1
        if built.returncode != 0:
            print("error: build failed: " + " ".join(command), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    command = [os.path.join(release, "mcml-perfbench")] + sys.argv[1:] + [
        "--serve-bin", os.path.join(release, "mcml-serve")]
    # A session of its own, so a timed-out run takes its server with it.
    bench = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        print(f"error: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
